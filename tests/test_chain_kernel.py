"""The compiled chain kernel against the Python reference engine.

Both engines do the same IEEE-754 operations in the same order, so every
chain must agree bit for bit: results, run summaries and traces are compared
through ``repr``, which spells out every float exactly (and NaN equal to
itself).
"""

import ctypes
import gc
import importlib
import logging
import os
import re
import signal
import stat
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from test_model import random_tree

from errorbudget.anneal import AnnealConfig, InfeasibleError, anneal, chain_engine, find_feasible
from errorbudget.model import (
    BudgetNode,
    LeafCost,
    Multiplicity,
    NodeKind,
    ParameterBinding,
    Rounding,
    compile_model,
)
from errorbudget.tfim import TfimConfig, build_tfim_model

ROOT = Path(__file__).resolve().parents[1]
# the module, not the function the package namespace exports under this name
ANNEAL = importlib.import_module("errorbudget.anneal")


def on_both_engines(monkeypatch, run):
    """``run()`` on the kernel, then on the reference engine; both outcomes."""
    assert chain_engine() == "c"
    kernel = run()
    with monkeypatch.context() as patch:
        patch.setattr(ANNEAL, "_chain_kernel", lambda: None)
        assert chain_engine() == "python"
        reference = run()
    return kernel, reference


def assert_same_repr(first, *others):
    """Fail unless every one of ``others`` has the ``repr`` of ``first``.

    A mismatch names the first differing offset and shows a short window of
    both strings there; pytest's own diff of two reprs kilobytes long takes
    minutes.
    """
    expected = repr(first)
    for other in others:
        got = repr(other)
        if got != expected:
            at = len(os.path.commonprefix([expected, got]))
            window = slice(max(at - 60, 0), at + 60)
            pytest.fail(f"reprs differ from offset {at} (lengths {len(expected)} and {len(got)}):"
                        f"\n  {expected[window]!r}\n  {got[window]!r}")


def feasibility_outcome(*args, **kwargs):
    try:
        return find_feasible(*args, **kwargs)
    except InfeasibleError as exc:
        return ("infeasible", str(exc), exc.best_error, exc.best_theta)


def tree_features(tree):
    features = set()
    for node in tree.walk():
        if node.kind is NodeKind.LEAF and node.leaf_cost.count == 0:
            features.add("zero-count leaf")
        if len(node.children) == 1:
            features.add("single-child composite")
        if any(edge.multiplicity.rounding is Rounding.CEIL for edge in node.children):
            features.add("ceil edge")
    return features


def test_engines_agree_on_random_trees(kernel_engine, monkeypatch):
    rng = np.random.default_rng(41)
    features = set()
    trees = 0
    while trees < 40:
        tree, binding, theta = random_tree(rng)
        if binding.dimension == 0:
            continue
        trees += 1
        features |= tree_features(tree)
        compiled = compile_model(tree, binding)
        # targets below, near and above the start point's error: chains that
        # must work for feasibility, and chains that start in cost mode
        target = compiled.evaluate(theta)[1] * float(rng.choice([0.2, 0.9, 3.0]))
        config = AnnealConfig(num_steps=300, restarts=2, seed=trees,
                              delta=float(rng.choice([0.3, 1.5])),
                              beta_max=float(rng.choice([10.0, 200.0])))
        for run in (
            lambda: anneal(compiled, binding, target, config, theta_init=theta),
            lambda: anneal(compiled, binding, target, config, theta_init=theta, max_steps=700),
            lambda: feasibility_outcome(compiled, binding, target, config, theta_init=theta),
        ):
            kernel, reference = on_both_engines(monkeypatch, run)
            assert_same_repr(kernel, reference)
    assert features == {"zero-count leaf", "single-child composite", "ceil edge"}


def test_engines_agree_on_tfim_studies(kernel_engine, monkeypatch):
    tree, binding = build_tfim_model(TfimConfig(n=12), "redundancy", 10)
    config = AnnealConfig(num_steps=2000, restarts=3, seed=9, delta=4.0)
    kernel, reference = on_both_engines(
        monkeypatch, lambda: anneal(tree, binding, 0.1, config, max_steps=4000)
    )
    assert len(kernel.trace) == 4000 and kernel.feasible
    assert_same_repr(kernel, reference)


EXPONENT_PATTERNS = ("repeated", "alternating", "mixed")


def wide_tree(rng, fan_out, pattern):
    """A root over a node of ``fan_out`` children, its binding and a start point.

    The wide node's edge exponents come in runs of equal values
    (``repeated``), alternate between two values (``alternating``) or are
    drawn per edge (``mixed``); about half its edges are CEIL.  Its children
    are leaves, zero-count ones among them, and one composite of three
    leaves.  Leaf slots share 7 groups, so a group's dirty children are
    spread across the node; the first and last child have groups of their
    own.
    """
    if pattern == "repeated":
        exponents = np.repeat([0.5, 1.0, 0.0, 0.5, 2.0], -(-fan_out // 5))[:fan_out]
    elif pattern == "alternating":
        exponents = np.resize([0.5, 1.0], fan_out)
    else:
        exponents = rng.choice([0.0, 0.5, 1.0, 2.0], fan_out)
    groups = {"root": ["root"], "wide": ["wide"], "first": [], "last": []}
    children = []
    for j, exponent in enumerate(exponents.tolist()):
        rounding = Rounding.CEIL if rng.random() < 0.5 else Rounding.CONTINUOUS
        mult = Multiplicity(float(rng.integers(1, 6)), exponent, rounding)
        group = "first" if j == 0 else "last" if j == fan_out - 1 else f"g{j % 7}"
        if j == fan_out // 3:
            kids = [(Multiplicity(2.0, 0.5), BudgetNode.leaf(f"sub{i}", f"sub{i}", LeafCost(
                1.0, 3.0))) for i in range(3)]
            child = BudgetNode.composite(f"node{j}", f"node{j}", kids)
            groups.setdefault(group, []).extend([f"node{j}", "sub0", "sub1", "sub2"])
        else:
            count = int(rng.integers(0, 4))
            child = BudgetNode.leaf(f"leaf{j}", f"leaf{j}" if count else None,
                                    LeafCost(count, float(rng.uniform(0.5, 8.0)), 0.5))
            if count:
                groups.setdefault(group, []).append(f"leaf{j}")
        children.append((mult, child))
    wide = BudgetNode.composite("wide", "wide", children)
    tree = BudgetNode.composite("root", "root", [(Multiplicity(3.0, 1.0), wide)])
    binding = ParameterBinding.from_dict({name: slots for name, slots in groups.items() if slots})
    theta = rng.uniform(0.05, 0.5, binding.dimension)
    return tree, binding, theta


@pytest.mark.parametrize("fan_out", [64, 99, 128])
@pytest.mark.parametrize("pattern", EXPONENT_PATTERNS)
def test_engines_agree_on_wide_nodes(fan_out, pattern, kernel_engine, monkeypatch):
    rng = np.random.default_rng(fan_out * 10 + EXPONENT_PATTERNS.index(pattern))
    tree, binding, theta = wide_tree(rng, fan_out, pattern)
    compiled = compile_model(tree, binding)
    assert any(compiled.ceil) and not all(compiled.ceil)
    start_error = compiled.evaluate(theta)[1]
    config = AnnealConfig(num_steps=1500, seed=fan_out, delta=1.0, beta_max=300.0)
    for target in (0.5 * start_error, 3.0 * start_error):
        kernel, reference = on_both_engines(
            monkeypatch, lambda: anneal(compiled, binding, target, config, theta_init=theta,
                                        max_steps=2500))
        assert_same_repr(kernel, reference)
        if target < start_error:  # the chain rejects steps in both modes
            trace = kernel.trace
            assert {mode for mode, accepted in zip(trace.cost_mode, trace.accepted)
                    if not accepted} == {False, True}
    for target in (0.5 * start_error, 1e-6 * start_error):  # reached, and not
        kernel, reference = on_both_engines(
            monkeypatch, lambda: feasibility_outcome(compiled, binding, target, config,
                                                     theta_init=theta))
        assert_same_repr(kernel, reference)


def test_partial_sums_carry_across_slices(kernel_engine, monkeypatch):
    # the running sums of a slice's last step are where the next slice starts
    rng = np.random.default_rng(5)
    tree, binding, theta = wide_tree(rng, 99, "repeated")
    config = AnnealConfig(num_steps=1000, seed=2, delta=1.5, beta_max=100.0)
    target = compile_model(tree, binding).evaluate(theta)[1] * 0.5

    def run():
        return (anneal(tree, binding, target, config, theta_init=theta, max_steps=1700),
                feasibility_outcome(tree, binding, target, config, theta_init=theta))

    whole = run()
    monkeypatch.setattr(ANNEAL, "_SLICE_STEPS", 7)
    kernel, reference = on_both_engines(monkeypatch, run)
    assert_same_repr(kernel, reference, whole)


def overflow_chain(depth=40):
    """``depth`` nested ``10 eps^-8`` multiplicities: cost and error overflow to inf."""
    node = BudgetNode.leaf("gate", "leaf", LeafCost(1.0, 1.0))
    for level in range(depth):
        node = BudgetNode.composite(f"level{level}", f"c{level}", [(Multiplicity(10.0, 8.0), node)])
    slots = [f"c{level}" for level in range(depth)] + ["leaf"]
    return node, ParameterBinding.from_dict({"eps": slots})


def test_overflowing_model_agrees_and_stays_silent(kernel_engine, monkeypatch):
    tree, binding = overflow_chain()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel, reference = on_both_engines(
            monkeypatch, lambda: anneal(tree, binding, 0.1, AnnealConfig(num_steps=2000))
        )
    assert_same_repr(kernel, reference)
    assert kernel.acceptance_rate == 0.0
    assert not kernel.feasible
    assert kernel.min_error == np.inf


def declared_table() -> dict:
    """The pointer fields of ``struct table`` in ``_chain.c``, with their element dtypes."""
    dtypes = {"int64_t": np.int64, "int8_t": np.int8, "double": np.float64}
    source = (ROOT / "src" / "errorbudget" / "_chain.c").read_text()
    body = re.search(r"struct table \{(.*?)\};", source, re.S).group(1)
    return {
        name: dtypes[ctype]
        for ctype, names in re.findall(r"const (\w+) \*(\w+(?:, \*\w+)*);", body)
        for name in names.split(", *")
    }


def table_models():
    rng = np.random.default_rng(43)
    models = [pytest.param(*random_tree(rng)[:2], id=f"random-{i}") for i in range(4)]
    leaf = BudgetNode.leaf("gate", "eps", LeafCost(3.0, 4.0))
    noop = BudgetNode.leaf("noop", None, LeafCost(0.0, 4.0))
    return models + [
        pytest.param(leaf, ParameterBinding.from_dict({"eps": ["eps"]}), id="edgeless-root"),
        pytest.param(BudgetNode.composite("root", None, [(Multiplicity(2.0), noop)]),
                     ParameterBinding.from_dict({}), id="dimension-0"),
    ]


@pytest.mark.parametrize("tree, binding", table_models())
def test_kernel_reads_compiled_arrays_of_the_declared_layout(
    tree, binding, kernel_engine, monkeypatch
):
    # the kernel trusts these pointers: a wrong dtype, stride or length
    # would corrupt memory without an error
    compiled = compile_model(tree, binding)
    declared = declared_table()
    fields = [name for name, kind in ANNEAL._Table._fields_ if kind is ctypes.c_void_p]
    assert fields == list(declared)
    n, edges = compiled.n_nodes, int(compiled.kid_ptr[-1])
    sizes = dict(slot=n, needs_eps=n, has_law=n, law=3 * n, kid_ptr=n + 1, kid=edges,
                 coeff=edges, nexp=edges, ceil=edges, dirty_ptr=compiled.dimension + 1,
                 dirty=int(compiled.dirty_ptr[-1]), dirty_from=int(compiled.dirty_ptr[-1]))
    for name in fields:
        array = getattr(compiled, name)
        assert isinstance(array, np.ndarray), name
        assert array.dtype == declared[name], name
        assert array.flags.c_contiguous and array.size == sizes[name], name
    # each dirty node's first edge into a child dirty for the same group
    kid_ptr, ptr = compiled.kid_ptr.tolist(), compiled.dirty_ptr.tolist()
    for k in range(compiled.dimension):
        dirty = compiled.dirty[ptr[k]:ptr[k + 1]].tolist()
        expected = [next((j for j in range(kid_ptr[i], kid_ptr[i + 1]) if j + 1 in dirty),
                         kid_ptr[i + 1]) for i in dirty]
        assert compiled.dirty_from[ptr[k]:ptr[k + 1]].tolist() == expected
    config = AnnealConfig(num_steps=200, restarts=2)
    kernel, reference = on_both_engines(
        monkeypatch, lambda: anneal(compiled, binding, 1.0, config)
    )
    assert_same_repr(kernel, reference)


def test_one_table_per_compiled_model(kernel_engine, monkeypatch):
    built = []

    class CountedTable(ANNEAL._Table):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ANNEAL, "_Table", CountedTable)
    tree, binding = build_tfim_model(TfimConfig(n=6), "redundancy", 2)
    compiled = compile_model(tree, binding)
    first = anneal(compiled, binding, 0.1, AnnealConfig(num_steps=300, restarts=3))
    assert len(built) == 1
    again = anneal(compiled, binding, 0.1, AnnealConfig(num_steps=300, restarts=3))
    assert len(built) == 1
    assert_same_repr(first, again)
    # the table goes with its model
    model = weakref.ref(compiled)
    del compiled
    gc.collect()
    assert model() is None


def test_fallback_without_compiler(kernel_engine, monkeypatch, tmp_path, caplog):
    tree, binding = build_tfim_model(TfimConfig(n=6))
    config = AnnealConfig(num_steps=500, restarts=3, seed=5)
    expected = anneal(tree, binding, 0.05, config)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # an empty cache
    monkeypatch.setattr(ANNEAL, "_find_compiler", lambda: None)
    ANNEAL._chain_kernel.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="errorbudget"):
            results = [anneal(tree, binding, 0.05, config) for _ in range(2)]
        assert chain_engine() == "python"
    finally:
        ANNEAL._chain_kernel.cache_clear()
    [record] = [r for r in caplog.records if r.name == "errorbudget"]
    assert "no C compiler" in record.getMessage()
    assert "Python chain engine" in record.getMessage()
    assert_same_repr(expected, *results)


def test_fallback_without_home_directory(kernel_engine, monkeypatch, caplog):
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    tree, binding = build_tfim_model(TfimConfig(n=6))
    config = AnnealConfig(num_steps=500, restarts=3, seed=5)
    expected = anneal(tree, binding, 0.05, config)
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(Path, "home", no_home)
    ANNEAL._chain_kernel.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="errorbudget"):
            results = [anneal(tree, binding, 0.05, config) for _ in range(2)]
        assert chain_engine() == "python"
    finally:
        ANNEAL._chain_kernel.cache_clear()
    [record] = [r for r in caplog.records if r.name == "errorbudget"]
    assert "home directory" in record.getMessage()
    assert_same_repr(expected, *results)


def test_kernel_builds_where_os_has_no_getuid(kernel_engine, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # an empty cache
    monkeypatch.delattr(os, "getuid")
    ANNEAL._chain_kernel.cache_clear()
    try:
        assert chain_engine() == "c"
    finally:
        ANNEAL._chain_kernel.cache_clear()


def test_cache_reuses_and_rebuilds(kernel_engine, monkeypatch, tmp_path):
    builds = []
    compile_kernel = ANNEAL._compile_kernel

    def counted(*args):
        builds.append(args[-1])
        compile_kernel(*args)

    def load(cache: Path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        ANNEAL._chain_kernel.cache_clear()
        return ANNEAL._chain_kernel()

    monkeypatch.setattr(ANNEAL, "_compile_kernel", counted)
    tree, binding = build_tfim_model(TfimConfig(n=6))
    config = AnnealConfig(num_steps=500, seed=5)
    expected = anneal(tree, binding, 0.05, config)
    try:
        assert load(tmp_path / "a") is not None
        directory = tmp_path / "a" / "errorbudget"
        [library] = directory.iterdir()  # no temporary file left behind
        assert stat.S_IMODE(directory.stat().st_mode) == 0o700
        assert load(tmp_path / "a") is not None
        assert builds == [library]

        # a truncated library, say from a full disk, is rebuilt; a directory
        # readable by others is made private
        stale = tmp_path / "b" / "errorbudget" / library.name
        stale.parent.mkdir(parents=True)
        stale.parent.chmod(0o755)
        stale.write_bytes(library.read_bytes()[:64])
        assert load(tmp_path / "b") is not None
        assert builds == [library, stale]
        assert stale.stat().st_size > 64
        assert stat.S_IMODE(stale.parent.stat().st_mode) == 0o700
        assert_same_repr(expected, anneal(tree, binding, 0.05, config))
    finally:
        ANNEAL._chain_kernel.cache_clear()


def test_build_keeps_the_most_recently_used_builds(kernel_engine, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    directory = tmp_path / "errorbudget"
    directory.mkdir(mode=0o700)
    old_builds = [directory / f"_chain-{i:016x}.so" for i in range(5)]
    for age, build in enumerate(old_builds):  # old_builds[0] used last
        build.write_bytes(b"a build of another source")
        os.utime(build, (1e9 - age, 1e9 - age))
    unrelated = directory / "notes.txt"
    unrelated.write_text("not a build")
    ANNEAL._chain_kernel.cache_clear()
    try:
        assert chain_engine() == "c"
        [library] = set(directory.glob("_chain-*.so")) - set(old_builds)
        kept = sorted(directory.glob("_chain-*.so"))
        assert kept == sorted([library, *old_builds[:ANNEAL._KEPT_BUILDS - 1]])
        assert unrelated.exists()

        # loading the cached build removes nothing and marks it used now
        os.utime(library, (1e9 - 10, 1e9 - 10))
        ANNEAL._chain_kernel.cache_clear()
        assert chain_engine() == "c"
        assert sorted(directory.glob("_chain-*.so")) == kept
        assert library.stat().st_mtime > 1e9
    finally:
        ANNEAL._chain_kernel.cache_clear()


def test_alternating_sources_build_each_once(kernel_engine, monkeypatch, tmp_path):
    # two checkouts whose sources differ share one cache; a define stands in
    # for the second source, as it changes the build key the same way
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    builds = []
    compile_kernel = ANNEAL._compile_kernel

    def counted(*args):
        builds.append(args[-1])
        compile_kernel(*args)

    monkeypatch.setattr(ANNEAL, "_compile_kernel", counted)
    flags = {"a": ANNEAL._CFLAGS, "b": (*ANNEAL._CFLAGS, "-DERRORBUDGET_OTHER_SOURCE")}
    try:
        for source in "ababab":
            monkeypatch.setattr(ANNEAL, "_CFLAGS", flags[source])
            ANNEAL._chain_kernel.cache_clear()
            assert chain_engine() == "c"
    finally:
        ANNEAL._chain_kernel.cache_clear()
    assert len(builds) == len(set(builds)) == 2


def test_ctrl_c_stops_a_long_chain(kernel_engine):
    # the kernel returns to Python between slices, where Ctrl-C is raised
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import signal\n"
         "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
         "from errorbudget import AnnealConfig, anneal, build_tfim_model, TfimConfig\n"
         "tree, binding = build_tfim_model(TfimConfig(n=10))\n"
         "anneal(tree, binding, 0.1, AnnealConfig(num_steps=50), record_trace=False)\n"
         "print('running', flush=True)\n"
         "anneal(tree, binding, 1e-30, AnnealConfig(num_steps=10**9), record_trace=False)\n"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    try:
        assert proc.stdout.readline() == "running\n"
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        _, stderr = proc.communicate(timeout=30)
        waited = time.monotonic() - sent
    finally:
        proc.kill()
        proc.wait()
    assert "KeyboardInterrupt" in stderr, stderr[-2000:]
    assert proc.returncode != 0
    assert waited < 5


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 2, 2**130 + 5])
def test_kernel_stream_is_seeded_as_default_rng(seed):
    # 2**130 + 5 has five 32-bit words, one more than SeedSequence's pool
    state = np.random.default_rng(seed).bit_generator.state["state"]
    assert ANNEAL._pcg64_seeded(seed) == (state["state"], state["inc"])
    if seed < 2**63:  # AnnealConfig takes numpy integers too
        assert ANNEAL._pcg64_seeded(np.int64(seed)) == (state["state"], state["inc"])
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ANNEAL._pcg64_seeded(-1 - seed)


def test_chains_leave_numpy_random_unimported(kernel_engine):
    # numpy.random, and OpenSSL through its secrets import, cost several MB of
    # resident memory that the kernel's own stream does without
    proc = run_python(
        "import sys\n"
        "from errorbudget import (AnnealConfig, anneal, as_ceiled, build_tfim_model,\n"
        "                         TfimConfig, total_cost)\n"
        "from errorbudget.anneal import chain_engine\n"
        "tree, binding = build_tfim_model(TfimConfig(n=10))\n"
        "result = anneal(tree, binding, 0.1, AnnealConfig(num_steps=1000, restarts=2, delta=2.0))\n"
        "total_cost(as_ceiled(tree), binding, result.best_theta)\n"
        "assert chain_engine() == 'c'\n"
        "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("high", [2**63 - 1, 2**40 + 7, 2**62 + 2**61 + 12345])
def test_seed_stream_draws_as_default_rng_integers(high):
    # the last bound rejects about a quarter of the 64-bit words drawn
    words = []

    class CountedStream(ANNEAL._SeedStream):
        def _next64(self):
            words.append(1)
            return super()._next64()

    draws = 0
    for seed in [*range(300), 2**32, 2**63 - 2, 2**130 + 5]:
        rng, stream = np.random.default_rng(seed), CountedStream(seed)
        expected = [int(rng.integers(0, high)) for _ in range(8)]
        assert [stream.integers(0, high) for _ in range(8)] == expected, seed
        draws += 8
    assert np.random.default_rng(7).integers(3, high) == ANNEAL._SeedStream(7).integers(3, high)
    rejected = 1 - draws / len(words)  # the share of words drawn that were rejected
    assert (0.2 < rejected < 0.3) if high == 2**62 + 2**61 + 12345 else rejected < 0.01


@pytest.mark.parametrize("low, high", [(0, 2**32), (0, 2**63 + 1), (-1, 2**40), (5, 4)])
def test_seed_stream_refuses_ranges_it_would_draw_differently(low, high):
    with pytest.raises(ValueError, match="more than 2\\*\\*32 values"):
        ANNEAL._SeedStream(1).integers(low, high)


def test_tuned_runs_leave_numpy_random_unimported(kernel_engine, tmp_path):
    # the tuner's pilot seeds come from the package's own PCG64 stream
    model = tmp_path / "m6.json"
    proc = run_python(
        "import sys\n"
        "from errorbudget.cli import main\n"
        f"main(['model', 'tfim', '--n', '6', '--out', {str(model)!r}])\n"
        f"main(['experiment', 'redundancy', '--out', {str(tmp_path / 'r.csv')!r}, '--n', '6',\n"
        "      '--redundancies', '0,3', '--steps', '300', '--restarts', '2'])\n"
        "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))\n"
        f"main(['optimize', {str(model)!r}, '--epsilon', '0.1', '--steps', '300',\n"
        "      '--tune-delta'])\n"
        "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))\n",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("wrote ") and lines[2] == "[]"
    assert lines[-1] == "[]" and '"feasible": true' in proc.stdout


def run_python(code: str, **env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env},
    )


def test_import_builds_nothing_and_fallback_says_so_once(tmp_path):
    cache = tmp_path / "cache"
    proc = run_python(
        "import errorbudget, errorbudget.cli, errorbudget.experiments\n"
        "from pathlib import Path\n"
        f"assert not Path({str(cache)!r}).exists()\n"
        "from errorbudget import AnnealConfig, anneal, build_tfim_model, TfimConfig\n"
        "tree, binding = build_tfim_model(TfimConfig(n=6))\n"
        "for seed in (1, 2):\n"
        "    anneal(tree, binding, 0.05, AnnealConfig(num_steps=50, restarts=2, seed=seed))\n",
        XDG_CACHE_HOME=str(cache), PATH="",  # no compiler to be found
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("Python chain engine") == 1, proc.stderr


def test_pinned_chains_do_not_depend_on_the_blas_kernel():
    # The reference engine once summed with BLAS ddot, whose last bit depends
    # on the vector kernel OpenBLAS picks for the host; neither engine may.
    # Without a compiler the kernel halves of the pinned tests skip.
    expected = "6 passed" if ANNEAL._find_compiler() else "3 passed, 3 skipped"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", "pinned",
         "tests/test_experiments.py::TestRedundancy", "tests/test_anneal.py::TestAnneal"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert expected in proc.stdout, proc.stdout[-3000:]
