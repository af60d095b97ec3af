"""The compiled chain kernel against the Python reference engine.

Both engines do the same IEEE-754 operations in the same order, so every
chain must agree bit for bit: results, run summaries and traces are compared
through ``repr``, which spells out every float exactly (and NaN equal to
itself).
"""

import ctypes
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
            assert repr(kernel) == repr(reference)
    assert features == {"zero-count leaf", "single-child composite", "ceil edge"}


def test_engines_agree_on_tfim_studies(kernel_engine, monkeypatch):
    tree, binding = build_tfim_model(TfimConfig(n=12), "redundancy", 10)
    config = AnnealConfig(num_steps=2000, restarts=3, seed=9, delta=4.0)
    kernel, reference = on_both_engines(
        monkeypatch, lambda: anneal(tree, binding, 0.1, config, max_steps=4000)
    )
    assert len(kernel.trace) == 4000 and kernel.feasible
    assert repr(kernel) == repr(reference)


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
    assert repr(kernel) == repr(reference)
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
                 dirty=int(compiled.dirty_ptr[-1]))
    for name in fields:
        array = getattr(compiled, name)
        assert isinstance(array, np.ndarray), name
        assert array.dtype == declared[name], name
        assert array.flags.c_contiguous and array.size == sizes[name], name
    config = AnnealConfig(num_steps=200, restarts=2)
    kernel, reference = on_both_engines(
        monkeypatch, lambda: anneal(compiled, binding, 1.0, config)
    )
    assert repr(kernel) == repr(reference)


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
    assert all(repr(result) == repr(expected) for result in results)


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
    assert all(repr(result) == repr(expected) for result in results)


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
        assert repr(anneal(tree, binding, 0.05, config)) == repr(expected)
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
