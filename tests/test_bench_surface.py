"""The traced benchmark's hooks still fit the package.

``perfbench/tracing.py`` wraps package functions at the module attributes
where callers look them up.  A refactor that drops or renames one of those
attributes would otherwise only show up in a manual traced benchmark run, so
this installs the tracer and runs one tiny item of each kind the benchmark
traces.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from errorbudget.anneal import AnnealConfig
from errorbudget.tfim import TfimConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# module objects (the package namespace exports a function named ``anneal``)
MODULES = {name: importlib.import_module(f"errorbudget.{name}")
           for name in ("tfim", "modelio", "model", "anneal", "experiments", "normlab")}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_items_reach_every_layer(tracing, tmp_path, monkeypatch):
    anneal, experiments, tfim = MODULES["anneal"], MODULES["experiments"], MODULES["tfim"]
    normlab = MODULES["normlab"]
    original = experiments.anneal
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        experiments.run_experiment(experiments.default_spec(
            "redundancy", tmp_path / "redundancy.csv", tfim=TfimConfig(n=6), redundancies=(2,),
            anneal=AnnealConfig(num_steps=300, restarts=1, auto_delta=True),
            optimize_max_steps=300,
        ))
        experiments.run_experiment(experiments.default_spec(
            "runtime", tmp_path / "runtime.csv", tfim=TfimConfig(n=6), redundancies=(2,),
            anneal=AnnealConfig(num_steps=300, restarts=1), feasibility_max_steps=3000,
        ))
        tree, binding = tfim.build_tfim_model(TfimConfig(n=6))
        anneal.anneal(tree, binding, 0.1, AnnealConfig(num_steps=200))
        axis = anneal.log_grid(1e-12, 1.0, 8)
        anneal.grid_search_reference(tree, binding, 0.1, [axis] * 3)
        normlab.verify_composition_bound(3, 4, 0.01, 5, np.random.default_rng(0))
        spec = normlab.IsingEvolutionSpec.uniform(3, 1.0, 1.0, 1.0, 8)
        normlab.trotter_error_sweep(spec, [8, 16])
        # chains run in the compiled kernel; the reference engine is the one
        # that drives a ChainEvaluator, so run one chain there
        with monkeypatch.context() as patch:
            patch.setattr(anneal, "_chain_kernel", lambda: None)
            anneal.anneal(tree, binding, 0.1, AnnealConfig(num_steps=50))
    assert experiments.anneal is original
    for name in ("experiments.run", "tfim.build", "model.validate", "model.compile",
                 "anneal.anneal", "anneal.find_feasible", "anneal.tune_delta",
                 "anneal.measure_acceptance", "anneal.grid", "model.chain_update",
                 "normlab.lemma1", "normlab.trotter"):
        assert tracer.calls[name] > 0, name


def test_model_files_are_traced_through_their_path(tracing, tmp_path):
    # the tracer counts file bytes through the ``path`` argument of both calls
    modelio, tfim = MODULES["modelio"], MODULES["tfim"]
    tree, binding = tfim.build_tfim_model(TfimConfig(n=6), "redundancy", 2)
    path = tmp_path / "model.json"
    tracer = tracing.Tracer()
    with tracer.installed(MODULES):
        modelio.save_model(tree, binding, path=path)
        modelio.load_model(path)
    assert tracer.calls["modelio.save"] == tracer.calls["modelio.load"] == 1
    assert tracer.counts["modelio.bytes"] == 2 * path.stat().st_size > 0
