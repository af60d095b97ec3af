"""Seeded inputs of the benchmark workloads: model files, configs and job lists.

The job list of a workload is drawn from its seed alone.  The program under
test only ever sees what :func:`write_inputs` leaves in the input directory:
model files written with ``save_model``, annealing configs written as
``AnnealConfig`` JSON, and ``jobs.json``.

Run as a script, this module is one timed set-up round::

    python3 perfbench/inputs.py --workload optimize-small --seed 1 --out DIR

It imports the package, builds and validates every model, writes the inputs
and prints ``{"setup_s": ...}``, the time from before the first import to the
last file written.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("optimize-small", "study-redundancy", "oracle-verify")

# optimize-small: n=10 models, 13 log-spaced targets from 1e-1 to 1e-4,
# each (preset, target) pair run OPTIMIZE_REPEATS times with its own seed
OPTIMIZE_PRESETS = ("three_param", "two_param")
OPTIMIZE_TARGETS = tuple(10.0 ** (-1 - j / 4) for j in range(13))
OPTIMIZE_REPEATS = 5
OPTIMIZE_ANNEAL = {"num_steps": 1000, "restarts": 2, "delta": 2.0}

# study-redundancy: one row per run_experiment call, k jittered around fixed
# centres so that every seed spans 0..100 with about the same total work.
# Below k=37 a redundancy row's budget is the 40k floor, so the four low rows
# cost about the same and the median job is one of them; the k~98 row holds
# half the pass, as the top rows do in the full study.  Runtime rows stop at
# feasibility, a random step count, so they stay few and low.
STUDY_TARGET = 1e-1
STUDY_N = 30
STUDY_ROWS = (  # (study kind, k centres, restarts)
    ("redundancy", (2, 10, 18, 26, 98), 1),
    ("runtime", (15, 40), 2),
)
STUDY_JITTER = 2

# oracle-verify
ORACLE_TARGETS = (1e-1, 5e-2, 3e-2, 2e-2, 1e-2)
ORACLE_GRID3_POINTS = 50
ORACLE_GRID3_REPEATS = 8
ORACLE_GRID4_POINTS = 20
ORACLE_GRID4_REPEATS = 4
ORACLE_LEMMA_LENGTHS = tuple(range(2, 11))
ORACLE_LEMMA_DIMENSIONS = (2, 4, 8)
ORACLE_LEMMA_REPEATS = 4
ORACLE_LEMMA_TRIALS = 20
ORACLE_TROTTER_NS = (3, 4, 5, 6)
ORACLE_TROTTER_REPEATS = 4
TROTTER_STEP_COUNTS = (8, 16, 32, 64, 128)
ORACLE_ROUNDTRIPS = 40


def redundancy_model(k: int) -> str:
    return f"models/tfim{STUDY_N}-redundancy-k{k}.json"


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def plan(workload: str, seed: int) -> dict:
    """Models to build, configs to write and the job list, all from ``seed``.

    Models are ``(path, n, preset, k)``.  Configs map a path to ``(study kind,
    overrides)``: keyword overrides of that study's default ``AnnealConfig``,
    or of ``AnnealConfig()`` when the kind is ``None``.
    """
    rng = random.Random(seed)
    models: list[tuple[str, int, str, int]] = []
    configs: dict[str, tuple[str | None, dict]] = {}
    jobs: list[dict] = []
    if workload == "optimize-small":
        configs["configs/optimize.json"] = (None, dict(OPTIMIZE_ANNEAL))
        for preset in OPTIMIZE_PRESETS:
            models.append((f"models/tfim10-{preset}.json", 10, preset, 0))
            for eps in OPTIMIZE_TARGETS:
                for _ in range(OPTIMIZE_REPEATS):
                    jobs.append({
                        "kind": "optimize", "preset": preset,
                        "model": f"models/tfim10-{preset}.json",
                        "config": "configs/optimize.json", "epsilon": eps, "seed": _seed(rng),
                    })
    elif workload == "study-redundancy":
        for kind, centres, restarts in STUDY_ROWS:
            for centre in centres:
                k = min(max(centre + rng.randint(-STUDY_JITTER, STUDY_JITTER), 0), 100)
                config = f"configs/{kind}-k{k}.json"
                configs[config] = (kind, {"restarts": restarts, "seed": _seed(rng)})
                if (redundancy_model(k), STUDY_N, "redundancy", k) not in models:
                    models.append((redundancy_model(k), STUDY_N, "redundancy", k))
                jobs.append({
                    "kind": kind, "k": k, "epsilon": STUDY_TARGET, "config": config,
                    "model": redundancy_model(k), "out": f"out/{kind}-k{k}.csv",
                })
    elif workload == "oracle-verify":
        models += [
            ("models/tfim10-three_param.json", 10, "three_param", 0),
            ("models/tfim10-redundancy-k1.json", 10, "redundancy", 1),
            (redundancy_model(100), STUDY_N, "redundancy", 100),
        ]
        for eps in ORACLE_TARGETS:
            for points, model, repeats in (
                (ORACLE_GRID3_POINTS, "models/tfim10-three_param.json", ORACLE_GRID3_REPEATS),
                (ORACLE_GRID4_POINTS, "models/tfim10-redundancy-k1.json", ORACLE_GRID4_REPEATS),
            ):
                jobs += [{"kind": "grid", "model": model, "epsilon": eps, "points": points}] * repeats
        for length in ORACLE_LEMMA_LENGTHS:
            for dimension in ORACLE_LEMMA_DIMENSIONS:
                for _ in range(ORACLE_LEMMA_REPEATS):
                    jobs.append({
                        "kind": "lemma1", "length": length, "dimension": dimension,
                        "epsilons": [10.0 ** rng.uniform(-4, -1) for _ in range(length)],
                        "trials": ORACLE_LEMMA_TRIALS, "seed": _seed(rng),
                    })
        for n in ORACLE_TROTTER_NS:
            for order in ("first", "second"):
                jobs += [{"kind": "trotter", "n": n, "order": order,
                          "step_counts": list(TROTTER_STEP_COUNTS)}] * ORACLE_TROTTER_REPEATS
        jobs += [{"kind": "roundtrip", "model": redundancy_model(100),
                  "copy": "out/roundtrip.json"}] * ORACLE_ROUNDTRIPS
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(jobs)
    return {"models": models, "configs": configs, "jobs": jobs}


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Build, validate and save every model, then write configs and jobs."""
    from dataclasses import replace

    tfim = importlib.import_module("errorbudget.tfim")
    model = importlib.import_module("errorbudget.model")
    modelio = importlib.import_module("errorbudget.modelio")
    anneal = importlib.import_module("errorbudget.anneal")
    experiments = importlib.import_module("errorbudget.experiments")

    spec = plan(workload, seed)
    for sub in ("models", "configs", "out"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for path, n, preset, k in spec["models"]:
        tree, binding = tfim.build_tfim_model(tfim.TfimConfig(n=n), preset, k)
        report = model.validate_model(tree, binding)
        if not report.ok:
            raise model.ModelError(f"{path}: " + "; ".join(report.violations))
        modelio.save_model(tree, binding, out / path)
    for path, (kind, overrides) in spec["configs"].items():
        if kind is None:
            base = anneal.AnnealConfig()
        else:
            base = experiments.default_spec(kind, "unused.csv").anneal
        config = replace(base, **overrides)
        (out / path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")
    (out / "jobs.json").write_text(json.dumps(spec["jobs"], indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    importlib.import_module("errorbudget")
    write_inputs(args.workload, args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - started}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
