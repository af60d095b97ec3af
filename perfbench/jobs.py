"""What one job of each kind runs, and the independent check of its output.

Runners call the package through module attributes looked up at call time,
so the traced run's wrappers see every call.  Checks run after the pass,
outside every timer and with tracing off, and take another path to the
answer than the job did: the recursive evaluators for annealed points, the
CSV text for study rows, pinned values for the grid oracle, the file itself
for model round trips.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import inputs as plan_inputs

REL = 1e-9
# grid optima of test_06: n=10 three_param on log_grid(1e-12, 1, 50) per axis
PINNED_GRID = {1e-1: 697097954.105995, 1e-2: 80530669879.883}
SLOPE_WINDOWS = {"first": (-1.2, -0.8), "second": (-2.2, -1.8)}  # test_03
GRID_LO = 1e-12


@dataclass(frozen=True)
class Check:
    ok: bool
    search: bool = False  # a job that searches for a feasible point
    feasible: bool = False  # ... and returned one that passed its check
    cost_ratio: float | None = None
    note: str = ""


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---- runners -------------------------------------------------------------


def run_optimize(eb, job, root: Path):
    """``errorbudget optimize MODEL --epsilon E --config C --seed S``, in process."""
    tree, binding = eb["modelio"].load_model(root / job["model"])
    report = eb["model"].validate_model(tree, binding)
    if not report.ok:
        raise eb["model"].ModelError("; ".join(report.violations))
    config = eb["anneal"].AnnealConfig.from_json(root / job["config"])
    config = replace(config, seed=job["seed"])
    result = eb["anneal"].anneal(tree, binding, job["epsilon"], config)
    output = result.to_dict()
    output["trace_records"] = len(result.trace)
    if result.feasible:
        ceiled = eb["model"].as_ceiled(tree)
        output["best_cost_ceil"] = eb["model"].total_cost(ceiled, binding, result.best_theta)
        output["best_error_ceil"] = eb["model"].total_error(ceiled, binding, result.best_theta)
    return output


def run_study(eb, job, root: Path):
    """One row of the redundancy or runtime study, as its own experiment."""
    config = eb["anneal"].AnnealConfig.from_json(root / job["config"])
    spec = eb["experiments"].default_spec(
        job["kind"], root / job["out"], targets=(job["epsilon"],),
        redundancies=(job["k"],), anneal=config,
    )
    result = eb["experiments"].run_experiment(spec)
    return {"csv": result.csv_path, "meta": result.metadata_path}


def run_grid(eb, job, root: Path):
    tree, binding = eb["modelio"].load_model(root / job["model"])
    axis = eb["anneal"].log_grid(GRID_LO, 1.0, job["points"])
    theta, cost = eb["anneal"].grid_search_reference(
        tree, binding, job["epsilon"], [axis] * binding.dimension
    )
    return {"theta": list(theta.values), "cost": cost}


def run_lemma1(eb, job, root: Path):
    rng = np.random.default_rng(job["seed"])
    return eb["normlab"].verify_composition_bound(
        job["length"], job["dimension"], job["epsilons"], job["trials"], rng
    )


def run_trotter(eb, job, root: Path):
    counts = job["step_counts"]
    spec = eb["normlab"].IsingEvolutionSpec.uniform(job["n"], 1.0, 1.0, 1.0, counts[0], job["order"])
    return eb["normlab"].trotter_error_sweep(spec, counts)


def run_roundtrip(eb, job, root: Path):
    before = eb["modelio"].load_model(root / job["model"])
    eb["modelio"].save_model(*before, root / job["copy"])
    return before, eb["modelio"].load_model(root / job["copy"])


RUNNERS = {
    "optimize": run_optimize,
    "redundancy": run_study,
    "runtime": run_study,
    "grid": run_grid,
    "lemma1": run_lemma1,
    "trotter": run_trotter,
    "roundtrip": run_roundtrip,
}


# ---- checks --------------------------------------------------------------


class Checker:
    """Checks job outputs; caches models and references across jobs."""

    def __init__(self, eb, workload: str, seed: int, root: Path, references: dict) -> None:
        self.eb = eb
        self.root = root
        self.references = references
        self.model_keys = {
            path: (n, preset, k) for path, n, preset, k in plan_inputs.plan(workload, seed)["models"]
        }
        self._models: dict[str, tuple] = {}
        self._ceiled: dict[str, object] = {}
        self._grid3_cache: dict[tuple, float] = {}

    def model(self, path: str):
        if path not in self._models:
            self._models[path] = self.eb["modelio"].load_model(self.root / path)
        return self._models[path]

    def reference(self, n: int, preset: str, k: int, eps: float) -> float:
        return self.references[f"{n}/{preset}/{k}/{eps!r}"]["cost"]

    def _recursive(self, path: str, theta) -> tuple[float, float]:
        tree, binding = self.model(path)
        m = self.eb["model"]
        return m.total_cost(tree, binding, theta), m.total_error(tree, binding, theta)

    def check(self, job: dict, output) -> Check:
        if isinstance(output, Exception):
            return Check(False, note=f"{job['kind']} raised {type(output).__name__}: {output}")
        try:
            return getattr(self, f"_check_{job['kind']}")(job, output)
        except (KeyError, ValueError, TypeError, OSError) as exc:
            return Check(False, note=f"{job['kind']} output unreadable: {exc!r}")

    def _check_optimize(self, job, out) -> Check:
        if not out["feasible"]:
            return Check(True, search=True, note="infeasible")
        eps = job["epsilon"]
        theta = out["best_theta"]
        cost, error = self._recursive(job["model"], theta)
        if job["model"] not in self._ceiled:
            tree, binding = self.model(job["model"])
            self._ceiled[job["model"]] = self.eb["model"].compile_model(
                self.eb["model"].as_ceiled(tree), binding
            )
        ceil_cost, ceil_error = self._ceiled[job["model"]].evaluate(theta)
        steps = self.eb["anneal"].AnnealConfig.from_json(self.root / job["config"]).num_steps
        ok = (
            _close(cost, out["best_cost"]) and _close(error, out["best_error"]) and error <= eps
            and _close(ceil_cost, out["best_cost_ceil"])
            and _close(ceil_error, out["best_error_ceil"])
            and out["trace_records"] == steps
        )
        ref = self.reference(*self.model_keys[job["model"]], eps)
        return Check(ok, True, ok, out["best_cost"] / ref, "" if ok else "optimize mismatch")

    def _read_row(self, job, out) -> dict:
        meta = json.loads(Path(out["meta"]).read_text())
        if meta["kind"] != job["kind"] or meta["redundancies"] != [job["k"]]:
            raise ValueError(f"metadata describes {meta['kind']} {meta['redundancies']}")
        with open(out["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            raise ValueError(f"{len(rows)} CSV rows, expected 1")
        return rows[0]

    def _check_redundancy(self, job, out) -> Check:
        row = self._read_row(job, out)
        if int(row["k_redundant"]) != job["k"]:
            return Check(False, note=f"row for k={row['k_redundant']}, expected {job['k']}")
        if row["flagged"] != "0":
            return Check(True, search=True, note="flagged infeasible")
        theta = [float(v) for v in row["theta"].split(";")]
        cost, error = self._recursive(job["model"], theta)
        ok = (
            len(theta) == job["k"] + 3 and error <= job["epsilon"]
            and _close(cost, float(row["best_cost"])) and _close(error, float(row["best_error"]))
        )
        ref = self.reference(plan_inputs.STUDY_N, "three_param", 0, job["epsilon"])
        return Check(ok, True, ok, float(row["best_cost"]) / ref, "" if ok else "row mismatch")

    def _check_runtime(self, job, out) -> Check:
        row = self._read_row(job, out)
        budget = json.loads(Path(out["meta"]).read_text())["feasibility_max_steps"]
        ok = (
            int(row["k_redundant"]) == job["k"] and int(row["num_params"]) == job["k"] + 3
            and row["runs_failed"] == "0"
            and 0 < float(row["median_steps_to_feasible"]) <= budget
            and float(row["median_wall_time"]) > 0
        )
        return Check(ok, note="" if ok else f"runtime row {row}")

    def _grid3(self, eps: float, points: int) -> float:
        """Three-parameter grid optimum on the same axis, for the dim-4 check."""
        key = (eps, points)
        if key not in self._grid3_cache:
            tree, binding = self.model("models/tfim10-three_param.json")
            axis = self.eb["anneal"].log_grid(GRID_LO, 1.0, points)
            self._grid3_cache[key] = self.eb["anneal"].grid_search_reference(
                tree, binding, eps, [axis] * 3
            )[1]
        return self._grid3_cache[key]

    def _check_grid(self, job, out) -> Check:
        eps, points = job["epsilon"], job["points"]
        n, preset, k = self.model_keys[job["model"]]
        cost, error = self._recursive(job["model"], out["theta"])
        axis = self.eb["anneal"].log_grid(GRID_LO, 1.0, points)
        ok = (
            _close(cost, out["cost"]) and error <= eps
            and bool(np.all(np.isin(out["theta"], axis)))
        )
        if preset == "three_param" and points == 50 and eps in PINNED_GRID:
            ok = ok and _close(out["cost"], PINNED_GRID[eps], 1e-12)
        if preset == "redundancy":
            # splitting eps_r into two groups can only lower the optimum
            ok = ok and out["cost"] <= self._grid3(eps, points) * (1 + 1e-12)
        ratio = out["cost"] / self.reference(n, preset, k, eps)
        return Check(ok, True, ok, ratio, "" if ok else "grid mismatch")

    def _check_lemma1(self, job, report) -> Check:
        ok = (
            report.violations == 0 and report.trials == job["trials"]
            and report.length == job["length"] and report.dimension == job["dimension"]
            and 0.0 < report.max_ratio <= 1.0
        )
        return Check(ok, note="" if ok else f"lemma1 report {report.to_dict()}")

    def _check_trotter(self, job, points) -> Check:
        counts = [m for m, _ in points]
        errors = [e for _, e in points]
        slope = float(np.polyfit(np.log(counts), np.log(errors), 1)[0])
        lo, hi = SLOPE_WINDOWS[job["order"]]
        ok = (
            counts == job["step_counts"] and all(e > 0 for e in errors)
            and all(b < a for a, b in zip(errors, errors[1:])) and lo <= slope <= hi
        )
        return Check(ok, note="" if ok else f"trotter slope {slope}")

    def _check_roundtrip(self, job, out) -> Check:
        to_dict = self.eb["modelio"].model_to_dict
        before, after = to_dict(*out[0]), to_dict(*out[1])
        on_disk = json.loads((self.root / job["model"]).read_text())
        ok = before == after == on_disk
        return Check(ok, note="" if ok else "model changed in a round trip")


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
