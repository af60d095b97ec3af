"""Experiment runner producing CSV artifacts plus JSON metadata.

Four studies over the Ising/phase-estimation benchmark:

* ``cost_vs_eps``  -- gate cost of the first feasible tolerance assignment
  versus the cost after feasibility-preserving optimization, over a sweep of
  overall error targets.
* ``granularity``  -- two-parameter binding (synthesis tolerance tied to the
  evolution tolerance) versus the full three-parameter binding, warm-starting
  the fine problem from the coarse solution.
* ``redundancy``   -- robustness against superfluous parameters: the rotation
  units are split into ``k + 1`` redundant synthesis groups and the best cost
  is tracked as ``k`` grows.
* ``runtime``      -- scaling of the error-reduction walk: median step count
  to reach feasibility as a function of the parameter count.

CSV bodies are deterministic for fixed seeds (the ``runtime`` study's wall
-clock column is the one physically non-reproducible quantity; step counts are
the portable measurement).  Row seeds are ``base + row_index * restarts`` so
rows are independent and reruns are reproducible; timestamps appear only in
the metadata JSON.
"""

from __future__ import annotations

import csv
import functools
import json
import numbers
import statistics
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .anneal import (
    AnnealConfig,
    InfeasibleError,
    anneal,
    chain_engine,
    find_feasible,
    tune_delta,
    warm_start,
)
# validate_model is not called here (compiling validates), but perfbench/tracing.py wraps this name
from .model import BudgetNode, CompiledModel, ParameterBinding, compile_model, validate_model
from .tfim import TfimConfig, build_tfim_model

#: Studies that sweep redundancy counts at one error target; the rest sweep targets.
_K_SWEEPS = ("redundancy", "runtime")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment run: which study, on which model, with which annealer."""

    kind: str
    out_path: Path
    targets: tuple[float, ...]
    tfim: TfimConfig
    anneal: AnnealConfig
    redundancies: tuple[int, ...] = ()
    feasibility_max_steps: int = 400_000
    optimize_max_steps: int | None = None

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if not self.targets:
            raise ValueError("error-target sweep must not be empty")
        for t in self.targets:
            if not t > 0:  # NaN fails too
                raise ValueError(f"error targets must be positive numbers, got {t}")
        for name, unset in (("feasibility_max_steps", ""), ("optimize_max_steps", "None or ")):
            value = getattr(self, name)
            if value is None and unset:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be {unset}an integer >= 1, got {value!r}")
        if any(b >= a for a, b in zip(self.targets, self.targets[1:])):
            raise ValueError("error targets must be strictly decreasing")
        parent = Path(self.out_path).resolve().parent
        if not parent.is_dir():
            raise ValueError(f"output directory {parent} does not exist")
        if self.kind not in _K_SWEEPS:
            if self.redundancies:
                raise ValueError(f"{self.kind} experiment takes no redundancy counts")
            return
        if not self.redundancies:
            raise ValueError(f"{self.kind} experiment needs redundancy counts")
        if len(self.targets) != 1:
            raise ValueError(f"{self.kind} experiment takes one error target, not {self.targets}")
        if min(self.redundancies) < 0:
            raise ValueError(f"redundancy counts must be non-negative, got {self.redundancies}")
        if max(self.redundancies) + 1 > 4 * self.tfim.n:
            raise ValueError(
                f"redundancy {max(self.redundancies)} needs more groups than the "
                f"{4 * self.tfim.n} rotation units of a length-{self.tfim.n} chain; "
                f"increase --n"
            )


def default_spec(kind: str, out_path: str | Path, **overrides: Any) -> ExperimentSpec:
    """Per-study defaults; any field can be overridden by keyword.

    The redundancy studies default to a longer chain (``n=30``) because the
    largest redundancy counts need at least ``k + 1`` rotation units, and to
    auto-tuned proposal widths because the useful width grows with the
    parameter count.
    """
    if kind not in _STUDIES:
        raise ValueError(f"unknown experiment kind {kind!r}; expected one of {KINDS}")
    spec = ExperimentSpec(kind=kind, out_path=Path(out_path), **_STUDIES[kind].defaults)
    return replace(spec, **overrides)


@dataclass
class ExperimentResult:
    csv_path: Path
    metadata_path: Path
    header: tuple[str, ...]
    rows: list[dict[str, Any]]


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _theta_str(theta) -> str:
    return ";".join(repr(float(v)) for v in theta.values)


def _validated_build(config: TfimConfig, preset: str, redundant: int):
    tree, binding = build_tfim_model(config, preset, redundant)
    return compile_model(tree, binding), binding


def run_config(
    model: BudgetNode | CompiledModel,
    binding: ParameterBinding,
    eps_target: float,
    config: AnnealConfig,
    seed: int,
) -> tuple[AnnealConfig, float | None]:
    """``config`` seeded with ``seed`` and, with ``auto_delta``, its width tuned.

    Returns the config and the tuned width (``None`` without ``auto_delta``);
    the tuner's pilot seeds are drawn from ``seed`` too.
    """
    config = replace(config, seed=seed)
    if not config.auto_delta:
        return config, None
    tuned = tune_delta(model, binding, eps_target, config, np.random.default_rng(seed))
    return replace(config, delta=tuned), tuned


def _cost_vs_eps_row(spec: ExperimentSpec, eps: float, k: int, models, done, meta) -> dict:
    [(compiled, binding, config)] = models
    result = anneal(compiled, binding, eps, config, record_trace=False)
    if not result.feasible:
        return {"flagged": 1}
    first_costs = [r.first_feasible_cost for r in result.runs if r.first_feasible_cost is not None]
    # the feasible-only arm reports the typical (median) stop-at-feasible
    # cost over the chains; the optimized arm reports the best chain
    feasible_only = statistics.median(first_costs)
    return {
        "feasible_only_cost": feasible_only,
        "optimized_cost": result.best_cost,
        "ratio": feasible_only / result.best_cost,
        "optimized_error": result.best_error,
        "theta": _theta_str(result.best_theta),
        "flagged": 0,
    }


def _granularity_row(spec: ExperimentSpec, eps: float, k: int, models, done, meta) -> dict:
    (compiled2, binding2, config2), (compiled3, binding3, config3) = models
    coarse = anneal(compiled2, binding2, eps, config2, record_trace=False)
    if not coarse.feasible:
        return {"flagged": 1}
    start = warm_start(binding2, coarse.best_theta, binding3)
    fine = anneal(compiled3, binding3, eps, config3, theta_init=start, record_trace=False)
    measured = {"cost_2param": coarse.best_cost, "theta_2param": _theta_str(coarse.best_theta)}
    if not fine.feasible:
        return {**measured, "flagged": 1}
    return {
        **measured,
        "cost_3param": fine.best_cost,
        "ratio": coarse.best_cost / fine.best_cost,
        "theta_3param": _theta_str(fine.best_theta),
        "flagged": 0,
    }


def _redundancy_row(spec: ExperimentSpec, eps: float, k: int, models, done, meta) -> dict:
    [(compiled, binding, config)] = models
    # feasibility time grows roughly quadratically with the parameter
    # count, so give larger problems a longer post-ramp budget
    budget = spec.optimize_max_steps
    if budget is None:
        budget = max(spec.anneal.num_steps, 40_000, 25 * binding.dimension**2)
    meta.setdefault("step_budgets", []).append(budget)
    result = anneal(compiled, binding, eps, config, record_trace=False, max_steps=budget)
    if not result.feasible:
        return {"flagged": 1}
    first_costs = [r.first_feasible_cost for r in result.runs if r.first_feasible_cost is not None]
    # costs are relative to the first feasible k=0 row, which may be this one
    base_cost = next(
        (r["best_cost"] for r in done if r["k_redundant"] == 0 and not r["flagged"]),
        result.best_cost if k == 0 else None,
    )
    first = statistics.median(first_costs)
    return {
        "best_cost": result.best_cost,
        "best_cost_over_k0_ratio": result.best_cost / base_cost if base_cost else None,
        "steps_to_feasible": result.steps_to_feasible,
        "first_feasible_cost": first,
        "improvement_factor": first / result.best_cost,
        "best_error": result.best_error,
        "theta": _theta_str(result.best_theta),
        "flagged": 0,
    }


def _runtime_row(spec: ExperimentSpec, eps: float, k: int, models, done, meta) -> dict:
    [(compiled, binding, config)] = models
    steps, times = [], []
    for j in range(config.restarts):
        chain_config = replace(config, seed=config.seed + j)
        started = time.perf_counter()
        try:
            _, n_steps = find_feasible(
                compiled, binding, eps, chain_config, max_steps=spec.feasibility_max_steps
            )
        except InfeasibleError:
            continue
        times.append(time.perf_counter() - started)
        steps.append(n_steps)
    measured = {"num_params": binding.dimension, "runs_failed": config.restarts - len(steps)}
    if steps:
        measured.update(
            median_steps_to_feasible=statistics.median(steps),
            median_wall_time=statistics.median(times),
        )
    return measured


@dataclass(frozen=True)
class _Study:
    """CSV columns, the presets built per row, the row function and the spec defaults."""

    header: tuple[str, ...]
    presets: tuple[str, ...]
    row: Callable[..., dict]  # (spec, eps, k, models, done, meta) -> measured columns
    defaults: dict[str, Any]


_TARGET_DEFAULTS = dict(tfim=TfimConfig(n=10), anneal=AnnealConfig(restarts=20))
# 5000-step ramp to beta_max, then a post-ramp budget scaled per redundancy row
_REDUNDANCY_DEFAULTS = dict(
    targets=(1e-1,),
    tfim=TfimConfig(n=30),
    anneal=AnnealConfig(num_steps=5000, restarts=20, auto_delta=True),
)

_STUDIES: dict[str, _Study] = {
    "cost_vs_eps": _Study(
        header=("epsilon_target", "feasible_only_cost", "optimized_cost", "ratio",
                "optimized_error", "theta", "flagged"),
        presets=("three_param",),
        row=_cost_vs_eps_row,
        defaults=dict(_TARGET_DEFAULTS, targets=(1e-1, 1e-2, 1e-3, 1e-4)),
    ),
    "granularity": _Study(
        header=("epsilon_target", "cost_2param", "cost_3param", "ratio",
                "theta_2param", "theta_3param", "flagged"),
        presets=("two_param", "three_param"),  # coarse, fine
        row=_granularity_row,
        defaults=dict(_TARGET_DEFAULTS, targets=(1e-1, 1e-2, 1e-3)),
    ),
    "redundancy": _Study(
        header=("k_redundant", "best_cost", "best_cost_over_k0_ratio", "steps_to_feasible",
                "first_feasible_cost", "improvement_factor", "best_error", "theta", "flagged"),
        presets=("redundancy",),
        row=_redundancy_row,
        defaults=dict(_REDUNDANCY_DEFAULTS, redundancies=tuple(range(0, 101, 10))),
    ),
    "runtime": _Study(
        header=("num_params", "median_steps_to_feasible", "median_wall_time", "k_redundant",
                "runs_failed"),
        presets=("redundancy",),
        row=_runtime_row,
        defaults=dict(_REDUNDANCY_DEFAULTS, redundancies=(10, 20, 40, 80)),
    ),
}

KINDS = tuple(_STUDIES)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute the experiment, writing ``<out>.csv`` and ``<out>.meta.json``.

    Every study runs through this one loop: per row it takes the seed, builds
    the study's models, seeds and tunes a config for each, calls the study's
    row function and leaves the columns the row did not measure empty.
    """
    spec.validate()
    study = _STUDIES[spec.kind]
    build = functools.cache(functools.partial(_validated_build, spec.tfim))
    deltas: list[Any] = []
    extra: dict[str, Any] = {"tuned_deltas": deltas}
    if spec.kind in _K_SWEEPS:
        extra["epsilon_target"] = spec.targets[0]
    rows: list[dict[str, Any]] = []
    seeds: list[int] = []
    # validation leaves either one target and some counts, or no counts
    sweep = [(eps, k) for eps in spec.targets for k in spec.redundancies or (0,)]
    for i, (eps, k) in enumerate(sweep):
        seed = spec.anneal.seed + i * spec.anneal.restarts
        seeds.append(seed)
        models, tuned = [], []
        for preset in study.presets:
            compiled, binding = build(preset, k)
            config, delta = run_config(compiled, binding, eps, spec.anneal, seed)
            models.append((compiled, binding, config))
            tuned.append(delta)
        deltas.append(tuned if len(tuned) > 1 and spec.anneal.auto_delta else tuned[0])
        measured = study.row(spec, eps, k, models, rows, extra)
        values = {"epsilon_target": eps, "k_redundant": k, **measured}
        rows.append({column: values.get(column) for column in study.header})

    csv_path = Path(spec.out_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(study.header)
        for row in rows:
            writer.writerow([_fmt(row[column]) for column in study.header])

    metadata = {
        "kind": spec.kind,
        "code_version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "n": spec.tfim.n,
        "tfim": asdict(spec.tfim),
        "anneal": spec.anneal.to_dict(),
        "targets": list(spec.targets),
        "redundancies": list(spec.redundancies),
        "feasibility_max_steps": spec.feasibility_max_steps,
        "row_seeds": seeds,
        "chain_engine": chain_engine(),
        "columns": list(study.header),
        "csv": csv_path.name,
    }
    metadata.update(extra)
    metadata_path = csv_path.with_suffix(csv_path.suffix + ".meta.json")
    metadata_path.write_text(json.dumps(metadata, indent=2) + "\n")
    return ExperimentResult(csv_path, metadata_path, study.header, rows)
