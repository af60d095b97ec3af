"""Two-mode annealing over tolerance vectors.

The optimizer walks a tolerance vector with single-coordinate multiplicative
moves.  While the composed error exceeds the target it anneals the error down
(mode ``error``); once feasible it anneals the gate cost instead (mode
``cost``), switching back whenever an accepted move pushes the error above
the target again.  Moves are accepted with the Metropolis probability
``min(1, exp(-beta * dE))`` on a linear inverse-temperature ramp, where
``dE`` is the relative change of the active objective; relative changes keep
one beta schedule usable across cost scales spanning many orders of
magnitude.

Also here: multi-start driving, a proposal-width tuner targeting a ~50%
acceptance rate, warm starts from coarser bindings, and an exhaustive
grid-search reference used as an independent oracle for annealer quality.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .model import (
    EPSILON_CEILING,
    EPSILON_FLOOR,
    BudgetNode,
    ChainEvaluator,
    CompiledModel,
    EvaluationError,
    ModelError,
    ParameterBinding,
    ToleranceVector,
    compile_model,
    validate_model,
)

#: Denominator floor for relative objective changes.
_REL_FLOOR = 1e-300

#: Chain steps per block of uniforms drawn at once (four per step).  Small, so
#: a long walk never holds its whole stream and an early stop wastes little.
_BLOCK_STEPS = 256

MODE_ERROR = "error"
MODE_COST = "cost"


class InfeasibleError(RuntimeError):
    """No feasible tolerance vector was found within the step budget.

    Carries the smallest composed error reached so callers can report how far
    the search got.
    """

    def __init__(self, message: str, best_error: float, best_theta: tuple[float, ...]) -> None:
        super().__init__(message)
        self.best_error = best_error
        self.best_theta = best_theta


class RefinementError(ValueError):
    """The fine binding does not refine the coarse binding."""


@dataclass(frozen=True)
class AnnealConfig:
    """Knobs of a single annealing run.

    ``num_steps`` is both the step budget and the length of the linear beta
    ramp (``beta_t = t * beta_max / num_steps``).  ``delta`` is the proposal
    width: moves multiply or divide one entry by a factor in ``(1, 1+delta]``.
    ``mode_scale_error`` and ``mode_scale_cost`` scale the relative objective
    change per mode.  With ``auto_delta`` set, drivers tune ``delta`` with
    :func:`tune_delta` before running.  ``restarts`` independent chains use
    seeds ``seed, seed+1, ...``.
    """

    num_steps: int = 5000
    beta_max: float = 10.0
    delta: float = 0.5
    mode_scale_error: float = 1.0
    mode_scale_cost: float = 1.0
    epsilon_init: float = 0.1
    seed: int = 1
    restarts: int = 1
    auto_delta: bool = False

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be at least 1, got {self.num_steps}")
        if self.beta_max < 0:
            raise ValueError(f"beta_max must be non-negative, got {self.beta_max}")
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if not EPSILON_FLOOR <= self.epsilon_init < 1.0:
            raise ValueError(f"epsilon_init must lie in [{EPSILON_FLOOR}, 1)")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_dict(cls, data: dict) -> "AnnealConfig":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown annealing config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "AnnealConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StepRecord:
    """One trace row: state after the step's accept/reject decision."""

    mode: str
    cost: float
    error: float
    accepted: bool
    delta_e: float


@dataclass(frozen=True)
class RunSummary:
    """Per-chain outcome when running with restarts."""

    seed: int
    best_cost: float | None
    best_error: float | None
    first_feasible_cost: float | None
    steps_to_feasible: int
    acceptance_rate: float
    min_error: float


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of :func:`anneal`.

    ``best_*`` describe the cheapest feasible point ever visited and are
    ``None`` when no chain reached feasibility.  ``first_feasible_*`` describe
    the first feasible point of the reported chain (``steps_to_feasible`` is
    ``-1`` if it never became feasible).  ``min_error``/``min_error_theta``
    track the closest approach to feasibility regardless of cost.  With
    restarts the fields describe the best chain and ``runs`` retains one
    summary per chain.
    """

    best_theta: ToleranceVector | None
    best_cost: float | None
    best_error: float | None
    first_feasible_theta: ToleranceVector | None
    first_feasible_cost: float | None
    steps_to_feasible: int
    acceptance_rate: float
    min_error: float
    min_error_theta: ToleranceVector
    seed: int
    delta: float
    trace: tuple[StepRecord, ...]
    runs: tuple[RunSummary, ...]

    @property
    def feasible(self) -> bool:
        return self.best_theta is not None

    def summary(self) -> RunSummary:
        return RunSummary(
            seed=self.seed,
            best_cost=self.best_cost,
            best_error=self.best_error,
            first_feasible_cost=self.first_feasible_cost,
            steps_to_feasible=self.steps_to_feasible,
            acceptance_rate=self.acceptance_rate,
            min_error=self.min_error,
        )

    def to_dict(self, include_trace: bool = False) -> dict:
        out = {
            "feasible": self.feasible,
            "best_theta": list(self.best_theta.values) if self.best_theta else None,
            "best_cost": self.best_cost,
            "best_error": self.best_error,
            "first_feasible_theta": (
                list(self.first_feasible_theta.values) if self.first_feasible_theta else None
            ),
            "first_feasible_cost": self.first_feasible_cost,
            "steps_to_feasible": self.steps_to_feasible,
            "acceptance_rate": self.acceptance_rate,
            "min_error": self.min_error,
            "seed": self.seed,
            "delta": self.delta,
            "runs": [asdict(run) for run in self.runs],
        }
        if include_trace:
            out["trace"] = [asdict(rec) for rec in self.trace]
        return out


def acceptance_probability(delta_e: float, beta: float) -> float:
    """Metropolis acceptance: ``min(1, exp(-beta * delta_e))``; 1 for downhill."""
    if delta_e <= 0.0:
        return 1.0
    if math.isnan(delta_e) or delta_e == math.inf:
        return 0.0  # an overflowed or undefined objective is never accepted
    return min(1.0, math.exp(-beta * delta_e))


def _move(
    theta: Sequence[float], delta: float, u_index: float, u_up: float, u_factor: float
) -> tuple[int, float]:
    """The move picked by three uniforms: index, direction, factor; return the moved entry."""
    index = int(u_index * len(theta))
    factor = 1.0 + (1.0 - u_factor) * delta
    value = theta[index] * factor if u_up < 0.5 else theta[index] / factor
    return index, min(max(value, EPSILON_FLOOR), EPSILON_CEILING)


def propose(theta: np.ndarray, delta: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One multiplicative single-coordinate move.

    Picks an index uniformly, then multiplies or divides that entry (each with
    probability 1/2) by a factor drawn from ``(1, 1+delta]``; the result is
    clamped into the representable tolerance interval.  Consumes exactly three
    uniform draws so chains remain reproducible.
    """
    index, value = _move(theta, delta, rng.random(), rng.random(), rng.random())
    out = theta.copy()
    out[index] = value
    return out, index


def _validated(model: BudgetNode | CompiledModel, binding: ParameterBinding) -> CompiledModel:
    if isinstance(model, CompiledModel):
        return model
    report = validate_model(model, binding)
    if not report.ok:
        raise ModelError(
            "model failed validation: " + "; ".join(report.violations)
        )
    return compile_model(model, binding)


def _initial_theta(
    dimension: int, config: AnnealConfig, theta_init: Sequence[float] | ToleranceVector | None
) -> np.ndarray:
    if theta_init is None:
        return np.full(dimension, config.epsilon_init)
    values = getattr(theta_init, "values", theta_init)
    arr = np.asarray(values, dtype=float)
    if arr.shape != (dimension,):
        raise ValueError(f"initial point has shape {arr.shape}, expected ({dimension},)")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        k = int(bad[0])
        raise EvaluationError(f"chain start point has entry {k} = {arr[k]}; entries must be finite")
    return np.clip(arr, EPSILON_FLOOR, EPSILON_CEILING)


def _run_chain(
    evaluator: ChainEvaluator,
    eps_target: float,
    config: AnnealConfig,
    seed: int,
    theta_init: np.ndarray,
    record_trace: bool,
    stop_at_feasible: bool = False,
    max_steps: int | None = None,
) -> tuple[AnnealResult, list[tuple]]:
    """Run one chain; return its result (without trace) and its trace rows.

    Each step consumes four uniforms of the chain's stream, in the order
    index, direction, factor, accept; they are drawn ``_BLOCK_STEPS`` steps at
    a time, which yields the same values as one scalar draw each.  Trace rows
    are plain ``StepRecord`` field tuples.
    """
    rng = np.random.default_rng(seed)
    theta = theta_init.tolist()
    cost, error = evaluator.reset(theta)

    best_theta: list[float] | None = None
    best_cost = math.inf
    best_error = math.nan
    first_theta: list[float] | None = None
    first_cost: float | None = None
    steps_to_feasible = -1
    min_error = error
    min_error_theta = theta.copy()
    trace: list[tuple] = []
    accepted_count = 0

    def note_state(step: int) -> None:
        nonlocal best_theta, best_cost, best_error, first_theta, first_cost
        nonlocal steps_to_feasible, min_error, min_error_theta
        if error < min_error:
            min_error = error
            min_error_theta = theta.copy()
        if error <= eps_target:
            if first_theta is None:
                first_theta = theta.copy()
                first_cost = cost
                steps_to_feasible = step
            if cost < best_cost:
                best_theta = theta.copy()
                best_cost = cost
                best_error = error

    note_state(0)
    total_steps = config.num_steps if max_steps is None else max_steps
    if len(theta) == 0:
        total_steps = 0  # nothing to optimize
    d_beta = config.beta_max / config.num_steps
    beta = 0.0
    steps_run = 0
    delta = config.delta
    update = evaluator.update
    uniforms: list[float] = []
    u = 0
    for step in range(total_steps):
        if stop_at_feasible and first_theta is not None:
            break
        if u == len(uniforms):
            uniforms = rng.random(4 * _BLOCK_STEPS).tolist()
            u = 0
        steps_run += 1
        index, new_value = _move(theta, delta, uniforms[u], uniforms[u + 1], uniforms[u + 2])
        u_accept = uniforms[u + 3]
        u += 4
        old_value = theta[index]
        new_cost, new_error = update(index, new_value)
        if error <= eps_target:
            mode = MODE_COST
            delta_e = config.mode_scale_cost * (new_cost - cost) / max(abs(cost), _REL_FLOOR)
        else:
            mode = MODE_ERROR
            delta_e = config.mode_scale_error * (new_error - error) / max(abs(error), _REL_FLOOR)
        accepted = u_accept <= acceptance_probability(delta_e, beta)
        if accepted:
            accepted_count += 1
            theta[index] = new_value
            cost, error = new_cost, new_error
            note_state(step + 1)
        else:
            update(index, old_value)  # restores bit-identical state
        beta = min(beta + d_beta, config.beta_max)
        if record_trace:
            trace.append((mode, cost, error, accepted, delta_e))

    return AnnealResult(
        best_theta=ToleranceVector(tuple(best_theta)) if best_theta is not None else None,
        best_cost=best_cost if best_theta is not None else None,
        best_error=best_error if best_theta is not None else None,
        first_feasible_theta=ToleranceVector(tuple(first_theta)) if first_theta is not None else None,
        first_feasible_cost=first_cost,
        steps_to_feasible=steps_to_feasible,
        acceptance_rate=accepted_count / steps_run if steps_run else 1.0,
        min_error=min_error,
        min_error_theta=ToleranceVector(tuple(min_error_theta)),
        seed=seed,
        delta=config.delta,
        trace=(),
        runs=(),
    ), trace


def anneal(
    model: BudgetNode | CompiledModel,
    binding: ParameterBinding,
    eps_target: float,
    config: AnnealConfig,
    theta_init: Sequence[float] | ToleranceVector | None = None,
    record_trace: bool = True,
    max_steps: int | None = None,
) -> AnnealResult:
    """Run the two-mode annealer, best-of-``config.restarts`` chains.

    Chains are seeded ``seed, seed+1, ...`` and are independent; the returned
    result is the chain with the cheapest feasible point (falling back to the
    chain that got closest to feasibility if none succeeded), with one
    :class:`RunSummary` per chain attached.  ``max_steps`` extends a chain
    beyond the ``num_steps`` beta ramp, continuing at ``beta_max``.
    """
    if eps_target <= 0:
        raise ValueError(f"error target must be positive, got {eps_target}")
    compiled = _validated(model, binding)
    evaluator = ChainEvaluator(compiled)
    start = _initial_theta(compiled.dimension, config, theta_init)

    best: AnnealResult | None = None
    best_trace: list[tuple] = []
    summaries: list[RunSummary] = []
    for chain in range(config.restarts):
        result, trace = _run_chain(
            evaluator, eps_target, config, config.seed + chain, start, record_trace,
            max_steps=max_steps,
        )
        summaries.append(result.summary())
        if (
            best is None
            or (result.feasible and (not best.feasible or result.best_cost < best.best_cost))
            or (not best.feasible and result.min_error < best.min_error)
        ):
            best, best_trace = result, trace
    assert best is not None
    return replace(
        best, trace=tuple(StepRecord(*row) for row in best_trace), runs=tuple(summaries)
    )


def find_feasible(
    model: BudgetNode | CompiledModel,
    binding: ParameterBinding,
    eps_target: float,
    config: AnnealConfig,
    theta_init: Sequence[float] | ToleranceVector | None = None,
    max_steps: int | None = None,
) -> tuple[ToleranceVector, int]:
    """Error-reduction mode only: stop at the first feasible point.

    The beta ramp is still ``beta_max / num_steps`` per step; ``max_steps``
    (default ``num_steps``) bounds the walk, continuing at ``beta_max`` once
    the ramp is exhausted.  Raises :class:`InfeasibleError` when the budget
    runs out, carrying the closest approach.
    """
    if eps_target <= 0:
        raise InfeasibleError(
            f"error target must be positive, got {eps_target}", math.inf, ()
        )
    compiled = _validated(model, binding)
    start = _initial_theta(compiled.dimension, config, theta_init)
    # mode 1 only: make any feasible state terminal
    result, _ = _run_chain(
        ChainEvaluator(compiled),
        eps_target,
        config,
        config.seed,
        start,
        record_trace=False,
        stop_at_feasible=True,
        max_steps=max_steps,
    )
    if result.first_feasible_theta is None:
        raise InfeasibleError(
            f"no feasible point within {max_steps or config.num_steps} steps "
            f"(closest error {result.min_error:.6g} vs target {eps_target:.6g})",
            result.min_error,
            result.min_error_theta.values,
        )
    return result.first_feasible_theta, result.steps_to_feasible


def measure_acceptance(
    model: BudgetNode | CompiledModel,
    binding: ParameterBinding,
    eps_target: float,
    config: AnnealConfig,
    seed: int,
    pilot_steps: int,
) -> float:
    """Acceptance rate of a short pilot chain with a compressed beta ramp."""
    compiled = _validated(model, binding)
    pilot = replace(config, num_steps=pilot_steps, restarts=1, seed=seed)
    start = _initial_theta(compiled.dimension, pilot, None)
    result, _ = _run_chain(
        ChainEvaluator(compiled), eps_target, pilot, seed, start, record_trace=False
    )
    return result.acceptance_rate


def tune_delta(
    model: BudgetNode | CompiledModel,
    binding: ParameterBinding,
    eps_target: float,
    config: AnnealConfig,
    rng: np.random.Generator,
    lo: float = 1e-3,
    hi: float = 4.0,
    rounds: int = 20,
    pilot_steps: int = 300,
) -> float:
    """Pick a proposal width with pilot-chain acceptance near 50%.

    Walks a bracket over ``[lo, hi]`` (larger widths lower the acceptance
    rate), returning as soon as a probe lands in ``[0.4, 0.6]``.  If no probe
    ever does -- e.g. every move is accepted because ``beta_max`` is zero or
    the objective is flat -- the probe closest to 50% wins, earliest (and
    therefore smallest) probe first.
    """
    compiled = _validated(model, binding)

    best_delta = lo
    best_distance = math.inf

    def probe(delta: float) -> float:
        nonlocal best_delta, best_distance
        seed = int(rng.integers(0, 2**63 - 1))
        acc = measure_acceptance(
            compiled, binding, eps_target, replace(config, delta=delta), seed, pilot_steps
        )
        distance = abs(acc - 0.5)
        if distance < best_distance:
            best_distance = distance
            best_delta = delta
        return acc

    for delta in (lo, hi):
        acc = probe(delta)
        if 0.4 <= acc <= 0.6:
            return delta
    for _ in range(rounds):
        mid = math.sqrt(lo * hi)
        acc = probe(mid)
        if 0.4 <= acc <= 0.6:
            return mid
        if acc > 0.6:  # too timid: accepted almost everything, widen moves
            lo = mid
        else:
            hi = mid
    return best_delta


def warm_start(
    coarse_binding: ParameterBinding,
    coarse_theta: Sequence[float] | ToleranceVector,
    fine_binding: ParameterBinding,
) -> ToleranceVector:
    """Initialise a fine-grained problem from a coarser solution.

    Every fine group must be contained in exactly one coarse group (over the
    same slot set); each fine group inherits its supergroup's value.
    """
    values = getattr(coarse_theta, "values", coarse_theta)
    arr = np.asarray(values, dtype=float)
    if arr.shape != (coarse_binding.dimension,):
        raise RefinementError(
            f"coarse point has shape {arr.shape}, expected ({coarse_binding.dimension},)"
        )
    coarse_index = coarse_binding.slot_index()
    fine_index = fine_binding.slot_index()
    if set(coarse_index) != set(fine_index):
        raise RefinementError("bindings cover different slot sets")
    out = []
    for name, slots in fine_binding.groups:
        parents = {coarse_index[slot] for slot in slots}
        if len(parents) != 1:
            raise RefinementError(
                f"fine group {name!r} spans {len(parents)} coarse groups; not a refinement"
            )
        out.append(float(arr[parents.pop()]))
    return ToleranceVector(tuple(out))


def log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` log-uniform values in ``[lo, hi)``."""
    if not 0 < lo < hi <= 1.0:
        raise ValueError(f"need 0 < lo < hi <= 1, got [{lo}, {hi})")
    return np.geomspace(lo, hi, points + 1)[:-1]


def grid_search_reference(
    model: BudgetNode | CompiledModel,
    binding: ParameterBinding,
    eps_target: float,
    grid: Sequence[Sequence[float]],
    max_points: int = 10**7,
    chunk: int = 65536,
) -> tuple[ToleranceVector, float]:
    """Exhaustive search over a per-dimension grid; the annealer's oracle.

    Returns the cheapest feasible grid point, deterministically (ties go to
    the lexicographically first point in grid order).  Only intended for low
    dimensions; refuses grids beyond ``max_points``.
    """
    compiled = _validated(model, binding)
    axes = [np.asarray(axis, dtype=float) for axis in grid]
    if len(axes) != compiled.dimension:
        raise ValueError(
            f"grid has {len(axes)} axes, binding has {compiled.dimension} groups"
        )
    if compiled.dimension > 4:
        raise ValueError("grid search reference supports at most 4 dimensions")
    total = math.prod(axis.size for axis in axes)
    if total > max_points:
        raise ValueError(f"grid has {total} points, budget is {max_points}")
    if total == 0:
        raise InfeasibleError("grid is empty", math.inf, ())

    mesh = np.stack(
        [m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1
    )
    best_cost = math.inf
    best_point: np.ndarray | None = None
    for start in range(0, total, chunk):
        block = mesh[start : start + chunk]
        costs, errors = compiled.evaluate(block)
        feasible = errors <= eps_target
        if not np.any(feasible):
            continue
        costs = np.where(feasible, costs, math.inf)
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_point = block[idx].copy()
    if best_point is None:
        raise InfeasibleError(
            f"no feasible grid point for target {eps_target:.6g}", math.inf, ()
        )
    return ToleranceVector(tuple(float(v) for v in best_point)), best_cost
