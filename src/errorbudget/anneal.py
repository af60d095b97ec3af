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

Chains run in a compiled C kernel (``_chain.c``, built with the system's
``cc`` on the first chain a process runs and cached per user), which draws
the chain's PCG64 stream itself, or, where it cannot be built, in a Python
reference loop over :class:`ChainEvaluator` that draws from
``numpy.random.default_rng``; the two give bit-identical chains.

Also here: multi-start driving, a proposal-width tuner targeting a ~50%
acceptance rate, warm starts from coarser bindings, and an exhaustive
grid-search reference used as an independent oracle for annealer quality.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import json
import math
import numbers
import os
import sys
import weakref
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (
    EPSILON_CEILING,
    EPSILON_FLOOR,
    BudgetNode,
    ChainEvaluator,
    CompiledModel,
    EvaluationError,
    ParameterBinding,
    ToleranceVector,
    compile_model,
    validate_model,  # unused here since compiling validates; perfbench/tracing.py wraps this name
)

#: Denominator floor for relative objective changes.
_REL_FLOOR = 1e-300

#: Chain steps per block of uniforms the reference engine draws at once (four
#: per step).  Small, so a long walk never holds its whole stream and an early
#: stop wastes little.
_BLOCK_STEPS = 1024

#: Chain steps the compiled kernel runs per call.  Python runs between two
#: calls, so Ctrl-C stops a chain within one slice.
_SLICE_STEPS = 2**20

#: Kernel builds the cache keeps, the most recently used: two checkouts or
#: installs of differing sources then never rebuild each other's.
_KEPT_BUILDS = 4

#: How the chain kernel is compiled; no flag may let the compiler reorder or
#: contract floating-point operations.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class _Table(ctypes.Structure):
    """``struct table`` of ``_chain.c``: a :class:`CompiledModel`'s arrays, by field name."""

    _fields_ = [("n_nodes", ctypes.c_int64), ("dim", ctypes.c_int64)] + [
        (name, ctypes.c_void_p)
        for name in ("slot", "needs_eps", "has_law", "law", "kid_ptr", "kid", "coeff", "nexp",
                     "ceil", "dirty_ptr", "dirty", "dirty_from")
    ]


#: The chain's in/out points and its trace columns, as named in ``struct chain``.
_POINTS = ("theta", "best_theta", "first_theta", "min_theta")
_COLUMNS = ("t_cost_mode", "t_cost", "t_error", "t_accepted", "t_delta_e")


class _Chain(ctypes.Structure):
    """``struct chain`` of ``_chain.c``: one chain's settings, buffers, progress and results."""

    _fields_ = (
        [(name, ctypes.c_double) for name in (
            "eps_target", "beta_max", "d_beta", "delta", "scale_error", "scale_cost")]
        + [(name, ctypes.c_int64) for name in ("total_steps", "stop_at_feasible")]
        + [(name, ctypes.c_uint64) for name in ("state_hi", "state_lo", "inc_hi", "inc_lo")]
        + [(name, ctypes.c_void_p) for name in ("nodes", *_POINTS, *_COLUMNS)]
        + [(name, ctypes.c_double) for name in (
            "beta", "cost", "error", "best_cost", "best_error", "first_cost", "min_error")]
        + [(name, ctypes.c_int64) for name in ("steps_run", "accepted", "steps_to_feasible")]
    )


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
        for name in ("num_steps", "seed", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("beta_max", "delta", "mode_scale_error", "mode_scale_cost", "epsilon_init"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not isinstance(self.auto_delta, bool):
            raise ValueError(f"auto_delta must be true or false, got {self.auto_delta!r}")
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
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Trace:
    """A chain's steps as columns: per step, the state after its accept/reject decision.

    ``cost_mode`` tells whether the step ran in cost mode (the state before
    it was feasible); ``cost``, ``error`` and ``accepted`` are the state and
    decision after it, and ``delta_e`` the scaled relative change the
    Metropolis test saw.  ``len`` is the number of steps.
    """

    cost_mode: tuple[bool, ...] = ()
    cost: tuple[float, ...] = ()
    error: tuple[float, ...] = ()
    accepted: tuple[bool, ...] = ()
    delta_e: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.cost)


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
    trace: Trace
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
            trace = self.trace
            out["trace"] = [
                {"mode": MODE_COST if m else MODE_ERROR, "cost": c, "error": e, "accepted": a,
                 "delta_e": d}
                for m, c, e, a, d in zip(
                    trace.cost_mode, trace.cost, trace.error, trace.accepted, trace.delta_e)
            ]
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


def _validated(model: BudgetNode | CompiledModel, binding: ParameterBinding) -> CompiledModel:
    if isinstance(model, CompiledModel):
        if binding is not model.binding and binding != model.binding:
            raise ValueError("binding differs from the one the model was compiled with")
        return model
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
    bad = np.flatnonzero(~((arr >= EPSILON_FLOOR) & (arr < 1.0)))  # NaN fails both
    if bad.size:
        k = int(bad[0])
        raise EvaluationError(
            f"chain start point has entry {k} = {arr[k]}; entries must lie in [{EPSILON_FLOOR}, 1)"
        )
    return arr


def _check_max_steps(max_steps) -> None:
    if max_steps is not None and (
        isinstance(max_steps, bool) or not isinstance(max_steps, numbers.Integral) or max_steps < 1
    ):
        raise ValueError(f"max_steps must be None or an integer >= 1, got {max_steps!r}")


def _step_budget(compiled: CompiledModel, config: AnnealConfig, max_steps: int | None) -> int:
    """Steps a chain runs: ``max_steps``, by default ``num_steps``; none at dimension 0."""
    if compiled.dimension == 0:
        return 0  # nothing to optimize
    return config.num_steps if max_steps is None else max_steps


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "errorbudget"


def _find_compiler() -> str | None:
    import shutil

    return shutil.which("cc")


def _compile_kernel(compiler: str, source: bytes, target: Path) -> None:
    """Build the kernel into a private temp file, then move it to ``target``."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"],
            input=source, capture_output=True, timeout=300,
        )
        if proc.returncode != 0:
            message = proc.stderr.decode(errors="replace").strip()
            raise OSError(f"{compiler} exited with {proc.returncode}: {message[:400]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_kernel():
    """Load the kernel library from the cache, building it there if needed."""
    import platform
    import zlib

    source = (Path(__file__).parent / "_chain.c").read_bytes()
    built = source + repr((_CFLAGS, sys.platform, platform.machine(), platform.libc_ver())).encode()
    # two 32-bit checksums make the key: hashlib would load OpenSSL, several
    # MB of resident memory, for this one digest
    key = f"{zlib.crc32(built):08x}{zlib.adler32(built):08x}"
    directory = _cache_dir()
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.stat()
    if hasattr(os, "getuid") and info.st_uid != os.getuid():
        raise OSError(f"cache directory {directory} belongs to another user")
    if info.st_mode & 0o077:
        directory.chmod(0o700)
    target = directory / f"_chain-{key}.so"
    if target.exists():
        try:
            kernel = _bind(ctypes.CDLL(str(target)))
        except (OSError, AttributeError):  # truncated or foreign: build it again
            pass
        else:
            try:
                os.utime(target)  # used now: the last build a prune removes
            except OSError:
                pass
            return kernel
    compiler = _find_compiler()
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    _compile_kernel(compiler, source, target)
    kernel = _bind(ctypes.CDLL(str(target)))
    _prune_builds(directory)
    return kernel


def _prune_builds(directory: Path) -> None:
    """Remove all but the ``_KEPT_BUILDS`` most recently used kernel builds."""
    builds = []
    for build in directory.glob("_chain-*.so"):
        try:
            builds.append((build.stat().st_mtime_ns, build))
        except OSError:  # removed meanwhile by another process
            pass
    for _, stale in sorted(builds, reverse=True)[_KEPT_BUILDS:]:
        try:
            stale.unlink()
        except OSError:
            pass


def _bind(library):
    table, chain = ctypes.POINTER(_Table), ctypes.POINTER(_Chain)
    library.eb_start_chain.argtypes = [table, chain]
    library.eb_start_chain.restype = None
    library.eb_run_chain.argtypes = [table, chain, ctypes.c_int64]
    library.eb_run_chain.restype = ctypes.c_int
    return library


@functools.cache
def _chain_kernel():
    """The compiled chain kernel, built on the first chain; ``None`` if unavailable.

    Any failure to find, build or load it (no compiler, no cache directory,
    no home directory) leaves chains to the Python engine and says so once.
    The modules only the build needs are imported where it needs them, so
    that importing the package does not pay for them.
    """
    try:
        return _load_kernel()
    except Exception as exc:  # every failure falls back the same way
        import logging

        logging.getLogger("errorbudget").warning(
            "errorbudget: compiled chain kernel unavailable (%s); "
            "chains run in the slower Python chain engine", exc,
        )
        return None


def chain_engine() -> str:
    """``"c"`` when chains run in the compiled kernel, ``"python"`` when not."""
    return "python" if _chain_kernel() is None else "c"


_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """PCG64 state and increment as ``numpy.random.default_rng(seed)`` seeds them.

    numpy hashes the seed's 32-bit words into a pool of four with
    ``SeedSequence``, draws four 64-bit words from the pool, and seeds PCG64's
    state and stream with two each.  Done here in integer arithmetic, so the
    kernel's chains need no ``numpy.random``.
    """
    seed = int(seed)  # a numpy integer would wrap around in the products below
    if seed < 0:  # as SeedSequence; a negative seed never runs out of words
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    state_hi, state_lo, inc_hi, inc_lo = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    # from state 0: one step (which lands on inc), add the seed, one more step
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
    return state, inc


class _SeedStream:
    """The bounded integers ``numpy.random.default_rng(seed).integers`` draws, without numpy.

    Steps PCG64 from :func:`_pcg64_seeded`, takes the XSL-RR 64-bit output
    and bounds it with Lemire's rule as numpy does (Lemire, *Fast random
    integer generation in an interval*, ACM TOMACS 2019): the high word of
    ``x * (span + 1)``, drawing again while the low word is below
    ``(2**64 - 1 - span) % (span + 1)``.  Only spans of more than 32 bits
    are drawn (numpy draws narrower ones from buffered 32-bit words), which
    covers the tuner's pilot seeds.
    """

    def __init__(self, seed: int) -> None:
        self._state, self._inc = _pcg64_seeded(seed)

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        r = state >> 122
        return (x >> r | x << (64 - r)) & _MASK64

    def integers(self, low: int, high: int) -> int:
        """One integer in ``[low, high)``, as ``Generator.integers(low, high)`` draws it."""
        span = high - 1 - low
        if not (0 <= low and high <= 2**63 and span > _MASK32):
            raise ValueError(f"need 0 <= low, high <= 2**63 and more than 2**32 values, "
                             f"got [{low}, {high})")
        values = span + 1
        draw = self._next64() * values
        if draw & _MASK64 < values:  # only then can it fall below the threshold
            threshold = (_MASK64 - span) % values
            while draw & _MASK64 < threshold:
                draw = self._next64() * values
        return low + (draw >> 64)


#: Each compiled model's ``_Table``, built on its first kernel chain.  The
#: table points into the model's arrays, so it lives exactly as long as the
#: model does.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table(compiled: CompiledModel) -> _Table:
    table = _TABLES.get(compiled)
    if table is None:
        table = _TABLES[compiled] = _Table(n_nodes=compiled.n_nodes, dim=compiled.dimension, **{
            name: getattr(compiled, name).ctypes.data for name, _ in _Table._fields_[2:]
        })
    return table


def _kernel_chain(kernel, compiled, eps_target, config, theta, total_steps, seed,
                  record_trace, stop_at_feasible):
    """The chain in the compiled kernel; returns what :func:`_reference_chain` does."""
    nodes = (ctypes.c_double * (4 * compiled.n_nodes + 4 * compiled.kid.size + 1))()
    points = np.array((theta,) * len(_POINTS), dtype=np.float64)  # one row per name
    first_point, row_bytes = points.ctypes.data, points.strides[0]
    columns = [
        np.zeros(total_steps, dtype=kind)
        for kind in (bool, float, float, bool, float)  # as named in _COLUMNS
    ] if record_trace else []
    state, inc = _pcg64_seeded(seed)
    chain = _Chain(
        eps_target=eps_target, beta_max=config.beta_max, d_beta=config.beta_max / config.num_steps,
        delta=config.delta, scale_error=config.mode_scale_error, scale_cost=config.mode_scale_cost,
        total_steps=total_steps, stop_at_feasible=stop_at_feasible,
        state_hi=state >> 64, state_lo=state & _MASK64, inc_hi=inc >> 64, inc_lo=inc & _MASK64,
        nodes=ctypes.addressof(nodes),
        **{name: first_point + i * row_bytes for i, name in enumerate(_POINTS)},
        **{name: column.ctypes.data for name, column in zip(_COLUMNS, columns)},
    )
    table_ref, chain_ref = ctypes.byref(_table(compiled)), ctypes.byref(chain)
    kernel.eb_start_chain(table_ref, chain_ref)
    while kernel.eb_run_chain(table_ref, chain_ref, _SLICE_STEPS):
        pass
    _, best, first, min_theta = points.tolist()
    steps = chain.steps_run
    return (
        best, chain.best_cost, chain.best_error,
        first, chain.first_cost, chain.steps_to_feasible,
        chain.min_error, min_theta, chain.accepted, steps,
        tuple(column[:steps] for column in columns) if record_trace else ((),) * len(_COLUMNS),
    )


def _reference_chain(compiled, eps_target, config, theta, total_steps, seed,
                     record_trace, stop_at_feasible):
    """The chain in Python over :class:`ChainEvaluator`: the kernel's reference.

    Draws its uniforms from ``numpy.random.default_rng(seed)`` in blocks of up
    to ``_BLOCK_STEPS`` steps, which yields the same values as one scalar draw
    each.  Returns the best, first-feasible and min-error points with their
    values, the accept and step counts and the trace columns.
    """
    rng = np.random.default_rng(seed)
    block_steps = min(total_steps, _BLOCK_STEPS)
    evaluator = ChainEvaluator(compiled)
    theta = theta.tolist()
    cost, error = evaluator.reset(theta)

    best_theta = first_theta = None
    best_cost = math.inf
    best_error = first_cost = math.nan
    steps_to_feasible = -1
    min_error = error
    min_error_theta = theta.copy()
    columns: tuple[list, ...] = ([], [], [], [], [])
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
            uniforms = rng.random(4 * block_steps).tolist()
            u = 0
        steps_run += 1
        index, new_value = _move(theta, delta, uniforms[u], uniforms[u + 1], uniforms[u + 2])
        u_accept = uniforms[u + 3]
        u += 4
        old_value = theta[index]
        new_cost, new_error = update(index, new_value)
        cost_mode = error <= eps_target
        if cost_mode:
            delta_e = config.mode_scale_cost * (new_cost - cost) / max(abs(cost), _REL_FLOOR)
        else:
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
            for column, value in zip(columns, (cost_mode, cost, error, accepted, delta_e)):
                column.append(value)

    return (
        best_theta, best_cost, best_error,
        first_theta, first_cost, steps_to_feasible,
        min_error, min_error_theta, accepted_count, steps_run,
        columns,
    )


def _run_chain(
    compiled: CompiledModel,
    eps_target: float,
    config: AnnealConfig,
    seed: int,
    theta_init: np.ndarray,
    record_trace: bool,
    stop_at_feasible: bool = False,
    max_steps: int | None = None,
) -> tuple[AnnealResult, tuple]:
    """Run one chain; return its result (without trace) and its trace columns.

    Each step consumes four uniforms of the stream ``default_rng(seed)``
    yields, in the order index, direction, factor, accept.  The chain runs in
    the compiled kernel unless it is unavailable; the Python loop of
    :func:`_reference_chain` is the same chain, bit for bit.  The trace
    columns come in the order of :class:`Trace`'s fields.
    """
    total_steps = _step_budget(compiled, config, max_steps)
    kernel = _chain_kernel()
    engine = _reference_chain if kernel is None else functools.partial(_kernel_chain, kernel)
    (
        best_theta, best_cost, best_error, first_theta, first_cost, steps_to_feasible,
        min_error, min_error_theta, accepted, steps_run, trace,
    ) = engine(compiled, eps_target, config, theta_init, total_steps, seed,
               record_trace, stop_at_feasible)
    feasible = best_cost < math.inf  # as the best point is only ever taken below inf
    return AnnealResult(
        best_theta=ToleranceVector(tuple(best_theta)) if feasible else None,
        best_cost=best_cost if feasible else None,
        best_error=best_error if feasible else None,
        first_feasible_theta=(
            ToleranceVector(tuple(first_theta)) if steps_to_feasible >= 0 else None
        ),
        first_feasible_cost=first_cost if steps_to_feasible >= 0 else None,
        steps_to_feasible=steps_to_feasible,
        acceptance_rate=accepted / steps_run if steps_run else 1.0,
        min_error=min_error,
        min_error_theta=ToleranceVector(tuple(min_error_theta)),
        seed=seed,
        delta=config.delta,
        trace=Trace(),
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
    if not eps_target > 0:  # NaN fails too
        raise ValueError(f"error target must be a positive number, got {eps_target}")
    _check_max_steps(max_steps)
    compiled = _validated(model, binding)
    start = _initial_theta(compiled.dimension, config, theta_init)

    best: AnnealResult | None = None
    best_trace: tuple = ()
    summaries: list[RunSummary] = []
    for chain in range(config.restarts):
        result, trace = _run_chain(
            compiled, eps_target, config, config.seed + chain, start, record_trace,
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
    trace = Trace(*(tuple(np.asarray(column).tolist()) for column in best_trace))
    return replace(best, trace=trace, runs=tuple(summaries))


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
    if math.isnan(eps_target):
        raise ValueError(f"error target must be a positive number, got {eps_target}")
    if eps_target <= 0:
        raise InfeasibleError(
            f"error target must be positive, got {eps_target}", math.inf, ()
        )
    _check_max_steps(max_steps)
    compiled = _validated(model, binding)
    start = _initial_theta(compiled.dimension, config, theta_init)
    # mode 1 only: make any feasible state terminal
    result, _ = _run_chain(
        compiled,
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
            f"no feasible point within {_step_budget(compiled, config, max_steps)} steps "
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
        compiled, eps_target, pilot, seed, start, record_trace=False
    )
    return result.acceptance_rate


def tune_delta(
    model: BudgetNode | CompiledModel,
    binding: ParameterBinding,
    eps_target: float,
    config: AnnealConfig,
    rng,
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
    therefore smallest) probe first.  Each probe's pilot seed is
    ``rng.integers(0, 2**63 - 1)``: ``rng`` is a ``numpy.random.Generator`` or
    anything else with that method, such as the ``_SeedStream`` drivers pass.
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


def _grid_blocks(sizes: Sequence[int], chunk: int):
    """Index blocks of a grid of axis ``sizes``, in grid order, of at most ``chunk`` points.

    Axis ``split`` is the first whose trailing axes fit in ``chunk`` points
    together; a block takes one value of each axis before it, a run of
    values of it, and every value of the axes after it.
    """
    if not sizes:
        yield ()
        return
    split = next(k for k in range(len(sizes)) if math.prod(sizes[k + 1:]) <= chunk)
    run = chunk // math.prod(sizes[split + 1:])
    whole = (slice(None),) * (len(sizes) - split - 1)
    for lead in itertools.product(*map(range, sizes[:split])):
        for start in range(0, sizes[split], run):
            yield tuple(slice(i, i + 1) for i in lead) + (slice(start, start + run),) + whole


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
    dimensions; refuses grids beyond ``max_points``.  The grid is never
    materialised: the compiled model is evaluated on the axes themselves,
    reshaped to broadcast against each other, in blocks of at most ``chunk``
    points.
    """
    compiled = _validated(model, binding)
    axes = [np.asarray(axis, dtype=float).ravel() for axis in grid]
    if len(axes) != compiled.dimension:
        raise ValueError(
            f"grid has {len(axes)} axes, binding has {compiled.dimension} groups"
        )
    if compiled.dimension > 4:
        raise ValueError("grid search reference supports at most 4 dimensions")
    if isinstance(chunk, bool) or not isinstance(chunk, numbers.Integral) or chunk < 1:
        raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
    sizes = [axis.size for axis in axes]
    total = math.prod(sizes)
    if total > max_points:
        raise ValueError(f"grid has {total} points, budget is {max_points}")
    if total == 0:
        raise InfeasibleError("grid is empty", math.inf, ())
    for k, axis in enumerate(axes):
        bad = np.flatnonzero(~((axis >= EPSILON_FLOOR) & (axis < 1.0)))  # NaN fails both
        if bad.size:
            raise EvaluationError(
                f"grid axis {k} has entry {axis[bad[0]]}; entries must lie in [{EPSILON_FLOOR}, 1)"
            )

    best_cost = math.inf
    best_point: list[float] | None = None
    for block in _grid_blocks(sizes, chunk):
        columns = [
            axis[part].reshape((-1,) + (1,) * (len(axes) - 1 - k))
            for k, (axis, part) in enumerate(zip(axes, block))
        ]
        shape = tuple(column.shape[0] for column in columns)
        costs, errors = compiled.evaluate_columns(columns)
        costs = np.broadcast_to(costs, shape).ravel()
        feasible = np.broadcast_to(errors, shape).ravel() <= eps_target
        if not np.any(feasible):
            continue
        costs = np.where(feasible, costs, math.inf)
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            where = np.unravel_index(idx, shape)
            best_point = [column.item(i) for column, i in zip(columns, where)]
    if best_point is None:
        raise InfeasibleError(
            f"no feasible grid point for target {eps_target:.6g}", math.inf, ()
        )
    return ToleranceVector(tuple(best_point)), best_cost
