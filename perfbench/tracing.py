"""Span tracing of the package's layers, installed only for the traced run.

Public functions are wrapped at the names where callers look them up (for
example ``errorbudget.experiments.anneal`` as well as
``errorbudget.anneal.anneal``); ``ChainEvaluator`` and ``CompiledModel``
methods are wrapped on the class.  A span records name, layer, start, end and
parent; spans stay in memory until the run writes them out.  Calls made
millions of times (``ChainEvaluator.update``) are counted and timed without a
span of their own, but their time is still taken out of the caller's self
time.  Work counts (steps, accepts, grid points, trials) are read from
arguments and return values, never from inside the program.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("tfim", "modelio", "model", "anneal", "experiments", "normlab")

_perf = time.perf_counter


def _points(theta) -> int:
    import numpy as np

    values = np.asarray(getattr(theta, "values", theta))
    return 1 if values.ndim == 1 else int(values.shape[0])


def _observe_anneal(tracer, args, result, error):
    if result is None:
        return
    config = args["config"]
    per_chain = args["max_steps"] or config.num_steps
    steps = per_chain * config.restarts
    tracer.counts["anneal.steps"] += steps
    tracer.counts["anneal.accept_steps"] += steps
    tracer.counts["anneal.accepts"] += sum(run.acceptance_rate * per_chain for run in result.runs)
    tracer.counts["anneal.trace_records"] += len(result.trace)
    tracer.samples["anneal.steps_to_feasible"] += [
        run.steps_to_feasible for run in result.runs if run.steps_to_feasible >= 0
    ]


def _observe_find_feasible(tracer, args, result, error):
    if result is not None:
        steps = result[1]
        tracer.samples["anneal.steps_to_feasible"].append(steps)
    elif isinstance(error, tracer.infeasible_error):
        steps = args["max_steps"] or args["config"].num_steps
    else:
        return
    tracer.counts["anneal.steps"] += steps


def _observe_measure_acceptance(tracer, args, result, error):
    if result is None:
        return
    # tune_delta is the package's only caller, so every call is one probe
    tracer.counts["anneal.tune_delta.probes"] += 1
    tracer.samples["probe_acceptance"].append(result)
    tracer.counts["anneal.steps"] += args["pilot_steps"]
    tracer.counts["anneal.accept_steps"] += args["pilot_steps"]
    tracer.counts["anneal.accepts"] += result * args["pilot_steps"]


def _observe_tune_delta(tracer, args, result, error):
    if result is None:
        return
    probes = tracer.samples.pop("probe_acceptance", [])
    tracer.samples["anneal.tune_delta.delta"].append(result)
    # every probe on one side of the [0.4, 0.6] target band: the bracket
    # walked to its edge and the result is the closest miss
    if all(a > 0.6 for a in probes) or all(a < 0.4 for a in probes):
        tracer.counts["anneal.tune_delta.saturated"] += 1


def _observe_grid(tracer, args, result, error):
    tracer.counts["anneal.grid.points"] += math.prod(len(axis) for axis in args["grid"])


def _observe_evaluate(tracer, args, result, error):
    tracer.counts["model.evaluate.points"] += _points(args["theta"])


def _observe_lemma(tracer, args, result, error):
    tracer.counts["normlab.lemma1.trials"] += args["trials"]


def _observe_file(tracer, args, result, error):
    if error is None:
        tracer.counts["modelio.bytes"] += os.path.getsize(args["path"])


def _observe_experiment(tracer, args, result, error):
    if result is not None:
        tracer.counts["experiments.rows"] += len(result.rows)


# (module, attribute, span name, observer); the layer is the span name's prefix
_FUNCTIONS = (
    ("tfim", "build_tfim_model", "tfim.build", None),
    ("experiments", "build_tfim_model", "tfim.build", None),
    ("modelio", "load_model", "modelio.load", _observe_file),
    ("modelio", "save_model", "modelio.save", _observe_file),
    ("model", "validate_model", "model.validate", None),
    ("anneal", "validate_model", "model.validate", None),
    ("experiments", "validate_model", "model.validate", None),
    ("model", "total_cost", "model.total_cost", None),
    ("model", "total_error", "model.total_error", None),
    ("model", "as_ceiled", "model.as_ceiled", None),
    ("anneal", "anneal", "anneal.anneal", _observe_anneal),
    ("experiments", "anneal", "anneal.anneal", _observe_anneal),
    ("anneal", "find_feasible", "anneal.find_feasible", _observe_find_feasible),
    ("experiments", "find_feasible", "anneal.find_feasible", _observe_find_feasible),
    ("anneal", "tune_delta", "anneal.tune_delta", _observe_tune_delta),
    ("experiments", "tune_delta", "anneal.tune_delta", _observe_tune_delta),
    ("anneal", "measure_acceptance", "anneal.measure_acceptance", _observe_measure_acceptance),
    ("anneal", "grid_search_reference", "anneal.grid", _observe_grid),
    ("experiments", "run_experiment", "experiments.run", _observe_experiment),
    ("normlab", "verify_composition_bound", "normlab.lemma1", _observe_lemma),
    ("normlab", "trotter_error_sweep", "normlab.trotter", None),
)
# (module, class, method, span name, observer)
_METHODS = (
    ("model", "CompiledModel", "__init__", "model.compile", None),
    ("model", "CompiledModel", "evaluate", "model.evaluate", _observe_evaluate),
    ("model", "ChainEvaluator", "__init__", "model.chain_init", None),
)
# counted and timed without spans: (module, class or None, attribute, name)
_HOT = (
    ("model", "ChainEvaluator", "update", "model.chain_update"),
    ("model", "ChainEvaluator", "reset", "model.chain_reset"),
    ("normlab", None, "random_unitary", "normlab.random_unitary"),
    ("normlab", None, "spectral_norm", "normlab.spectral_norm"),
)


class Tracer:
    """In-memory spans plus per-name and per-layer aggregates."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = [[-1, 0.0, ""]]  # [span index, child seconds, name]
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total_s: defaultdict[str, float] = defaultdict(float)  # outermost calls only
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list] = defaultdict(list)
        self._hot: dict[str, list] = {}
        self._restore: list[tuple] = []
        self.infeasible_error: type = RuntimeError

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _perf(), 0.0, self._stack[-1][0]])
        self._stack.append([index, 0.0, name])
        return index

    def _close(self, index: int) -> None:
        end = _perf()
        span = self.spans[index]
        span[2] = end
        _, child, name = self._stack.pop()
        duration = end - span[1]
        parent = self._stack[-1]
        parent[1] += duration
        self.self_s[name] += duration - child
        if parent[2] != name:  # recursion: count the outermost call once
            self.calls[name] += 1
            self.total_s[name] += duration

    @contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself (layer ``bench``)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, observe):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer._close(index)
                if observe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(tracer, bound.arguments, result, error)

        return traced

    def _wrap_hot(self, fn, name: str):
        stat = self._hot.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration

        return traced

    def _patch(self, target, attribute: str, wrapper) -> None:
        self._restore.append((target, attribute, getattr(target, attribute)))
        setattr(target, attribute, wrapper)

    @contextmanager
    def installed(self, modules: dict):
        """Wrap the package's entry points for the duration of the block.

        ``modules`` maps ``tfim``, ``modelio``, ``model``, ``anneal``,
        ``experiments`` and ``normlab`` to the package's module objects.
        """
        self.infeasible_error = modules["anneal"].InfeasibleError
        try:
            for module, attribute, name, observe in _FUNCTIONS:
                target = modules[module]
                self._patch(target, attribute, self._wrap(getattr(target, attribute), name, observe))
            for module, cls, attribute, name, observe in _METHODS:
                target = getattr(modules[module], cls)
                self._patch(target, attribute, self._wrap(getattr(target, attribute), name, observe))
            for module, cls, attribute, name in _HOT:
                target = modules[module] if cls is None else getattr(modules[module], cls)
                self._patch(target, attribute, self._wrap_hot(getattr(target, attribute), name))
            yield self
        finally:
            while self._restore:
                target, attribute, original = self._restore.pop()
                setattr(target, attribute, original)
            for name, (calls, seconds) in self._hot.items():
                self.calls[name] += calls
                self.total_s[name] += seconds
                self.self_s[name] += seconds
            self._hot.clear()

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer; benchmark-opened spans count as ``bench``."""
        out = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer if layer in out else "bench"] += seconds
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def merged(tracers: list[Tracer]) -> Tracer:
    """Aggregates of several tracers summed into a fresh one (no spans)."""
    out = Tracer()
    for tracer in tracers:
        for field in ("calls", "total_s", "self_s", "counts"):
            for key, value in getattr(tracer, field).items():
                getattr(out, field)[key] += value
        for key, values in tracer.samples.items():
            out.samples[key] += values
    return out


def layer_metrics(
    setup: Tracer, sweep: Tracer, traced_sweep_s: float, untraced_sweep_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set-up plus one traced pass.

    Work and time metrics cover both; the ``<layer>.self_s`` and ``trace.*``
    metrics cover the pass alone, so that the layer self times add up to the
    traced ``sweep_s``.
    """
    both = merged([setup, sweep])
    t, calls, c = both.total_s, both.calls, both.counts

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    stepping = ("anneal.anneal", "anneal.find_feasible", "anneal.measure_acceptance")
    step_self = sum(both.self_s[name] for name in stepping)
    chain_s = t["model.chain_update"] + t["model.chain_reset"]
    to_feasible = both.samples["anneal.steps_to_feasible"]
    layer_self = sweep.layer_self_s()
    metrics = {
        "tfim.build_s": (t["tfim.build"], "s"),
        "modelio.save_s": (t["modelio.save"], "s"),
        "modelio.load_s": (t["modelio.load"], "s"),
        "modelio.bytes": (c["modelio.bytes"], "bytes"),
        "model.validate_s": (t["model.validate"], "s"),
        "model.compile_s": (t["model.compile"], "s"),
        "model.chain_update.calls": (calls["model.chain_update"], "count"),
        "model.chain_update.us_per_call": (
            per(t["model.chain_update"], calls["model.chain_update"], 1e6), "us"),
        "model.chain_init.calls": (calls["model.chain_init"], "count"),
        "model.chain_init_s": (t["model.chain_init"], "s"),
        "model.evaluate.calls": (calls["model.evaluate"], "count"),
        "model.evaluate.points": (c["model.evaluate.points"], "count"),
        "model.evaluate.us_per_point": (
            per(t["model.evaluate"], c["model.evaluate.points"], 1e6), "us"),
        "model.recursive_eval_s": (
            t["model.total_cost"] + t["model.total_error"] + t["model.as_ceiled"], "s"),
        "anneal.steps": (c["anneal.steps"], "count"),
        "anneal.us_per_step": (per(step_self, c["anneal.steps"], 1e6), "us"),
        "anneal.us_per_step_with_updates": (
            per(step_self + chain_s, c["anneal.steps"], 1e6), "us"),
        "anneal.accept_ratio": (per(c["anneal.accepts"], c["anneal.accept_steps"]), "ratio"),
        "anneal.steps_to_feasible_p50": (
            statistics.median(to_feasible) if to_feasible else 0.0, "count"),
        "anneal.trace_records": (c["anneal.trace_records"], "count"),
        "anneal.tune_delta_s": (t["anneal.tune_delta"], "s"),
        "anneal.tune_delta.probes": (c["anneal.tune_delta.probes"], "count"),
        "anneal.tune_delta.saturated": (c["anneal.tune_delta.saturated"], "count"),
        "anneal.grid_s": (t["anneal.grid"], "s"),
        "anneal.grid.points_per_s": (per(c["anneal.grid.points"], t["anneal.grid"]), "1/s"),
        "experiments.run_s": (t["experiments.run"], "s"),
        "experiments.rows": (c["experiments.rows"], "count"),
        "normlab.lemma1.trials": (c["normlab.lemma1.trials"], "count"),
        "normlab.lemma1.us_per_trial": (
            per(t["normlab.lemma1"], c["normlab.lemma1.trials"], 1e6), "us"),
        "normlab.random_unitary_s": (t["normlab.random_unitary"], "s"),
        "normlab.spectral_norm_s": (t["normlab.spectral_norm"], "s"),
        "normlab.trotter_s": (t["normlab.trotter"], "s"),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    metrics.update({
        "trace.sweep_s": (traced_sweep_s, "s"),
        "trace.untraced_sweep_s": (untraced_sweep_s, "s"),
        "trace.overhead_s": (traced_sweep_s - untraced_sweep_s, "s"),
        "trace.layer_self_sum_s": (sum(layer_self[layer] for layer in LAYERS), "s"),
        "trace.spans": (len(sweep.spans), "count"),
    })
    return metrics
