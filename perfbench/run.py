"""errorbudget benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload optimize-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run sets up its inputs from the seed, seven times in fresh processes
(``setup_s`` is the median), then runs the workload's job list in passes, one
job at a time, until ``--seconds`` of passes are spent (at least one pass).
``sweep_s`` and the job-time percentiles describe the run's slowest pass.
Every job's output is checked after its pass, outside the timers.  The last
line of standard output is the JSON result; the lines before it print every
metric by name with its unit, the failure fraction and the environment.

With ``--trace 1`` passes alternate untraced and traced, and the result
holds the per-layer metrics of the traced set-up and the slowest traced
pass, plus the tracing overhead (slowest traced minus slowest untraced pass).
Spans are written to ``.perfbench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs as plan_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_ROUNDS = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("tfim", "modelio", "model", "anneal", "experiments", "normlab")


def _cap_blas_threads() -> int:
    """Cap BLAS threads at nproc before numpy is imported; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _environment(args, nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _timed_setup(workload: str, seed: int, inputs: Path) -> list[float]:
    """Set-up rounds in fresh interpreters; each reports its own seconds."""
    times = []
    for _ in range(SETUP_ROUNDS):
        shutil.rmtree(inputs, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(inputs)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up round failed with exit code {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _run_pass(eb, jobs, inputs: Path, region):
    """All jobs once, in order; returns (sweep seconds, job seconds, outputs)."""
    from jobs import RUNNERS

    times, outputs = [], []
    started = time.perf_counter()
    with region("bench.sweep"):
        for job in jobs:
            job_started = time.perf_counter()
            try:
                with region("bench.job"):
                    output = RUNNERS[job["kind"]](eb, job, inputs)
            except Exception as exc:  # a failed job is counted, the run goes on
                output = exc
            times.append(time.perf_counter() - job_started)
            outputs.append(output)
    return time.perf_counter() - started, times, outputs


def _no_region(name):
    return contextlib.nullcontext()


def run_workload(args, eb, inputs: Path) -> tuple[dict, dict]:
    from jobs import Checker, geomean

    setup_times = _timed_setup(args.workload, args.seed, inputs)
    setup_tracer = None
    if args.trace:
        from tracing import Tracer

        setup_tracer = Tracer()
        with setup_tracer.installed(eb):
            plan_inputs.write_inputs(args.workload, args.seed, inputs)
    jobs = json.loads((inputs / "jobs.json").read_text())
    references = json.loads((HERE / "references.json").read_text())
    checker = Checker(eb, args.workload, args.seed, inputs, references)

    sweeps = {False: [], True: []}
    job_times: list[list[float]] = []  # per untraced pass
    checks = []
    tracer = None
    traced = False
    while True:
        if traced:
            pass_tracer = Tracer()
            with pass_tracer.installed(eb):
                sweep_s, times, outputs = _run_pass(eb, jobs, inputs, pass_tracer.region)
            if not sweeps[True] or sweep_s > max(sweeps[True]):
                tracer = pass_tracer  # per-layer metrics describe the slowest traced pass
        else:
            sweep_s, times, outputs = _run_pass(eb, jobs, inputs, _no_region)
            job_times.append(times)
        sweeps[traced].append(sweep_s)
        checks += [checker.check(job, output) for job, output in zip(jobs, outputs)]
        del outputs
        measured = sum(sweeps[False]) + sum(sweeps[True])
        typical = statistics.median(sweeps[False] + sweeps[True])
        if args.trace:
            traced = not traced
            if traced:  # every untraced pass is followed by a traced one
                continue
        if measured + typical * (2 if args.trace else 1) > args.seconds:
            break

    failures = [c for c in checks if not c.ok]
    for check in failures[:5]:
        print(f"check failed: {check.note}", file=sys.stderr)
    search = [c for c in checks if c.search]
    ratios = [c.cost_ratio for c in checks if c.cost_ratio is not None]
    # the slowest pass stands for the run: see "Machine noise" in README.md
    slowest = max(range(len(sweeps[False])), key=sweeps[False].__getitem__)
    untraced_sweep = sweeps[False][slowest]
    summary = {
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "jobs_per_pass": len(jobs),
        "pass_s": sweeps[False],
        "traced_pass_s": sweeps[True],
        "fail_frac": len(failures) / len(checks),
    }
    if args.trace:
        from tracing import layer_metrics

        metrics = layer_metrics(
            setup_tracer, tracer, max(sweeps[True]), untraced_sweep
        )
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "setup_spans": setup_tracer.span_records(),
            "sweep_spans": tracer.span_records(),
            "tune_delta": tracer.samples["anneal.tune_delta.delta"],
        }) + "\n")
        summary["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "sweep_s": (untraced_sweep, "s"),
            "job_s_p50": (statistics.median(job_times[slowest]), "s"),
            "job_s_p90": (
                statistics.quantiles(job_times[slowest], n=10, method="inclusive")[8], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "feasible_frac": (sum(c.feasible for c in search) / len(search), "ratio"),
            "cost_ratio_geomean": (geomean(ratios), "ratio"),
        }
        summary["job_samples"] = sum(map(len, job_times))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if list(metrics) != names:
        raise SystemExit(f"metrics {list(metrics)} differ from BENCHMARK.json's {names}")
    return metrics, summary


def _print_result(workload: str, metrics: dict, summary: dict, env: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:18s} {name:34s} {value:.6g} {unit}")
    print(f"{workload:18s} {'fail_frac':34s} {summary['fail_frac']:.6g} ratio")
    print("summary " + json.dumps(summary))
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def _run_all(args) -> int:
    """Each workload in its own process, so that peak memory stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in plan_inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} failed with exit code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan_inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "errorbudget" / "__init__.py").is_file():
        print(f"error: no errorbudget sources at {SRC}", file=sys.stderr)
        return 2

    nproc = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("errorbudget")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported errorbudget from {package.__file__}, not {SRC}", file=sys.stderr)
        return 2
    eb = {name: importlib.import_module(f"errorbudget.{name}") for name in LAYERS}

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        metrics, summary = run_workload(args, eb, work / "inputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_result(args.workload, metrics, summary, _environment(args, nproc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
