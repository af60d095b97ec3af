"""Command-line front end.

Subcommands::

    errorbudget model tfim --n 10 --preset three-param --out model.json
    errorbudget optimize model.json --epsilon 0.1 [--restarts 20 --trace]
    errorbudget experiment cost-vs-eps --out results.csv
    errorbudget verify lemma1 --dimension 8 --length 10 --trials 500
    errorbudget verify trotter --n 3 --time 1.0 --orders first,second

Exit codes: 0 success, 1 usage or parse failure, 2 model validation failure,
3 exhaustion (no feasible solution found, or for ``optimize`` none that stays
feasible with integer step counts).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .anneal import AnnealConfig, InfeasibleError, anneal
from .experiments import KINDS, default_spec, run_config, run_experiment
from .model import ModelError, as_ceiled, compile_model, total_cost, total_error, validate_model
from .modelio import ModelFormatError, load_model, save_model
from .normlab import (
    IsingEvolutionSpec,
    fit_loglog_slope,
    trotter_error_sweep,
    verify_composition_bound,
)
from .tfim import ConfigurationError, TfimConfig, build_tfim_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_anneal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="JSON", help="annealing config file; flags win")
    parser.add_argument("--steps", type=int, help="annealing steps (beta ramp length)")
    parser.add_argument("--beta-max", type=float, help="final inverse temperature")
    parser.add_argument("--delta", type=float, help="proposal width")
    parser.add_argument("--tune-delta", action="store_true", help="auto-tune the proposal width")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--restarts", type=int, help="independent chains, seeded seed, seed+1, ...")


def _anneal_config(args: argparse.Namespace, default: AnnealConfig) -> AnnealConfig:
    """``--config`` (else ``default``) with the flags applied on top.

    An explicit ``--delta`` turns width tuning off unless ``--tune-delta`` is
    also given.
    """
    config = AnnealConfig.from_json(args.config) if args.config else default
    overrides = {
        key: value
        for key, value in (
            ("num_steps", args.steps),
            ("beta_max", args.beta_max),
            ("delta", args.delta),
            ("seed", args.seed),
            ("restarts", args.restarts),
        )
        if value is not None
    }
    if args.tune_delta:
        overrides["auto_delta"] = True
    elif args.delta is not None:
        overrides["auto_delta"] = False
    return replace(config, **overrides)


def _cmd_model_tfim(args: argparse.Namespace) -> int:
    config = TfimConfig(
        n=args.n,
        trotter_coefficient=args.trotter_coefficient,
        qpe_coefficient=args.qpe_coefficient,
        synthesis_gates_per_log=args.gates_per_log,
    )
    preset = args.preset.replace("-", "_")
    tree, binding = build_tfim_model(config, preset, args.redundant)
    report = validate_model(tree, binding)
    if not report.ok:
        for violation in report.violations:
            print(f"invalid model: {violation}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        save_model(tree, binding, args.out)
        print(f"wrote {args.out}")
    else:
        from .modelio import model_to_dict

        json.dump(model_to_dict(tree, binding), sys.stdout, indent=2)
        print()
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    tree, binding = load_model(args.model)
    try:
        compiled = compile_model(tree, binding)
    except ModelError as exc:
        print(f"{args.model}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.epsilon <= 0:
        print(f"error target must be positive, got {args.epsilon}", file=sys.stderr)
        return EXIT_EXHAUSTED
    config = _anneal_config(args, AnnealConfig())
    config, _ = run_config(compiled, binding, args.epsilon, config, config.seed)
    result = anneal(compiled, binding, args.epsilon, config, record_trace=args.trace)

    output = result.to_dict(include_trace=args.trace)
    output["epsilon_target"] = args.epsilon
    if result.feasible:
        names = binding.group_names
        output["best_theta_by_group"] = dict(zip(names, result.best_theta.values))
        ceiled = as_ceiled(tree)
        output["best_cost_ceil"] = total_cost(ceiled, binding, result.best_theta)
        output["best_error_ceil"] = total_error(ceiled, binding, result.best_theta)
    json.dump(output, sys.stdout, indent=2)
    print()
    if not result.feasible:
        return EXIT_EXHAUSTED
    if output["best_error_ceil"] > args.epsilon:
        print(
            f"best point is infeasible with integer step counts: ceiled error "
            f"{output['best_error_ceil']!r} exceeds the target {args.epsilon!r}",
            file=sys.stderr,
        )
        return EXIT_EXHAUSTED
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    kind = args.kind.replace("-", "_")
    overrides = {}
    if args.epsilon:
        overrides["targets"] = tuple(float(x) for x in args.epsilon.split(","))
    if args.n is not None:
        overrides["tfim"] = TfimConfig(n=args.n)
    if args.redundancies:
        overrides["redundancies"] = tuple(int(x) for x in args.redundancies.split(","))
    spec = default_spec(kind, args.out, **overrides)

    spec = replace(spec, anneal=_anneal_config(args, spec.anneal))

    result = run_experiment(spec)
    print(f"wrote {result.csv_path} and {result.metadata_path}")
    return EXIT_OK


def _cmd_verify_lemma1(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    report = verify_composition_bound(
        args.length, args.dimension, args.epsilon, args.trials, rng
    )
    payload = report.to_dict()
    payload["seed"] = args.seed
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK if report.violations == 0 else EXIT_VALIDATION


def _cmd_verify_trotter(args: argparse.Namespace) -> int:
    step_counts = [int(x) for x in args.step_counts.split(",")]
    orders = [x.strip() for x in args.orders.split(",")]
    payload: dict = {
        "n": args.n,
        "coupling": args.coupling,
        "field": args.field,
        "time": args.time,
        "step_counts": step_counts,
        "orders": {},
    }
    for order in orders:
        spec = IsingEvolutionSpec.uniform(
            args.n, args.coupling, args.field, args.time, step_counts[0], order
        )
        points = trotter_error_sweep(spec, step_counts)
        payload["orders"][order] = {
            "errors": {str(m): err for m, err in points},
            "fitted_slope": fit_loglog_slope(points),
        }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="errorbudget", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="construct benchmark models")
    model_sub = model.add_subparsers(dest="model_kind", required=True)
    tfim = model_sub.add_parser("tfim", help="Ising/phase-estimation benchmark model")
    tfim.add_argument("--n", type=int, default=10, help="spin chain length")
    tfim.add_argument("--preset", default="three-param",
                      choices=["three-param", "two-param", "redundancy"],
                      help="binding granularity")
    tfim.add_argument("--redundant", type=int, default=0,
                      help="extra rotation-synthesis groups (redundancy preset)")
    tfim.add_argument("--trotter-coefficient", type=float, default=1.0)
    tfim.add_argument("--qpe-coefficient", type=float, default=TfimConfig().qpe_coefficient)
    tfim.add_argument("--gates-per-log", type=float, default=4.0)
    tfim.add_argument("--out", help="output model file (stdout if omitted)")
    tfim.set_defaults(func=_cmd_model_tfim)

    optimize = sub.add_parser("optimize", help="optimize tolerances for a model file")
    optimize.add_argument("model", help="model JSON file")
    optimize.add_argument("--epsilon", type=float, required=True, help="overall error target")
    optimize.add_argument("--trace", action="store_true", help="include the full step trace")
    _add_anneal_flags(optimize)
    optimize.set_defaults(func=_cmd_optimize)

    experiment = sub.add_parser("experiment", help="run a benchmark study")
    experiment.add_argument("kind", choices=[k.replace("_", "-") for k in KINDS] + list(KINDS))
    experiment.add_argument("--out", required=True, help="output CSV path")
    experiment.add_argument("--epsilon", help="comma-separated error-target sweep")
    experiment.add_argument("--n", type=int, help="spin chain length")
    experiment.add_argument("--redundancies", help="comma-separated redundancy counts")
    _add_anneal_flags(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    verify = sub.add_parser("verify", help="numerical verification lab")
    verify_sub = verify.add_subparsers(dest="verify_kind", required=True)

    lemma = verify_sub.add_parser("lemma1", help="randomized error-composition trials")
    lemma.add_argument("--length", type=int, default=10, help="factors per product")
    lemma.add_argument("--dimension", type=int, default=8, help="matrix dimension (power of 2)")
    lemma.add_argument("--epsilon", type=float, default=0.01, help="per-factor budget")
    lemma.add_argument("--trials", type=int, default=500)
    lemma.add_argument("--seed", type=int, default=1)
    lemma.add_argument("--out", help="write the JSON report here instead of stdout")
    lemma.set_defaults(func=_cmd_verify_lemma1)

    trotter = verify_sub.add_parser("trotter", help="split-step error scaling")
    trotter.add_argument("--n", type=int, default=3, help="spin chain length (2..6)")
    trotter.add_argument("--coupling", type=float, default=1.0)
    trotter.add_argument("--field", type=float, default=1.0)
    trotter.add_argument("--time", type=float, default=1.0)
    trotter.add_argument("--step-counts", default="8,16,32,64,128")
    trotter.add_argument("--orders", default="first,second")
    trotter.add_argument("--out", help="write the JSON report here instead of stdout")
    trotter.set_defaults(func=_cmd_verify_trotter)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, ConfigurationError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"no feasible solution: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
