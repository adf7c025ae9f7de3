"""Batch command-line interface.

Subcommands: ``simulate`` writes seeded synthetic datasets, ``fit``
estimates a discriminant from a labeled CSV, ``predict`` applies a saved
model to new curves, and ``bench`` runs the Monte Carlo comparison.

Exit codes: 0 on success, 1 for validation or usage errors, 2 for
numeric failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .discriminant import error_rate, predict
from .exceptions import NumericError, ValidationError
from .io import (
    RunConfig,
    atomic_write_text,
    format_config,
    load_config,
    load_csv,
    load_model,
    parse_field,
    read_labeled_csv,
    save_dataset_csv,
    save_model,
)
from .simulate import METHODS, SimSpec, fit_method, generate, run_benchmark

UNLABELED = "?"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gplda", add_help=True)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="generate a seeded synthetic dataset pair")
    sim.add_argument("--which", choices=("sim1", "sim2"))
    sim.add_argument("--n-train", type=int, default=50)
    sim.add_argument("--n-test", type=int, default=200)
    sim.add_argument("--seed")
    sim.add_argument("--out", help="output path prefix for the two CSV files")

    fit_cmd = sub.add_parser("fit", help="fit a discriminant model from a CSV")
    fit_cmd.add_argument("--data", help="labeled-curve CSV path")
    fit_cmd.add_argument("--header", action="store_true", help="CSV has a header row")
    fit_cmd.add_argument("--method", choices=[name for name, _ in METHODS.values()])
    fit_cmd.add_argument("--penalty", help="d1, d2, or lap2d:ROWSxCOLS")
    fit_cmd.add_argument("--alpha", help="penalty weight for pda, or 'cv'")
    fit_cmd.add_argument("--k", help="number of discriminant directions, or 'auto'")
    fit_cmd.add_argument("--seed")
    fit_cmd.add_argument("--out", help="model file path")

    pred = sub.add_parser("predict", help="apply a saved model to curves in a CSV")
    pred.add_argument("--model", help="model file written by fit")
    pred.add_argument("--data", help="labeled-curve CSV path; labels '?' mean unknown")
    pred.add_argument("--header", action="store_true", help="CSV has a header row")
    pred.add_argument("--out", help="output CSV of predicted labels")

    bench = sub.add_parser("bench", help="run the simulation benchmark")
    bench.add_argument("--reps")
    bench.add_argument("--seed")
    bench.add_argument("--out", help="report CSV path")
    return parser


# (flag, config key): a flag's text is read as that key's text in a config file.
_FLAG_KEYS = (
    ("method", "method"),
    ("k", "k"),
    ("seed", "seed"),
    ("data", "data"),
    ("out", "out"),
    ("alpha", "pda.alpha"),
    ("reps", "bench.reps"),
    ("which", "bench.which"),
)


def _effective_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    texts = ((key, getattr(args, flag, None)) for flag, key in _FLAG_KEYS)
    overrides = dict(parse_field(key, text) for key, text in texts if text is not None)
    if getattr(args, "penalty", None):
        kind, _, grid = args.penalty.partition(":")
        overrides["penalty_kind"] = kind
        overrides["penalty_grid"] = parse_field("penalty.grid", grid)[1]
    return replace(config, **overrides)


def _cmd_simulate(args) -> int:
    config = _effective_config(args)
    prefix = config.out or f"{config.bench_which}_seed{config.seed}"
    spec = SimSpec(
        which=config.bench_which,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=config.seed,
    )
    train, test = generate(spec)
    train_path = f"{prefix}_train.csv"
    test_path = f"{prefix}_test.csv"
    save_dataset_csv(train_path, train)
    save_dataset_csv(test_path, test)
    print(f"wrote {train_path} ({train.n} curves) and {test_path} ({test.n} curves)")
    return 0


def _cmd_fit(args) -> int:
    config = _effective_config(args)
    if not config.data:
        raise ValidationError("fit needs --data (or data = ... in the config)")
    if not config.out:
        raise ValidationError("fit needs --out (or out = ... in the config)")
    dataset = load_csv(config.data, has_header=args.header)
    model, trace = fit_method(config.method, dataset, config, config.seed)
    save_model(config.out, model)
    for note in model.warnings:
        print(f"note: {note}")
    if trace is not None:
        atomic_write_text(
            config.out + ".trace", json.dumps(asdict(trace), indent=1) + "\n"
        )
        status = "converged" if trace.converged else "stopped"
        print(
            f"{status} after {trace.sweeps_run} sweeps, "
            f"objective {trace.log_posterior_per_sweep[-1]:.6f}"
        )
        # A fit can stop on a small change per sweep far from stationarity.
        block, value = max(trace.final_residuals.as_dict().items(), key=lambda kv: kv[1])
        print(f"largest first-order residual {value:.3g} ({block})")
    print(f"wrote {config.out} ({model.method_tag}, k={model.k})")
    return 0


def _cmd_predict(args) -> int:
    if not args.model:
        raise ValidationError("predict needs --model")
    if not args.data:
        raise ValidationError("predict needs --data")
    model = load_model(args.model)
    labels, values = read_labeled_csv(args.data, has_header=args.header)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite)) + 1
        raise ValidationError(f"{args.data}: row {row} contains a non-finite value")
    predicted = predict(model, values)
    predicted_text = [str(p) for p in np.atleast_1d(predicted)]
    if args.out:
        atomic_write_text(args.out, "\n".join(predicted_text) + "\n")
        print(f"wrote {args.out} ({len(predicted_text)} labels)")
    else:
        for label in predicted_text:
            print(label)
    if all(label != UNLABELED and label != "" for label in labels):
        truth = [str(label) for label in labels]
        rate = error_rate(np.asarray(predicted_text), np.asarray(truth))
        print(f"error rate: {rate:.6f}")
    return 0


def _cmd_bench(args) -> int:
    config = _effective_config(args)
    report = run_benchmark(
        which=config.bench_which,
        methods=config.bench_methods,
        n_values=config.bench_n_values,
        reps=config.bench_reps,
        base_seed=config.seed,
        n_test=config.bench_n_test,
        config=config,
    )
    table = report.to_csv()
    out = config.out or "report.csv"
    atomic_write_text(out, table)
    atomic_write_text(
        out + ".summary.json", json.dumps(report.to_summary(), indent=1) + "\n"
    )
    sys.stdout.write(table)
    print(f"wrote {out} and {out}.summary.json")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "bench": _cmd_bench,
}


def cli_dispatch(argv) -> int:
    """Run one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help; preserve its code.
        return int(exc.code or 0)
    try:
        if args.print_config:
            print(format_config(_effective_config(args)), end="")
            return 0
        if args.command is None:
            print(parser.format_usage(), file=sys.stderr, end="")
            return 1
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
