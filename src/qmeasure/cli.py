"""Command line interface: run, validate, and sweep scenario files.

Exit codes: 0 success; 2 the scenario (or a flag) failed validation; 3 the
scenario is well formed but the experiment's hypotheses fail (non-commuting
meters, or a reproducibility precondition); 1 unexpected internal error.
Reports go to standard output (or --out); diagnostics go to standard error.
A reader that closes standard output early (`| head -1`) is not a failure: exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    NonCommutingMetersError,
    PreconditionError,
    QmeasureError,
)
from .scenario import load_scenario_file, run_experiment, sweep_agreement

_PRECONDITION_ERRORS = (NonCommutingMetersError, PreconditionError)


def _csv_floats(text: str):
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated numbers, got {text!r}"
            ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Run measurement-scheme experiments described by JSON scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario's experiment and emit a JSON report")
    run.add_argument("scenario", help="path to a scenario file")
    run.add_argument("--out", help="write the report here instead of standard output")
    run.add_argument("--tol", type=float, default=None,
                     help="override the experiment's decision tolerance")
    run.add_argument("--seed", type=int, default=None,
                     help="override the sampling seed")
    run.set_defaults(func=_cmd_run)

    validate = sub.add_parser("validate", help="parse and invariant-check a scenario file")
    validate.add_argument("scenario", help="path to a scenario file")
    validate.set_defaults(func=_cmd_validate)

    sweep = sub.add_parser("sweep", help="tabulate agreement probability against eta")
    sweep.add_argument("scenario", help="path to a scenario file using the unsharp observable")
    sweep.add_argument("--param", choices=("eta",), required=True,
                       help="parameter to sweep")
    sweep.add_argument("--values", type=_csv_floats, required=True,
                       help="comma-separated parameter values")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario_file(args.scenario)
    report = run_experiment(scenario, tol_override=args.tol, seed_override=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_validate(args) -> int:
    scenario = load_scenario_file(args.scenario)
    print(f"valid: {args.scenario} ({scenario.experiment} experiment, "
          f"system dim {scenario.system_dim}, {len(scenario.processes)} process(es))")
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario_file(args.scenario)
    rows = sweep_agreement(scenario, args.values)
    print("eta,agreement")
    for eta, agreement in rows:
        print(f"{eta},{agreement}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout to devnull, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QmeasureError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
