"""Command line front end: run, sweep, theory and validate subcommands."""

import argparse
import json
import sys

from . import harness


def _cmd_run(args):
    csv_path, sidecar, failures = harness.run(args.config, output=args.output)
    print(f"trace: {csv_path}")
    print(f"sidecar: {sidecar}")
    for run_id, msg in failures:
        print(f"FAILED {run_id}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _number(text):
    try:
        return float(text) if "." in text or "e" in text.lower() else int(text)
    except ValueError:
        raise harness.ConfigError(f"--values: {text!r} is not a number") from None


def _cmd_sweep(args):
    values = [_number(v) for v in args.values.split(",")]
    csv_path, failures = harness.sweep(args.config, args.axis, values,
                                       output=args.output)
    print(f"sweep: {csv_path}")
    for label, run_id, msg in failures:
        print(f"FAILED {label} {run_id}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_theory(args):
    budget, constants = harness.theory_report(args.config)
    payload = harness._budget_dict(budget)
    if args.json:
        print(json.dumps({"budget": payload, "constants": constants},
                         indent=2, sort_keys=True))
        return 0
    width = max(len(k) for k in list(payload) + list(constants))
    print("constants")
    for key in sorted(constants):
        print(f"  {key:<{width}}  {constants[key]}")
    print("budget")
    for key in sorted(payload):
        print(f"  {key:<{width}}  {payload[key]}")
    return 0


def _cmd_validate(args):
    checks, ok = harness.validate(args.config)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    print("all checks passed" if ok else "some checks failed")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="plnet",
        description="Decentralized PL optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all seeds of a config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None,
                       help="output basename (overrides config)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one numeric config field")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         help="config field, bare or section.key")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_theory = sub.add_parser("theory", help="print the budget for a config")
    p_theory.add_argument("config")
    p_theory.add_argument("--json", action="store_true")
    p_theory.set_defaults(func=_cmd_theory)

    p_val = sub.add_parser("validate", help="check a config's instances")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
