"""Command-line entry points: run an experiment, compare metrics, inspect a child.

Exit codes: 0 success, 2 configuration error, 3 runtime/numerical error.
"""

from __future__ import annotations

import argparse
import sys

from .config import override, parse_config
from .errors import ConfigurationError, DfnasError, FormatError
from .experiment import compare_runs, inspect_child, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfnas",
        description="Desk-scale direct federated neural architecture search simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config", help="path to a key=value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    run_p.add_argument("--out", default=None, help="override output_dir")
    run_p.add_argument("--mode", default=None, help="override search mode")

    cmp_p = sub.add_parser("compare", help="tabulate two or more metrics CSVs")
    cmp_p.add_argument("csvs", nargs="+", help="metrics.csv files to align")
    cmp_p.add_argument("--out", default=None, help="write the aligned table as CSV")

    ins_p = sub.add_parser("inspect-child", help="print a derived child description")
    ins_p.add_argument("child", help="path to a child.txt file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config)
            changes = {}
            if args.seed is not None:
                changes["master_seed"] = args.seed
            if args.out is not None:
                changes["output_dir"] = args.out
            if args.mode is not None:
                changes["mode"] = args.mode
            if changes:
                config = override(config, **changes)
            run_experiment(config)
        elif args.command == "compare":
            print(compare_runs(args.csvs, out_path=args.out), end="")
        else:
            print(inspect_child(args.child), end="")
    except (ConfigurationError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DfnasError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
