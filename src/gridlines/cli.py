"""Command-line front end.

Subcommands: moments, verify, sweep, support.  Exit codes: 0 success,
1 check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from .errors import GridlinesError
from .harness import (
    ExperimentConfig,
    SweepResult,
    report_row,
    run_moments,
    run_support,
    run_sweep,
    run_verify,
    support_to_csv,
    support_to_json_dict,
    sweep_to_csv,
    sweep_to_json_dict,
    write_text,
)
from .incidence import STRATEGIES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _add_common(sp: argparse.ArgumentParser, multi_prime: bool = False,
                histogram: bool = True) -> None:
    if multi_prime:
        sp.add_argument("--primes", required=True,
                        help="comma-separated list of distinct odd primes")
    else:
        sp.add_argument("--prime", "-p", type=int, required=True,
                        help="odd prime modulus")
    sp.add_argument("--set", required=True, dest="set_descriptor",
                    help="set descriptor, e.g. list:0,1 or bernoulli:0.3:42")
    if histogram:  # the census builds no histogram and times nothing
        sp.add_argument("--strategy", choices=STRATEGIES,
                        default=None, help="histogram strategy (default: auto)")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (breaks byte-reproducibility)")
    sp.add_argument("--seed", type=int, default=0,
                    help="base seed for random families (default 0)")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=["json", "csv"], default="json",
                    dest="fmt", help="output format")
    sp.add_argument("--verbose", action="store_true", help="log strategy choices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlines",
        description="Exact incidence statistics of A x A over a prime field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("moments", help="histogram, moments, and bound report")
    _add_common(sp)

    sp = sub.add_parser("verify", help="all exact checks plus oracle cross-checks")
    _add_common(sp)

    sp = sub.add_parser("sweep", help="multi-prime Monte Carlo sweep")
    _add_common(sp, multi_prime=True)
    sp.add_argument("--trials", type=int, default=1, help="trials per prime")
    sp.add_argument("--threads", type=int, default=1,
                    help="parallel worker processes (default 1)")

    sp = sub.add_parser("support", help="product-representation support census")
    _add_common(sp, histogram=False)
    sp.add_argument("--sample", type=int, default=None,
                    help="census only this many sampled base pairs")
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    if hasattr(args, "primes"):
        try:
            primes = tuple(int(tok) for tok in args.primes.split(","))
        except ValueError:
            raise GridlinesError(f"bad --primes list {args.primes!r}") from None
    else:
        primes = (args.prime,)
    return ExperimentConfig(
        primes=primes,
        set_descriptor=args.set_descriptor,
        strategy=getattr(args, "strategy", None),
        trials=getattr(args, "trials", 1),
        seed=args.seed,
        threads=getattr(args, "threads", 1),
        timings=getattr(args, "timings", False),
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _config(args)
        if args.command in ("moments", "verify"):
            run = run_moments if args.command == "moments" else run_verify
            report = run(cfg)
            if args.fmt == "json":
                write_text(args.out, json.dumps(report.to_json_dict(), indent=2) + "\n")
            else:
                # CSV form: one sweep-style row for machine consumption.
                wall = (report.timings_ms or {}).get("histogram", 0.0)
                row = report_row(report, 0, wall)
                write_text(args.out, sweep_to_csv(SweepResult(cfg, [row])))
            return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED
        if args.command == "sweep":
            result = run_sweep(cfg)
            if args.fmt == "csv":
                write_text(args.out, sweep_to_csv(result))
            else:
                write_text(args.out, json.dumps(sweep_to_json_dict(result), indent=2) + "\n")
            return EXIT_OK if result.all_passed else EXIT_CHECK_FAILED
        if args.command == "support":
            summary = run_support(cfg, sample=args.sample)
            if args.fmt == "csv":
                write_text(args.out, support_to_csv(summary))
            else:
                write_text(args.out, json.dumps(support_to_json_dict(summary), indent=2) + "\n")
            return EXIT_OK
    except GridlinesError as exc:
        print(f"gridlines: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
