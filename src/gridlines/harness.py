"""Experiment harness: single runs, verification bundles, and sweeps.

Sweeps execute one task per (prime, trial) pair.  The trial seed is
trial_seed(base_seed, prime, index) from the rng module, so results are
reproducible row by row and extending the prime list never changes
existing rows.  Workers run in separate processes when threads > 1,
at most one per task and per CPU; rows are sorted by (prime, trial)
regardless of completion order, and any failed trial aborts the whole
sweep with its (prime, trial) context attached.  The (prime, trial)
pair is the only parallelism unit: the histogram strategies are
single-threaded by design, so worker processes never oversubscribe the
machine (one --threads knob, no nesting).

Output determinism: with identical config and seed, the emitted JSON
and CSV are byte-identical.  Wall-clock timings are therefore only
included when explicitly requested (timings=True / --timings).

CSV dialect: comma-separated, header row, LF newlines, no quoting (all
data fields are numeric).  The final row is the aggregate: the first
field is the literal word `aggregate`, the second the number of rows
aggregated, and the t_ratio / q_ratio columns hold the mean and sample
standard deviation of t / expected_t over those rows.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import oracle
from .bounds import (
    IdentityCheck, VerificationReport, render_fraction, root_fraction, verify_histogram,
)
from .errors import GridlinesError, InvalidParameter
from .fieldsets import FieldSubset, parse_set_descriptor, validate_prime
from .incidence import IncidenceHistogram, _check_engine_prime, incidence_histogram
from .products import support_census
from .rng import trial_seed

# Cost guard for including the naive strategy in equivalence checks:
# p**2 n <= 2e7 membership lookups, about 50 ms of naive.
NAIVE_BUDGET = 20_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    primes: Tuple[int, ...]
    set_descriptor: str
    strategy: Optional[str] = None
    trials: int = 1
    seed: int = 0
    threads: int = 1
    timings: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameter("trials must be at least 1")
        if self.threads < 1:
            raise InvalidParameter("threads must be at least 1")
        if not self.primes:
            raise InvalidParameter("at least one prime is required")
        if len(set(self.primes)) != len(self.primes):
            raise InvalidParameter(f"primes must be distinct, got {list(self.primes)}")


def _single_prime(cfg: ExperimentConfig, command: str) -> Tuple[FieldSubset, int]:
    """The subset of a one-prime run and the seed that built it."""
    if len(cfg.primes) != 1:
        raise InvalidParameter(f"{command} runs on exactly one prime")
    spec = parse_set_descriptor(cfg.set_descriptor)
    modulus = validate_prime(cfg.primes[0])
    if command != "support":  # refuse before building; the census has its own budget
        _check_engine_prime(modulus.p)
    subset = spec.realize(modulus, cfg.seed)
    return subset, spec.seed if spec.seed is not None else cfg.seed


def _timed(timings: Dict[str, float], name: str, call, *args):
    """call(*args), recording its wall time in milliseconds under name."""
    t0 = time.perf_counter()
    result = call(*args)
    timings[name] = round((time.perf_counter() - t0) * 1000.0, 3)
    return result


def run_moments(cfg: ExperimentConfig) -> VerificationReport:
    """Histogram + moments + full verifier output for a single (p, A)."""
    subset, used_seed = _single_prime(cfg, "moments")
    timings: Dict[str, float] = {}
    hist = _timed(timings, "histogram", incidence_histogram, subset, cfg.strategy)
    report = verify_histogram(hist, subset.provenance, used_seed)
    if cfg.timings:
        report.timings_ms = timings
    return report


def _corrupt(hist: IncidenceHistogram) -> IncidenceHistogram:
    # Test-only negative control: shift one line from its true bin.
    counts = dict(hist.counts)
    counts[1] = counts.get(1, 0) + 1
    return replace(hist, counts=counts)


def run_verify(cfg: ExperimentConfig) -> VerificationReport:
    """Identity suite plus strategy-equivalence and oracle cross-checks.

    The naive strategy joins the equivalence check only while
    p**2 * n stays under NAIVE_BUDGET; the two slope strategies are
    always compared.  Each oracle runs while n is within its `oracle`
    cap; the ratio-equation count adds the exact "s3" identity.
    With timings, each build and oracle is timed: "histogram" for the
    first build, "histogram:<strategy>" for each equivalence build, and
    "t_brute", "q_brute" and "algebraic".
    """
    subset, used_seed = _single_prime(cfg, "verify")
    p, n = subset.p, subset.n
    timings: Dict[str, float] = {}
    hist = _timed(timings, "histogram", incidence_histogram, subset, cfg.strategy)

    variants = {"slope_direct", "slope_fast", hist.strategy}
    if p * p * max(n, 1) <= NAIVE_BUDGET:
        variants.add("naive")
    equivalent = True
    for variant in sorted(variants):
        if variant == hist.strategy:
            continue
        other = _timed(timings, f"histogram:{variant}", incidence_histogram, subset, variant)
        if other.counts != hist.counts:
            equivalent = False
    report = verify_histogram(hist, subset.provenance, used_seed)
    report.strategy_equivalence = equivalent
    if n <= oracle.T_BRUTE_CAP:
        report.oracle_t = _timed(timings, "t_brute", oracle.t_brute, subset)
    if n <= oracle.Q_BRUTE_CAP:
        report.oracle_q = _timed(timings, "q_brute", oracle.q_brute, subset)
    if n <= oracle.ALGEBRAIC_CAP:
        count = _timed(timings, "algebraic", oracle.algebraic_triple_count, subset)
        report.identities.append(IdentityCheck(
            "s3", report.moment_set.s3, count + 4 * n**4 - 4 * n**3 + (p + 1) * n**2))
    if cfg.timings:
        report.timings_ms = timings
    return report


@dataclass(frozen=True)
class SweepRow:
    prime: int
    trial: int
    seed: int
    n: int
    s1: int
    s2: int
    t: int
    q: int
    expected_t: Fraction
    expected_q: Fraction
    t_ratio: Optional[Fraction]
    q_ratio: Optional[Fraction]
    proposition_pass: bool
    class_bound_pass: bool
    wall_time_ms: float

    @property
    def t_over_expected(self) -> Optional[Fraction]:
        if self.expected_t == 0:
            return None
        return Fraction(self.t) / self.expected_t

    @property
    def passed(self) -> bool:
        return self.proposition_pass and self.class_bound_pass


def report_row(report: VerificationReport, trial: int, wall_ms: float) -> SweepRow:
    """The sweep row of one verified histogram."""
    ms = report.moment_set
    return SweepRow(
        prime=report.p,
        trial=trial,
        seed=report.seed,
        n=report.n,
        s1=ms.s1,
        s2=ms.s2,
        t=ms.s3,
        q=ms.s4,
        expected_t=report.expected_t,
        expected_q=report.expected_q,
        t_ratio=report.ratios.t_ratio,
        q_ratio=report.ratios.q_ratio,
        proposition_pass=report.proposition.passed,
        class_bound_pass=report.class_bound.passed,
        wall_time_ms=wall_ms,
    )


def _sweep_trial(args: tuple) -> SweepRow:
    descriptor, strategy, base_seed, prime, trial = args
    seed = trial_seed(base_seed, prime, trial)
    # Sweeps always derive per-trial seeds; a seed embedded in the
    # descriptor would repeat the identical set every trial.
    spec = replace(parse_set_descriptor(descriptor), seed=None)
    subset = spec.realize(validate_prime(prime), seed)
    t0 = time.perf_counter()
    hist = incidence_histogram(subset, strategy)
    report = verify_histogram(hist, subset.provenance, seed)
    wall = (time.perf_counter() - t0) * 1000.0
    if not all(check.passed for check in report.identities):
        raise GridlinesError(
            f"moment identity violated at p={prime}, trial={trial}: engine defect"
        )
    return report_row(report, trial, wall)


@dataclass(frozen=True)
class SweepAggregate:
    rows_used: int
    mean_t_over_expected: Optional[Fraction]
    stddev_t_over_expected: Optional[Fraction]


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: List[SweepRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def aggregate(self) -> SweepAggregate:
        ratios = [r.t_over_expected for r in self.rows if r.t_over_expected is not None]
        if not ratios:
            return SweepAggregate(0, None, None)
        mean = sum(ratios, Fraction(0)) / len(ratios)
        if len(ratios) == 1:
            return SweepAggregate(1, mean, Fraction(0))
        var = sum((x - mean) ** 2 for x in ratios) / (len(ratios) - 1)
        std = root_fraction(var.numerator * var.denominator) / var.denominator
        return SweepAggregate(len(ratios), mean, std)


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run trials for every prime; abort on the first failed trial."""
    for prime in cfg.primes:
        _check_engine_prime(validate_prime(prime).p)
    parse_set_descriptor(cfg.set_descriptor)  # fail early on a bad descriptor
    tasks = [
        (cfg.set_descriptor, cfg.strategy, cfg.seed, prime, trial)
        for prime in cfg.primes
        for trial in range(cfg.trials)
    ]
    rows: List[SweepRow] = []
    # The pool forks all its workers at the first submit, so more than
    # one per task or per CPU would only cost processes.
    workers = min(cfg.threads, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        for task in tasks:
            rows.append(_run_task_with_context(task, _sweep_trial, task))
    else:
        # Imported here: the process-pool machinery would cost every
        # single-threaded run about 1 MiB of resident memory and 15 ms
        # of start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(task, pool.submit(_sweep_trial, task)) for task in tasks]
            for task, fut in futures:
                rows.append(_run_task_with_context(task, fut.result))
    rows.sort(key=lambda r: (r.prime, r.trial))
    return SweepResult(cfg, rows)


def _run_task_with_context(task: tuple, call, *args) -> SweepRow:
    # no silent row drops: any failure aborts with its (prime, trial)
    try:
        return call(*args)
    except Exception as exc:
        raise GridlinesError(
            f"sweep trial failed at prime={task[3]}, trial={task[4]}: {exc}"
        ) from exc


# The sweep columns are SweepRow fields; CSV and JSON render the same
# values in this order.
SWEEP_COLUMNS = [
    "prime", "trial", "seed", "n", "s1", "s2", "t", "q",
    "expected_t", "expected_q", "t_ratio", "q_ratio",
    "proposition_pass", "class_bound_pass",
]


def _row_values(row: SweepRow) -> list:
    return [getattr(row, column) for column in SWEEP_COLUMNS]


def _json_cell(value):
    return render_fraction(value) if isinstance(value, Fraction) else value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return render_fraction(value)
    return str(int(value))  # ints, and bools as 0/1


def sweep_to_csv(result: SweepResult) -> str:
    timings = result.config.timings
    header = SWEEP_COLUMNS + (["wall_time_ms"] if timings else [])
    lines = [",".join(header)]
    for row in result.rows:
        cells = [_csv_cell(v) for v in _row_values(row)]
        if timings:
            cells.append(f"{row.wall_time_ms:.3f}")
        lines.append(",".join(cells))
    agg = result.aggregate
    footer = [""] * len(header)
    footer[0] = "aggregate"
    footer[1] = str(agg.rows_used)
    if agg.mean_t_over_expected is not None:
        footer[SWEEP_COLUMNS.index("t_ratio")] = render_fraction(agg.mean_t_over_expected)
        footer[SWEEP_COLUMNS.index("q_ratio")] = render_fraction(agg.stddev_t_over_expected)
    lines.append(",".join(footer))
    return "\n".join(lines) + "\n"


def sweep_to_json_dict(result: SweepResult) -> dict:
    agg = result.aggregate
    rows = []
    for row in result.rows:
        item = {
            column: _json_cell(v) for column, v in zip(SWEEP_COLUMNS, _row_values(row))
        }
        if result.config.timings:
            item["wall_time_ms"] = round(row.wall_time_ms, 3)
        rows.append(item)
    return {
        "schema_version": 1,
        "config": {
            "primes": list(result.config.primes),
            "set": result.config.set_descriptor,
            "strategy": result.config.strategy,
            "trials": result.config.trials,
            "seed": result.config.seed,
        },
        "rows": rows,
        "aggregate": {
            "rows": agg.rows_used,
            "mean_t_over_expected": _json_cell(agg.mean_t_over_expected),
            "stddev_t_over_expected": _json_cell(agg.stddev_t_over_expected),
        },
        "all_passed": result.all_passed,
    }


def run_support(cfg: ExperimentConfig, sample: Optional[int] = None):
    """Support census for a single (p, A)."""
    subset, _ = _single_prime(cfg, "support")
    return support_census(subset, sample=sample, seed=cfg.seed)


def support_to_csv(summary) -> str:
    lines = ["a1,a3,support_size,second_moment"]
    for a1, a3, supp, m2 in summary.pairs:
        lines.append(f"{a1},{a3},{supp},{m2}")
    return "\n".join(lines) + "\n"


def support_to_json_dict(summary) -> dict:
    return {
        "schema_version": 1,
        "n": summary.n,
        "p": summary.p,
        "sampled": summary.sampled,
        "pairs": [
            {"a1": a1, "a3": a3, "support_size": s, "second_moment": m2}
            for a1, a3, s, m2 in summary.pairs
        ],
        "min_support": summary.min_support,
        "mean_support": render_fraction(summary.mean_support),
        "max_support": summary.max_support,
        "cs_lower_bound": render_fraction(summary.cs_lower_bound),
        "fitted_log_exponent": summary.fitted_log_exponent,
    }


def write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
