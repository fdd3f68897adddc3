"""Experiment harness: single runs, verification bundles, and sweeps.

Sweeps execute one task per (prime, trial) pair.  The trial seed is
trial_seed(base_seed, prime, index) from the rng module, so results are
reproducible row by row and extending the prime list never changes
existing rows.  Workers run in separate processes when threads > 1;
rows are sorted by (prime, trial) regardless of completion order, and
any failed trial aborts the whole sweep with its (prime, trial) context
attached.  The (prime, trial) pair is the only parallelism unit: the
histogram strategies are single-threaded by design, so worker processes
never oversubscribe the machine (one --threads knob, no nesting).

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

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import oracle
from .bounds import (
    VerificationReport,
    class_bound_check,
    expected_q,
    expected_t,
    proposition_check,
    ratio_diagnostics,
    render_fraction,
    root_fraction,
    verify_histogram,
)
from .errors import GridlinesError, InvalidParameter
from .fieldsets import SetSpec, parse_set_descriptor, validate_prime
from .incidence import (
    IncidenceHistogram,
    default_strategy,
    incidence_histogram,
    moments,
)
from .products import support_census
from .rng import trial_seed

# Cost guard for including the naive strategy in equivalence checks.
NAIVE_BUDGET = 20_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    primes: Tuple[int, ...]
    set_descriptor: str
    strategy: Optional[str] = None
    trials: int = 1
    seed: int = 0
    threads: int = 1
    t_cap: int = oracle.T_BRUTE_CAP
    q_cap: int = oracle.Q_BRUTE_CAP
    alg_cap: int = oracle.ALGEBRAIC_CAP
    timings: bool = False
    inject_fault: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameter("trials must be at least 1")
        if self.threads < 1:
            raise InvalidParameter("threads must be at least 1")
        if not self.primes:
            raise InvalidParameter("at least one prime is required")

    @property
    def spec(self) -> SetSpec:
        return parse_set_descriptor(self.set_descriptor)


def _realize(cfg: ExperimentConfig, prime: int, seed: Optional[int] = None):
    m = validate_prime(prime)
    spec = cfg.spec
    eff = seed if seed is not None else cfg.seed
    subset = spec.realize(m, eff)
    used_seed = spec.seed if spec.seed is not None else eff
    return m, subset, (used_seed if spec.is_random else eff)


def run_moments(cfg: ExperimentConfig) -> VerificationReport:
    """Histogram + moments + full verifier output for a single (p, A)."""
    if len(cfg.primes) != 1:
        raise InvalidParameter("moments runs on exactly one prime")
    _, subset, used_seed = _realize(cfg, cfg.primes[0])
    strategy = cfg.strategy or default_strategy(subset.p, subset.n)
    t0 = time.perf_counter()
    hist = incidence_histogram(subset, strategy)
    build_ms = (time.perf_counter() - t0) * 1000.0
    report = verify_histogram(hist, subset.provenance, used_seed, strategy)
    if cfg.timings:
        report.timings_ms = {"histogram": round(build_ms, 3)}
    return report


def _corrupt(hist: IncidenceHistogram) -> IncidenceHistogram:
    # Test-only negative control: shift one line from its true bin.
    counts = dict(hist.counts)
    counts[1] = counts.get(1, 0) + 1
    return IncidenceHistogram(hist.p, hist.n, counts)


def run_verify(cfg: ExperimentConfig) -> VerificationReport:
    """Identity suite plus strategy-equivalence and oracle cross-checks.

    The naive strategy joins the equivalence check only while
    p**2 * n stays under NAIVE_BUDGET; the two slope strategies are
    always compared.  Oracle cross-checks run when n is within caps.
    """
    if len(cfg.primes) != 1:
        raise InvalidParameter("verify runs on exactly one prime")
    _, subset, used_seed = _realize(cfg, cfg.primes[0])
    p, n = subset.p, subset.n
    strategy = cfg.strategy or default_strategy(p, n)
    t0 = time.perf_counter()
    hist = incidence_histogram(subset, strategy)
    build_ms = (time.perf_counter() - t0) * 1000.0
    s3 = moments(hist).s3  # taken before any injected fault
    if cfg.inject_fault:
        hist = _corrupt(hist)

    variants = {"slope_direct", "slope_fast", strategy}
    if p * p * max(n, 1) <= NAIVE_BUDGET:
        variants.add("naive")
    equivalent = True
    for variant in sorted(variants):
        if variant == strategy:
            continue
        other = incidence_histogram(subset, variant)
        if other.counts != hist.counts:
            equivalent = False
    report = verify_histogram(hist, subset.provenance, used_seed, strategy)
    report.strategy_equivalence = equivalent
    if n <= cfg.t_cap:
        report.oracle_t = oracle.t_brute(subset, cfg.t_cap)
    if n <= cfg.q_cap:
        report.oracle_q = oracle.q_brute(subset, cfg.q_cap)
    if n <= cfg.alg_cap:
        alg = oracle.algebraic_triple_count(subset, cfg.alg_cap, s3)
        report.algebraic_count = alg.count
        report.algebraic_delta = alg.delta
    if cfg.timings:
        report.timings_ms = {"histogram": round(build_ms, 3)}
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


def _sweep_trial(args: tuple) -> SweepRow:
    descriptor, strategy, base_seed, prime, trial = args
    seed = trial_seed(base_seed, prime, trial)
    m = validate_prime(prime)
    spec = parse_set_descriptor(descriptor)
    # Sweeps always derive per-trial seeds; a seed embedded in the
    # descriptor would repeat the identical set every trial.
    subset = spec.realize(m, seed) if spec.seed is None else replace(spec, seed=None).realize(m, seed)
    t0 = time.perf_counter()
    hist = incidence_histogram(subset, strategy or default_strategy(subset.p, subset.n))
    ms = moments(hist)
    prop = proposition_check(hist, ms)
    cls_bound = class_bound_check(hist)
    ratios = ratio_diagnostics(hist, ms)
    wall = (time.perf_counter() - t0) * 1000.0
    exp_t = expected_t(subset.p, subset.n)
    if ms.s1 != (subset.p + 1) * subset.n ** 2 or ms.s2 != subset.n ** 4 + subset.p * subset.n ** 2:
        raise GridlinesError(
            f"moment identity violated at p={prime}, trial={trial}: engine defect"
        )
    return SweepRow(
        prime=prime,
        trial=trial,
        seed=seed,
        n=subset.n,
        s1=ms.s1,
        s2=ms.s2,
        t=ms.s3,
        q=ms.s4,
        expected_t=exp_t,
        expected_q=expected_q(subset.p, subset.n),
        t_ratio=ratios.t_ratio,
        q_ratio=ratios.q_ratio,
        proposition_pass=prop.passed,
        class_bound_pass=cls_bound.passed,
        wall_time_ms=wall,
    )


@dataclass(frozen=True)
class SweepAggregate:
    rows_used: int
    mean_t_over_expected: Optional[Fraction]
    stddev_t_over_expected: Optional[Fraction]


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: List[SweepRow]
    aggregate: SweepAggregate

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _aggregate(rows: Sequence[SweepRow]) -> SweepAggregate:
    ratios = [r.t_over_expected for r in rows if r.t_over_expected is not None]
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
        validate_prime(prime)
    cfg.spec  # fail early on a bad descriptor
    tasks = [
        (cfg.set_descriptor, cfg.strategy, cfg.seed, prime, trial)
        for prime in cfg.primes
        for trial in range(cfg.trials)
    ]
    rows: List[SweepRow] = []
    if cfg.threads == 1:
        for task in tasks:
            rows.append(_run_task_with_context(task, _sweep_trial, task))
    else:
        # Imported here: the process-pool machinery would cost every
        # single-threaded run about 1 MiB of resident memory and 15 ms
        # of start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [(task, pool.submit(_sweep_trial, task)) for task in tasks]
            for task, fut in futures:
                rows.append(_run_task_with_context(task, fut.result))
    rows.sort(key=lambda r: (r.prime, r.trial))
    return SweepResult(cfg, rows, _aggregate(rows))


def _run_task_with_context(task: tuple, call, *args) -> SweepRow:
    # no silent row drops: any failure aborts with its (prime, trial)
    try:
        return call(*args)
    except Exception as exc:
        raise GridlinesError(
            f"sweep trial failed at prime={task[3]}, trial={task[4]}: {exc}"
        ) from exc


SWEEP_COLUMNS = [
    "prime", "trial", "seed", "n", "s1", "s2", "t", "q",
    "expected_t", "expected_q", "t_ratio", "q_ratio",
    "proposition_pass", "class_bound_pass",
]


def _row_fields(row: SweepRow, timings: bool) -> List[str]:
    def frac(x: Optional[Fraction]) -> str:
        return "" if x is None else render_fraction(x)

    out = [
        str(row.prime), str(row.trial), str(row.seed), str(row.n),
        str(row.s1), str(row.s2), str(row.t), str(row.q),
        frac(row.expected_t), frac(row.expected_q),
        frac(row.t_ratio), frac(row.q_ratio),
        str(int(row.proposition_pass)), str(int(row.class_bound_pass)),
    ]
    if timings:
        out.append(f"{row.wall_time_ms:.3f}")
    return out


def sweep_to_csv(result: SweepResult) -> str:
    timings = result.config.timings
    header = SWEEP_COLUMNS + (["wall_time_ms"] if timings else [])
    lines = [",".join(header)]
    for row in result.rows:
        lines.append(",".join(_row_fields(row, timings)))
    agg = result.aggregate
    footer = [""] * len(header)
    footer[0] = "aggregate"
    footer[1] = str(agg.rows_used)
    if agg.mean_t_over_expected is not None:
        footer[10] = render_fraction(agg.mean_t_over_expected)
        footer[11] = render_fraction(agg.stddev_t_over_expected)
    lines.append(",".join(footer))
    return "\n".join(lines) + "\n"


def sweep_to_json_dict(result: SweepResult) -> dict:
    agg = result.aggregate

    def frac(x: Optional[Fraction]) -> Optional[str]:
        return None if x is None else render_fraction(x)

    rows = []
    for row in result.rows:
        item = {
            "prime": row.prime,
            "trial": row.trial,
            "seed": row.seed,
            "n": row.n,
            "s1": row.s1,
            "s2": row.s2,
            "t": row.t,
            "q": row.q,
            "expected_t": frac(row.expected_t),
            "expected_q": frac(row.expected_q),
            "t_ratio": frac(row.t_ratio),
            "q_ratio": frac(row.q_ratio),
            "proposition_pass": row.proposition_pass,
            "class_bound_pass": row.class_bound_pass,
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
            "mean_t_over_expected": frac(agg.mean_t_over_expected),
            "stddev_t_over_expected": frac(agg.stddev_t_over_expected),
        },
        "all_passed": result.all_passed,
    }


def run_support(cfg: ExperimentConfig, sample: Optional[int] = None):
    """Support census for a single (p, A)."""
    if len(cfg.primes) != 1:
        raise InvalidParameter("support runs on exactly one prime")
    _, subset, _ = _realize(cfg, cfg.primes[0])
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
