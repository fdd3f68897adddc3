"""Identity and bound checks over an incidence histogram.

Two kinds of output are strictly separated:

  * exact-constant checks (pass/fail booleans computed in integer or
    rational arithmetic, never floating point):
      - first moment identity   s1 = (p+1) n**2
      - second moment identity  s2 = n**4 + p n**2
      - triple-count window     |s3 - (n**6/p + 2 n**4)| <= p n**3
      - dyadic class bound      lm_count(M) <= 4 p n**2 / M**2 for
        M >= 2 n**2/p, lm_count(M) = number of lines with M < i <= 2M
      - regime partition        low + mid + high = s_r

  * ratio diagnostics for the asymptotic bounds, where the implied
    constants are unknown: reported numbers with no pass/fail.

Square and fourth roots enter some diagnostics; root_fraction returns
the exact integer root when one exists (so e.g. the full-field triple
ratio is exactly 1) and a 16-digit rational approximation otherwise.
Rationals are rendered to decimal only at the report boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Dict, List, Optional, Tuple, Union

from .incidence import IncidenceHistogram, MomentSet, moments

RationalLike = Union[int, Fraction]

_ROOT_SCALE = 10 ** 16


def _iroot(value: int, r: int) -> int:
    """Floor of the r-th root for r in {2, 4} (isqrt composes for 4)."""
    if r == 2:
        return isqrt(value)
    if r == 4:
        return isqrt(isqrt(value))
    raise ValueError(f"unsupported root order {r}")


def root_fraction(value: int, r: int = 2) -> Fraction:
    """value**(1/r) as a Fraction: exact for perfect powers, else a
    16-significant-digit approximation."""
    if value < 0:
        raise ValueError("root of negative value")
    root = _iroot(value, r)
    if root ** r == value:
        return Fraction(root)
    scaled = _iroot(value * _ROOT_SCALE ** r, r)
    return Fraction(scaled, _ROOT_SCALE)


def render_fraction(x: Union[Fraction, int], digits: int = 12) -> str:
    """Decimal rendering with `digits` significant digits."""
    fr = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(fr.numerator) / Decimal(fr.denominator)
    return str(d)


# The random-model counts and regime cuts depend on (p, n) alone; reports
# for the same (p, n) share one copy of each.
@lru_cache(maxsize=256)
def expected_t(p: int, n: int) -> Fraction:
    """Random-model triple count n**6/p + 2 n**4 (exact rational)."""
    return Fraction(n ** 6, p) + 2 * n ** 4


@lru_cache(maxsize=256)
def expected_q(p: int, n: int) -> Fraction:
    """Random-model quadruple count n**8/p**2 + 2 n**5."""
    return Fraction(n ** 8, p * p) + 2 * n ** 5


@dataclass(frozen=True, slots=True)
class IdentityCheck:
    name: str
    observed: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.observed == self.expected


def first_moment_check(h: IncidenceHistogram, ms: MomentSet) -> IdentityCheck:
    return IdentityCheck("s1", ms.s1, (h.p + 1) * h.n ** 2)


def second_moment_check(h: IncidenceHistogram, ms: MomentSet) -> IdentityCheck:
    return IdentityCheck("s2", ms.s2, h.n ** 4 + h.p * h.n ** 2)


@dataclass(frozen=True, slots=True)
class PropositionCheck:
    """|s3 - expected_t| <= p * n**3, with constant exactly 1."""

    slack: Fraction
    bound: int

    @property
    def passed(self) -> bool:
        return self.slack <= self.bound


def proposition_check(h: IncidenceHistogram, ms: Optional[MomentSet] = None) -> PropositionCheck:
    ms = ms or moments(h)
    slack = abs(Fraction(ms.s3) - expected_t(h.p, h.n))
    return PropositionCheck(slack, h.p * h.n ** 3)


def lm_count(h: IncidenceHistogram, m: RationalLike) -> int:
    """Number of lines with M < i(line) <= 2M, M an arbitrary positive rational."""
    m = Fraction(m)
    if m <= 0:
        raise ValueError("M must be positive")
    return sum(c for k, c in h.counts.items() if m < k <= 2 * m)


def _dyadic_table(h: IncidenceHistogram) -> List[List[int]]:
    """Rows [lm_count, incidences] of the classes (2**j, 2**(j+1)], j < n.bit_length(),
    in one pass; a value above the last class (a corrupted histogram) is in none."""
    rows = [[0, 0] for _ in range(h.n.bit_length())]
    for k, c in h.counts.items():
        j = (k - 1).bit_length() - 1
        if k >= 2 and j < len(rows):
            rows[j][0] += c
            rows[j][1] += k * c
    return rows


@dataclass(frozen=True, slots=True)
class ClassBoundCheck:
    """Dyadic class sizes obey lm_count <= 4 p n**2 / M**2 for M >= 2 n**2 / p."""

    max_ratio: Fraction
    checked_levels: int

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1


def class_bound_check(h: IncidenceHistogram, table: Optional[list] = None) -> ClassBoundCheck:
    """Every class of the dyadic table with M >= 2 n**2 / p; higher classes are empty."""
    p, n = h.p, h.n
    table = _dyadic_table(h) if table is None else table
    max_ratio = Fraction(0)
    checked = 0
    for j, (lm, _) in enumerate(table):
        m = 1 << j
        if m * p < 2 * n * n:  # hypothesis M >= 2 n**2 / p, exact form
            continue
        checked += 1
        max_ratio = max(max_ratio, Fraction(lm * m * m, 4 * p * n * n))
    return ClassBoundCheck(max_ratio, checked)


@dataclass(frozen=True, slots=True)
class RegimeReport:
    """Moment mass split at cut1 = 2 n**2 / p and cut2 = 2 n**(3/2) / p**(1/2).

    Intervals are [0, cut1], (cut1, cut2], (cut2, n]: half-open so the
    three sums partition s_r exactly.  Membership is decided by the
    equivalent integer comparisons k*p <= 2 n**2 and k**2 * p <= 4 n**3;
    the stored cut2 is a display approximation (exact when 4 n**3 / p is
    a perfect rational square).
    """

    exponent: int
    cut1: Fraction
    cut2: Fraction
    low_sum: int
    mid_sum: int
    high_sum: int

    @property
    def total(self) -> int:
        return self.low_sum + self.mid_sum + self.high_sum


def regime_decomposition(h: IncidenceHistogram, r: int) -> RegimeReport:
    if r not in (3, 4):
        raise ValueError("exponent must be 3 or 4")
    p, n = h.p, h.n
    low = mid = high = 0
    for k, c in h.counts.items():
        term = k ** r * c
        if k * p <= 2 * n * n:
            low += term
        elif k * k * p <= 4 * n ** 3:
            mid += term
        else:
            high += term
    return RegimeReport(r, *_regime_cuts(p, n), low, mid, high)


@lru_cache(maxsize=256)
def _regime_cuts(p: int, n: int) -> Tuple[Fraction, Fraction]:
    cut1 = Fraction(2 * n * n, p)
    cut2 = 2 * root_fraction(n ** 3 * p) / p  # 2 sqrt(n**3/p) = 2 sqrt(n**3 p)/p
    return cut1, cut2


@dataclass(frozen=True, slots=True)
class DyadicRow:
    """Per-level diagnostics for the dyadic class (M, 2M], M = 2**j.

    Only the counts are stored; the exact ratios are derived on access,
    which keeps a report small when many are held at once.
    """

    level: int
    m: int
    lm_count: int
    incidences: int  # sum of k * counts[k] over the class
    p: int
    n: int

    @property
    def class_bound_limit(self) -> Fraction:
        """4 p n**2 / M**2, ceiling for lm_count."""
        return Fraction(4 * self.p * self.n * self.n, self.m * self.m)

    @property
    def lm_bound_ratio(self) -> Fraction:
        """lm_count * M**4 / n**5."""
        return Fraction(self.lm_count * self.m ** 4, self.n ** 5)

    @property
    def three_quarter_applicable(self) -> bool:
        """n * lm_count <= p**2."""
        return self.n * self.lm_count <= self.p * self.p

    @property
    def three_quarter_ratio(self) -> Optional[Fraction]:
        """incidences / (lm_count**3 n**5)**(1/4), where applicable."""
        if not self.three_quarter_applicable or self.lm_count == 0:
            return None
        return self.incidences / root_fraction(self.lm_count ** 3 * self.n ** 5, 4)


@dataclass(frozen=True, slots=True)
class RatioDiagnostics:
    """Diagnostic ratios against the asymptotic bounds (no pass/fail)."""

    t_ratio: Optional[Fraction]  # s3 / (n**6/p + sqrt(p) n**(7/2))
    q_ratio: Optional[Fraction]  # s4 / (n**8/p**2 + max(ln n, 1) n**5)
    nine_halves_ratio: Optional[Fraction]  # s3 / n**(9/2)
    dyadic: List[DyadicRow] = field(default_factory=list)


def ratio_diagnostics(
    h: IncidenceHistogram, ms: Optional[MomentSet] = None, table: Optional[list] = None
) -> RatioDiagnostics:
    ms = ms or moments(h)
    p, n = h.p, h.n
    if n == 0:
        return RatioDiagnostics(None, None, None, [])
    t_den = Fraction(n ** 6, p) + root_fraction(p * n ** 7)
    log_term = Fraction(math.log(n)) if math.log(n) > 1 else Fraction(1)
    q_den = Fraction(n ** 8, p * p) + log_term * n ** 5
    table = _dyadic_table(h) if table is None else table
    # one row per class (M, 2M] that can hold a value in [2, n] with M < n
    rows = [
        DyadicRow(level=j, m=1 << j, lm_count=lm, incidences=incid, p=p, n=n)
        for j, (lm, incid) in enumerate(table[: (n - 1).bit_length()])
    ]
    return RatioDiagnostics(
        t_ratio=ms.s3 / t_den,
        q_ratio=ms.s4 / q_den,
        nine_halves_ratio=ms.s3 / root_fraction(n ** 9),
        dyadic=rows,
    )


@dataclass(slots=True)
class VerificationReport:
    """Full structured record of one verification run.

    Exact checks land in `passed`-style booleans; everything irrational
    is a diagnostic.  overall_pass covers only the exact-constant
    checks (identities, triple-count window, dyadic class bound) plus
    any optional cross-checks that were actually run, among them the
    "s3" identity that `harness.run_verify` appends to `identities`.
    """

    p: int
    n: int
    descriptor: str
    seed: Optional[int]
    strategy: str
    moment_set: MomentSet
    identities: List[IdentityCheck]
    expected_t: Fraction
    expected_q: Fraction
    proposition: PropositionCheck
    class_bound: ClassBoundCheck
    regimes: Dict[int, RegimeReport]
    ratios: RatioDiagnostics
    strategy_equivalence: Optional[bool] = None
    oracle_t: Optional[int] = None
    oracle_q: Optional[int] = None
    timings_ms: Optional[Dict[str, float]] = None

    @property
    def regime_partition_ok(self) -> bool:
        return (
            self.regimes[3].total == self.moment_set.s3
            and self.regimes[4].total == self.moment_set.s4
        )

    @property
    def oracle_ok(self) -> Optional[bool]:
        checks = []
        if self.oracle_t is not None:
            checks.append(self.oracle_t == self.moment_set.s3)
        if self.oracle_q is not None:
            checks.append(self.oracle_q == self.moment_set.s4)
        return all(checks) if checks else None

    @property
    def overall_pass(self) -> bool:
        ok = (
            all(c.passed for c in self.identities)
            and self.proposition.passed
            and self.class_bound.passed
            and self.regime_partition_ok
        )
        if self.strategy_equivalence is not None:
            ok = ok and self.strategy_equivalence
        if self.oracle_ok is not None:
            ok = ok and self.oracle_ok
        return ok

    def to_json_dict(self) -> dict:
        def frac(x: Optional[Fraction]) -> Optional[str]:
            return None if x is None else render_fraction(x)

        out = {
            "schema_version": 1,
            "config": {
                "p": self.p,
                "n": self.n,
                "set": self.descriptor,
                "seed": self.seed,
                "strategy": self.strategy,
            },
            "moments": {
                "s1": self.moment_set.s1,
                "s2": self.moment_set.s2,
                "t": self.moment_set.s3,
                "q": self.moment_set.s4,
            },
            "identities": {
                c.name: {
                    "observed": c.observed,
                    "expected": c.expected,
                    "pass": c.passed,
                }
                for c in self.identities
            },
            "expected": {
                "t": frac(self.expected_t),
                "q": frac(self.expected_q),
            },
            "proposition": {
                "slack": frac(self.proposition.slack),
                "slack_exact": str(self.proposition.slack),
                "bound": self.proposition.bound,
                "pass": self.proposition.passed,
            },
            "class_bound": {
                "max_ratio": frac(self.class_bound.max_ratio),
                "max_ratio_exact": str(self.class_bound.max_ratio),
                "checked_levels": self.class_bound.checked_levels,
                "pass": self.class_bound.passed,
            },
            "regimes": {
                str(r): {
                    "cut1": frac(rep.cut1),
                    "cut2": frac(rep.cut2),
                    "low": rep.low_sum,
                    "mid": rep.mid_sum,
                    "high": rep.high_sum,
                    "partition_ok": rep.total == getattr(self.moment_set, f"s{r}"),
                }
                for r, rep in sorted(self.regimes.items())
            },
            "asymptotic_ratios": {
                "t_ratio": frac(self.ratios.t_ratio),
                "q_ratio": frac(self.ratios.q_ratio),
                "nine_halves_ratio": frac(self.ratios.nine_halves_ratio),
            },
            "dyadic": [
                {
                    "level": row.level,
                    "M": row.m,
                    "lm_count": row.lm_count,
                    "incidences": row.incidences,
                    "class_bound_limit": frac(row.class_bound_limit),
                    "lm_bound_ratio": frac(row.lm_bound_ratio),
                    "three_quarter_applicable": row.three_quarter_applicable,
                    "three_quarter_ratio": frac(row.three_quarter_ratio),
                }
                for row in self.ratios.dyadic
            ],
            "overall_pass": self.overall_pass,
        }
        if self.strategy_equivalence is not None:
            out["strategy_equivalence"] = self.strategy_equivalence
        if self.oracle_t is not None or self.oracle_q is not None:
            out["oracle"] = {
                "t_brute": self.oracle_t,
                "q_brute": self.oracle_q,
                "match": self.oracle_ok,
            }
        if self.timings_ms is not None:
            out["timings_ms"] = self.timings_ms
        return out


def verify_histogram(
    h: IncidenceHistogram,
    descriptor: str = "",
    seed: Optional[int] = None,
) -> VerificationReport:
    """Run every check that needs only the histogram itself."""
    ms = moments(h)
    table = _dyadic_table(h)
    return VerificationReport(
        p=h.p,
        n=h.n,
        descriptor=descriptor,
        seed=seed,
        strategy=h.strategy,
        moment_set=ms,
        identities=[first_moment_check(h, ms), second_moment_check(h, ms)],
        expected_t=expected_t(h.p, h.n),
        expected_q=expected_q(h.p, h.n),
        proposition=proposition_check(h, ms),
        class_bound=class_bound_check(h, table),
        regimes={3: regime_decomposition(h, 3), 4: regime_decomposition(h, 4)},
        ratios=ratio_diagnostics(h, ms, table),
    )
