"""Correctness checks that do not rely on the program's own verdicts.

Everything here is written against the definitions, not against the
gridlines package:

* `moment_violations` re-derives the exact identities, the Proposition
  window and two Cauchy-Schwarz relations from reported power sums, in
  Python integers.
* `line_histogram` counts the incidences of every affine line itself,
  one slope at a time, and `power_sums` turns that histogram into
  s1..s4.  The per-slope profile is a cyclic correlation computed with a
  floating-point FFT; every entry is an integer of at most n, so it is
  rounded and the rounding error is checked to be far below 1/2.
* `product_counts` tabulates f(x) = #{(a2, a4) : (a1-a2)(a3-a4) = x}
  for one base pair with a plain bincount.
* `bernoulli_elements` rebuilds a Bernoulli set from the documented
  SplitMix64 rule (residue r kept iff output r of the stream is below
  floor(q * 2**64)), so sweep rows can be re-checked from their seed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

# Slopes per FFT batch; keeps each batch to a few MiB at p ~ 4000.
_SLOPE_BATCH = 256

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def moment_violations(p: int, n: int, s1: int, s2: int, t: int, q: int) -> List[str]:
    """Names of the exact relations that the reported power sums break."""
    bad = []
    if s1 != (p + 1) * n * n:
        bad.append(f"s1 = {s1} != (p+1) n^2 = {(p + 1) * n * n}")
    if s2 != n ** 4 + p * n * n:
        bad.append(f"s2 = {s2} != n^4 + p n^2 = {n ** 4 + p * n * n}")
    # |T - (n^6/p + 2 n^4)| <= p n^3, multiplied through by p
    if abs(p * t - n ** 6 - 2 * p * n ** 4) > p * p * n ** 3:
        bad.append(f"T = {t} outside the Proposition window")
    if s2 * s2 > s1 * t:
        bad.append("s2^2 > s1 * T")
    if t * t > s2 * q:
        bad.append("T^2 > s2 * Q")
    return bad


def line_histogram(p: int, elements: Iterable[int]) -> Dict[int, int]:
    """{k: number of affine lines meeting A x A in exactly k points}, k >= 1."""
    a = np.asarray(sorted(set(int(x) for x in elements)), dtype=np.int64)
    n = len(a)
    if n == 0:
        return {}
    indicator = np.zeros(p)
    indicator[a] = 1.0
    f_hat = np.fft.rfft(indicator)
    tally = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, p, _SLOPE_BATCH):
        slopes = np.arange(start, min(start + _SLOPE_BATCH, p), dtype=np.int64)
        rows = len(slopes)
        # g_m[u] = #{x in A : m x = u}; line y = m x + b then holds
        # sum_u g_m[u] * indicator[u + b] grid points (a correlation).
        keys = (slopes[:, None] * a[None, :]) % p + (np.arange(rows) * p)[:, None]
        g = np.bincount(keys.ravel(), minlength=rows * p).reshape(rows, p)
        g_hat = np.fft.rfft(g.astype(np.float64), axis=1)
        profile = np.fft.irfft(np.conj(g_hat) * f_hat[None, :], n=p, axis=1)
        rounded = np.rint(profile)
        if np.abs(profile - rounded).max() > 1e-3:
            raise ArithmeticError("FFT rounding error too large for an exact tally")
        tally += np.bincount(rounded.astype(np.int64).ravel(), minlength=n + 1)
    tally[n] += n  # vertical lines x = c for c in A; the other p - n are empty
    return {k: int(tally[k]) for k in range(1, n + 1) if tally[k]}


def power_sums(histogram: Dict[int, int]) -> Tuple[int, int, int, int]:
    """(s1, s2, s3, s4) = sums of k**r over all lines, in Python integers."""
    return tuple(sum(k ** r * c for k, c in histogram.items()) for r in (1, 2, 3, 4))


def product_counts(p: int, elements: Sequence[int], a1: int, a3: int) -> Tuple[int, int, int]:
    """(support size, sum f(x), sum f(x)**2) of the product table of one base pair."""
    a = np.asarray(elements, dtype=np.int64)
    prods = ((a1 - a)[:, None] % p) * ((a3 - a)[None, :] % p) % p
    f = np.bincount(prods.ravel(), minlength=p)
    return int(np.count_nonzero(f)), int(f.sum()), int((f * f).sum())


def census_violations(n: int, pairs, cs_lower_bound: Fraction) -> List[str]:
    """Checks every census row against sum f = n^2 via Cauchy-Schwarz."""
    bad = []
    n4 = n ** 4
    for a1, a3, support, m2 in pairs:
        # sum f = n^2 over `support` values forces n^2 <= m2 <= n^4 and
        # m2 * support >= n^4; support cannot exceed the n^2 pairs.
        if not (1 <= support <= n * n and n * n <= m2 <= n4 and m2 * support >= n4):
            bad.append(f"base pair ({a1}, {a3}): support {support}, second moment {m2}")
    if cs_lower_bound != sum((Fraction(n4, row[2]) for row in pairs), Fraction(0)):
        bad.append("cs_lower_bound differs from the sum of n^4 / support")
    return bad


def bernoulli_elements(p: int, q: Fraction, seed: int) -> List[int]:
    """Residues kept by the SplitMix64 Bernoulli rule at density q."""
    threshold = (q.numerator << 64) // q.denominator
    if threshold > _MASK64:
        return list(range(p))
    idx = np.arange(1, p + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return [int(r) for r in np.flatnonzero(z < np.uint64(threshold))]


def check_power_sums(p: int, elements: Sequence[int], ms, deep: bool) -> List[str]:
    """Relations on one reported MomentSet; with `deep`, an own recount too."""
    n = len(elements)
    bad = moment_violations(p, n, ms.s1, ms.s2, ms.s3, ms.s4)
    if deep and not bad:
        own = power_sums(line_histogram(p, elements))
        if own != (ms.s1, ms.s2, ms.s3, ms.s4):
            bad.append(f"power sums differ from an own per-slope tally at p={p}, n={n}")
    return bad


def check_report(p: int, elements: Sequence[int], report, deep: bool) -> List[str]:
    """A moments/verify report: size, relations, oracle agreement, verdicts."""
    bad = []
    if report.p != p or report.n != len(elements):
        bad.append(f"report is for p={report.p}, n={report.n}, not p={p}, n={len(elements)}")
        return bad
    bad += check_power_sums(p, elements, report.moment_set, deep)
    if report.oracle_t is not None and report.oracle_t != report.moment_set.s3:
        bad.append("brute-force T differs from the histogram's T")
    if report.oracle_q is not None and report.oracle_q != report.moment_set.s4:
        bad.append("brute-force Q differs from the histogram's Q")
    if report.strategy_equivalence is False:
        bad.append("histogram strategies disagree")
    if not bad and not report.overall_pass:
        bad.append("the program reports a failed check on a valid instance")
    return bad


def check_sweep(p: int, q: Fraction, trials: int, result, deep: bool) -> List[str]:
    """Every row's relations; with `deep`, the first row is rebuilt and recounted."""
    rows = result.rows
    if [(r.prime, r.trial) for r in rows] != [(p, i) for i in range(trials)]:
        return [f"sweep at p={p} returned the wrong rows"]
    bad = []
    for row in rows:
        for msg in moment_violations(p, row.n, row.s1, row.s2, row.t, row.q):
            bad.append(f"p={p} trial {row.trial}: {msg}")
        if not row.passed:
            bad.append(f"p={p} trial {row.trial}: the program reports a failed bound")
    if deep and not bad:
        row = rows[0]
        elements = bernoulli_elements(p, q, row.seed)
        if len(elements) != row.n:
            bad.append(f"p={p} trial 0: n={row.n}, but seed {row.seed} gives {len(elements)}")
        elif power_sums(line_histogram(p, elements)) != (row.s1, row.s2, row.t, row.q):
            bad.append(f"p={p} trial 0: power sums differ from an own per-slope tally")
    return bad


def check_census(p: int, elements: Sequence[int], summary, deep: bool) -> List[str]:
    """Every census row's relations; with `deep`, an own count of every table."""
    n = len(elements)
    if summary.n != n or summary.sampled or len(summary.pairs) != n * n:
        return [f"census at p={p} is not the full census of an {n}-set"]
    bad = census_violations(n, summary.pairs, summary.cs_lower_bound)
    if deep and not bad:
        for a1, a3, support, m2 in summary.pairs:
            own_support, total, own_m2 = product_counts(p, elements, a1, a3)
            if (own_support, total, own_m2) != (support, n * n, m2):
                bad.append(f"base pair ({a1}, {a3}) differs from an own product count")
    return bad
