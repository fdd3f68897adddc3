"""Product-representation counts f(x) = #{(a2, a4) : (a1-a2)(a3-a4) = x}.

For a fixed base pair (a1, a3), the function f tabulates how many ways
each field element is written as a product of differences against A.
Its support size controls a Cauchy-Schwarz lower bound on the collinear
triple count:

    sum_x f(x)    = n**2                    (each (a2, a4) pair counts once)
    sum_x f(x)**2 >= n**4 / |supp(f)|       (Cauchy-Schwarz, exact)

summed over base pairs.  Structured sets (intervals, progressions) have
markedly smaller supports than random ones, which is what the census
quantifies.  The fitted exponent reported by the census is a plain
least-action fit of mean_support = n**2 / (ln n)**gamma and carries no
proven meaning; it is a diagnostic only.

A table is one numpy pass over the n**2 pairs: an outer product of the
differences and np.unique.  The element array is int64 for p < 2**31 and
object (Python integers) above, where the products would overflow int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import InvalidParameter
from .fieldsets import FieldSubset
from .rng import SplitMix64

# Below this modulus the difference products fit in int64; above it the
# same array code runs on Python integers (dtype object).
_INT64_P_LIMIT = 1 << 31


@dataclass(frozen=True)
class ProductRepTable:
    """Sparse table of product-representation counts for one base pair."""

    a1: int
    a3: int
    table: Dict[int, int]

    @property
    def support_size(self) -> int:
        return len(self.table)

    @property
    def total(self) -> int:
        return sum(self.table.values())


def product_rep_table(A: FieldSubset, a1: int, a3: int) -> ProductRepTable:
    """Exact table by enumerating all n**2 pairs (a2, a4)."""
    p = A.p
    elems = np.array(A.elements, dtype=np.int64 if p < _INT64_P_LIMIT else object)
    d1 = (a1 - elems) % p
    d3 = (a3 - elems) % p
    prods = d1[:, None] * d3[None, :] % p
    values, counts = np.unique(prods.ravel(), return_counts=True)
    table = {int(v): int(c) for v, c in zip(values, counts)}
    return ProductRepTable(a1, a3, table)


def second_moment(t: ProductRepTable) -> int:
    """sum_x f(x)**2, the number of pair collisions including self-pairs."""
    return sum(c * c for c in t.table.values())


@dataclass(frozen=True)
class SupportSummary:
    """Census of support sizes over base pairs (a1, a3) in A x A."""

    n: int
    p: int
    pairs: List[Tuple[int, int, int, int]]  # (a1, a3, support_size, second_moment)
    sampled: bool
    cs_lower_bound: Fraction  # sum of n**4 / support, scaled to the full census
    fitted_log_exponent: Optional[float] = field(default=None)

    @property
    def min_support(self) -> int:
        return min(row[2] for row in self.pairs)

    @property
    def max_support(self) -> int:
        return max(row[2] for row in self.pairs)

    @property
    def mean_support(self) -> Fraction:
        return Fraction(sum(row[2] for row in self.pairs), len(self.pairs))


def _fit_log_exponent(n: int, mean_support: Fraction) -> Optional[float]:
    # mean = n**2 / (ln n)**g  =>  g = ln(n**2 / mean) / ln(ln n)
    if n < 3 or mean_support <= 0:
        return None
    log_log = math.log(math.log(n))
    if log_log <= 0:
        return None
    return math.log(n * n / float(mean_support)) / log_log


def support_census(
    A: FieldSubset,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> SupportSummary:
    """Support sizes for all base pairs, or a seeded uniform sample.

    With sampling, cs_lower_bound is the sampled sum scaled by
    n**2 / sample so it estimates the full-census bound.
    """
    n, p = A.n, A.p
    if n == 0:
        raise InvalidParameter("census needs a nonempty set")
    total_pairs = n * n
    if sample is not None:
        if not 1 <= sample <= total_pairs:
            raise InvalidParameter(f"sample must be in [1, {total_pairs}]")
        if sample < total_pairs and seed is None:
            raise InvalidParameter("sampled census needs a seed")
    pair_indices: List[int]
    if sample is None or sample == total_pairs:
        pair_indices = list(range(total_pairs))
        sampled = False
    else:
        rng = SplitMix64(seed)
        chosen = set()
        while len(chosen) < sample:
            chosen.add(rng.below(total_pairs))
        pair_indices = sorted(chosen)
        sampled = True
    rows = []
    bound = Fraction(0)
    n4 = n ** 4
    for idx in pair_indices:
        a1 = A.elements[idx // n]
        a3 = A.elements[idx % n]
        t = product_rep_table(A, a1, a3)
        rows.append((a1, a3, t.support_size, second_moment(t)))
        bound += Fraction(n4, t.support_size)
    if sampled:
        bound *= Fraction(total_pairs, len(pair_indices))
    mean = Fraction(sum(r[2] for r in rows), len(rows))
    return SupportSummary(
        n=n,
        p=p,
        pairs=rows,
        sampled=sampled,
        cs_lower_bound=bound,
        fitted_log_exponent=_fit_log_exponent(n, mean),
    )
