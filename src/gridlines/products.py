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

One batched kernel, `_product_runs`, forms for a block of base pairs the
products of a row of each of two residue tables mod p, sorts each pair's
row and marks its run starts.  A block holds about 2**15 products (one
pair when a row is larger), so the transient arrays stay near 1 MB.  Two
reductions read it: `_product_moments` takes each pair's support from
the run starts and its second moment from the squared run lengths, and
`_run_length_counts` counts runs by length over all pairs.  The census
reads the difference table D[a, b] = a - b mod p; `oracle`'s algebraic
count and `incidence`'s sparse slope_direct read `_ratio_tables`, whose
pairs are the ratios (a1 - a2) / (a3 - a4).  Arrays come from
`fieldsets.element_array` in three tiers, so a product of two residues
never overflows: int32 while (p - 1)**2 < 2**31 (p <= 46337), int64
for p < 2**31 and object (Python integers) above.

A full census forms n**4 products and a sampled one sample * n**2;
support_census refuses more than CENSUS_BUDGET before doing any work.
Its rows are kept as columns, support sizes in
np.min_scalar_type(n**2) and second moments in np.min_scalar_type(n**4)
(uint16 and uint32 at n = 30) plus the int64 pair indices when sampled,
and `SupportSummary.pairs` is a read-only sequence view over them that
yields (a1, a3, support_size, second_moment) tuples of Python ints.

`product_rep_table` builds one table on its own (np.unique over the
n**2 products); it is the independent reference the census is tested
against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .errors import InvalidParameter
from .fieldsets import FieldSubset, element_array
from .rng import SplitMix64

# Products per kernel block: 2**15 values are 128 KiB per int32 array
# (256 KiB in int64).  On the host named below, 2**16 made the census at
# n = 30 no faster and doubled its traced peak (2.2 against 1.1 MiB).
_BLOCK_PRODUCTS = 1 << 15

# Most products one census may form (n**4 in full, sample * n**2
# sampled): a full census up to n = 128, about 3 s of kernel time on
# int32 residues and 4.4 s on int64 ones, measured on one core of a
# 2-core x86-64 host.
CENSUS_BUDGET = 1 << 28


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
    elems = element_array(A)
    d1 = (a1 - elems) % p
    d3 = (a3 - elems) % p
    prods = d1[:, None] * d3[None, :] % p
    values, counts = np.unique(prods.ravel(), return_counts=True)
    table = {int(v): int(c) for v, c in zip(values, counts)}
    return ProductRepTable(a1, a3, table)


def second_moment(t: ProductRepTable) -> int:
    """sum_x f(x)**2, the number of pair collisions including self-pairs."""
    return sum(c * c for c in t.table.values())


def _difference_table(A: FieldSubset) -> np.ndarray:
    """D[a, b] = a - b mod p over the elements of A, shape (n, n)."""
    elems = element_array(A)
    return (elems[:, None] - elems[None, :]) % A.p


def _inverses(values: np.ndarray, p: int) -> np.ndarray:
    """Inverses of nonzero residues mod p, as values**(p-2) mod p, in any
    dtype whose product of two residues fits, as element_dtype(p) does."""
    inverse = np.ones_like(values)
    base = values.copy()
    e = p - 2
    while e:
        if e & 1:
            inverse = inverse * base % p
        base = base * base % p
        e >>= 1
    return inverse


def _ratio_tables(A: FieldSubset) -> Tuple[np.ndarray, np.ndarray]:
    """Row a of the nonzero differences a - b and of their inverses, shape
    (n, n - 1): rows a1 and a3 give the ratios (a1 - a2) / (a3 - a4)."""
    n = A.n
    nonzero = _difference_table(A)[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    return nonzero, _inverses(nonzero, A.p)


def _product_runs(
    left: np.ndarray, right: np.ndarray, rows1: np.ndarray, rows3: np.ndarray, p: int
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield (start, stop, run_start) for each block of pairs start..stop-1.

    Pair j sorts its row of products left[rows1[j], i] * right[rows3[j], k]
    mod p over every (i, k); both residue tables need a column.
    run_start[j - start, c] is true where that row begins a run of equal
    products; the buffer is reused by the next block.
    """
    width = left.shape[1] * right.shape[1]
    block = max(1, min(len(rows1), _BLOCK_PRODUCTS // width))
    prods = np.empty((block, left.shape[1], right.shape[1]), np.result_type(left, right))
    quotients = np.empty_like(prods)
    run_start = np.ones((block, width), dtype=bool)
    for start in range(0, len(rows1), block):
        stop = min(start + block, len(rows1))
        out, quot = prods[:stop - start], quotients[:stop - start]
        np.multiply(left[rows1[start:stop], :, None], right[rows3[start:stop], None, :], out=out)
        # x - x // p * p: numpy divides by a scalar twice as fast as it takes %.
        out -= np.multiply(np.floor_divide(out, p, out=quot), p, out=quot)
        row = out.reshape(stop - start, width)
        row.sort(axis=1)
        np.not_equal(row[:, 1:], row[:, :-1], out=run_start[:stop - start, 1:])
        yield start, stop, run_start[:stop - start]


def _product_moments(
    left: np.ndarray, right: np.ndarray, rows1: np.ndarray, rows3: np.ndarray, p: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Support size and second moment of each pair's product table.

    Pairs are as in _product_runs.  Returns two arrays indexed like
    rows1, each of the narrowest unsigned dtype that holds its largest
    possible value: the support is at most the row width of products
    and the second moment at most width**2.
    """
    width = left.shape[1] * right.shape[1]
    supports = np.empty(len(rows1), dtype=np.min_scalar_type(width))
    moments = np.empty(len(rows1), dtype=np.min_scalar_type(width * width))
    for start, stop, run_start in _product_runs(left, right, rows1, rows3, p):
        runs = run_start.sum(axis=1)
        lengths = np.diff(np.flatnonzero(run_start), append=run_start.size)
        supports[start:stop] = runs
        moments[start:stop] = np.add.reduceat(lengths * lengths, np.cumsum(runs) - runs)
    return supports, moments


def _run_length_counts(
    left: np.ndarray, right: np.ndarray, rows1: np.ndarray, rows3: np.ndarray, p: int, size: int
) -> np.ndarray:
    """Entry L < size counts the runs of length L over the rows of _product_runs.

    On sparse ratio rows nearly every run has length 1, so only the
    entries that repeat their left neighbour (never a row's first) are
    grouped into the longer runs; the other entries are runs of length 1.
    """
    counts = np.zeros(size, dtype=np.int64)
    for _, _, run_start in _product_runs(left, right, rows1, rows3, p):
        repeats = np.flatnonzero(~run_start)
        firsts = np.flatnonzero(np.diff(repeats, prepend=-2) != 1)
        lengths = np.diff(firsts, append=len(repeats)) + 1
        counts += np.bincount(lengths, minlength=size)
        counts[1] += run_start.size - int(lengths.sum())
    return counts


class _CensusRows(Sequence):
    """Read-only census rows (a1, a3, support_size, second_moment).

    Stored as columns: pair k is (elements[k // n], elements[k % n]),
    for k = 0 .. n**2 - 1 in order, or k = index[i] when sampled.
    Slicing returns a list, and the view equals an equal list.
    """

    __slots__ = ("_elements", "supports", "moments", "_index")

    def __init__(self, elements: tuple, supports: np.ndarray, moments: np.ndarray,
                 index: Optional[np.ndarray]):
        for column in (supports, moments, index):
            if column is not None:
                column.setflags(write=False)
        self._elements = elements
        self.supports = supports
        self.moments = moments
        self._index = index

    def __len__(self) -> int:
        return len(self.supports)

    def __iter__(self):
        elements, n = self._elements, len(self._elements)
        index = range(len(self)) if self._index is None else self._index.tolist()
        for k, support, m2 in zip(index, self.supports.tolist(), self.moments.tolist()):
            yield elements[k // n], elements[k % n], support, m2

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        k = i if self._index is None else int(self._index[i])
        n = len(self._elements)
        return (self._elements[k // n], self._elements[k % n],
                int(self.supports[i]), int(self.moments[i]))

    def __eq__(self, other):
        if isinstance(other, (_CensusRows, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(frozen=True)
class SupportSummary:
    """Census of support sizes over base pairs (a1, a3) in A x A."""

    n: int
    p: int
    pairs: _CensusRows  # rows (a1, a3, support_size, second_moment)
    sampled: bool
    cs_lower_bound: Fraction  # sum of n**4 / support, scaled to the full census
    fitted_log_exponent: Optional[float] = field(default=None)

    # Support sizes are read through the row protocol, so a summary whose
    # pairs were replaced by a plain list of rows reports the same.
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


def _check_census_size(n: int) -> None:
    """Refuse an n-set one base pair of which forms over CENSUS_BUDGET products."""
    if n * n > CENSUS_BUDGET:
        raise InvalidParameter(
            f"no census of a {n}-set fits: one base pair forms {n * n} "
            f"products, over the budget of {CENSUS_BUDGET}; the limit is "
            f"n <= {math.isqrt(CENSUS_BUDGET)}")


def support_census(
    A: FieldSubset,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> SupportSummary:
    """Support sizes for all base pairs, or a seeded uniform sample.

    With sampling, cs_lower_bound is the sampled sum scaled by
    n**2 / sample so it estimates the full-census bound.  A census of
    more than CENSUS_BUDGET products is refused.
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
    census_pairs = total_pairs if sample is None else sample
    _check_census_size(n)
    if census_pairs * total_pairs > CENSUS_BUDGET:
        raise InvalidParameter(
            f"a census of {census_pairs} base pairs at n = {n} forms "
            f"{census_pairs * total_pairs} products, over the budget of "
            f"{CENSUS_BUDGET}; census at most {CENSUS_BUDGET // total_pairs} "
            f"pairs with --sample")
    if census_pairs == total_pairs:
        pair_indices = np.arange(total_pairs)
        index = None
    else:
        rng = SplitMix64(seed)
        chosen = set()
        while len(chosen) < sample:
            chosen.add(rng.below(total_pairs))
        pair_indices = index = np.array(sorted(chosen), dtype=np.int64)
    diffs = _difference_table(A)
    supports, moments = _product_moments(diffs, diffs, pair_indices // n, pair_indices % n, p)
    rows = _CensusRows(A.elements, supports, moments, index)
    n4 = n ** 4
    values, counts = np.unique(supports, return_counts=True)
    bound = sum(
        (Fraction(n4 * c, s) for s, c in zip(values.tolist(), counts.tolist())), Fraction(0))
    if index is not None:
        bound *= Fraction(total_pairs, census_pairs)
    mean = Fraction(int(supports.sum()), census_pairs)
    return SupportSummary(
        n=n,
        p=p,
        pairs=rows,
        sampled=index is not None,
        cs_lower_bound=bound,
        fitted_log_exponent=_fit_log_exponent(n, mean),
    )
