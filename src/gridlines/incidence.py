"""Line enumeration, incidence counting, and exact moment computation.

For a subset A of the prime field, the point set is the grid A x A and
the line family is all p**2 + p affine lines: Sloped(m, b) is
y = m*x + b and Vertical(c) is x = c.  The incidence count i(line) is
the number of grid points on the line.  The histogram maps each
incidence value k >= 1 to the number of lines attaining it; lines that
miss the grid entirely are only tracked through the derived zero_lines
count.

The power sums of the histogram are the central statistics:

    s1 = sum i(line)      = (p+1) * n**2        (every point on p+1 lines)
    s2 = sum i(line)**2   = n**4 + p * n**2     (second-moment identity)
    s3 = sum i(line)**3   = collinear triple count
    s4 = sum i(line)**4   = collinear quadruple count

Three build strategies produce bit-identical histograms:

    naive         count every line from its own equation, p**2 n
                  membership lookups, vectorized per chunk of slopes
    slope_direct  per-slope residue tally of y - m*x, ~p n**2 / 2 keys;
                  for p > 2 n**2 runs of equal ratios, ~n**4 / 2 products
    slope_fast    exact cyclic convolution, k slopes per transform,
                  ~(p/2) L log2 L / k, with L = ntt.conv_length(p) the
                  transform length and k = _digit_capacity(n)

Each strategy is one tally _tally_<strategy>(A, acc) that adds the
counts-of-counts of the p**2 sloped lines into one accumulator.  Only
incidence_histogram picks the tally: given no strategy it applies
default_strategy and logs the choice (the CLI's --verbose).  It refuses
p > ENGINE_MAX_P before allocating anything (_check_engine_prime, which
the harness also calls before it builds a set), adds the vertical family
(n lines x = c, c in A, each through a full column of the grid) and
records the strategy in the histogram.

slope_fast and dense slope_direct group work per slope and use the
inverse-slope symmetry: swapping coordinates maps A x A onto itself and
the line y = m*x + b (m != 0) onto y = x/m - b/m, so slopes m and 1/m
have the same multiset of incidence counts.  Each tallies one slope of
every class {m, 1/m}, counted twice (once for the self-inverse slopes 1
and p - 1).  Both slope strategies add slope 0 in closed form.
Per-slope results merge by plain addition, so slopes may be processed
in any order.  slope_direct's dense branch and slope_profile share one
profile kernel, _profiles.  naive uses no symmetry, no closed form for
slope 0 and no y - m*x keys: it stays the independent reference.

Sparse slope_direct counts lines from the points by the paper's ratio
equations, on the kernel of `products` (see _tally_slope_direct).  Its
s1 identity holds by construction; s2 stays a real check.

slope_fast packs k slopes into one convolution as base-(n + 1) digits:
a profile entry never exceeds n, so the k profiles come back as the
digits of one exact integer below (n + 1)**k <= ntt.NTT_PRIME, with no
carries between them.  k is 11 at n = 6, 4 for 72 <= n <= 210 and 3
for 211 <= n <= 1261.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from . import ntt
from .errors import InvalidParameter, ModulusMismatch
from .fieldsets import FieldSubset
from .products import _inverses, _ratio_tables, _run_length_counts

logger = logging.getLogger(__name__)


# Per-slope buffers are p entries; the cap keeps them under ~128 MiB.
# Every strategy is held to it, the p-free sparse slope_direct too.
ENGINE_MAX_P = 1 << 24

# Target element count per vectorized chunk of slopes; sized so chunk
# buffers stay cache-resident (larger chunks go memory-bandwidth bound).
_CHUNK_TARGET = 1 << 16


@dataclass(frozen=True)
class Sloped:
    """Line y = m*x + b."""

    m: int
    b: int


@dataclass(frozen=True)
class Vertical:
    """Line x = c."""

    c: int


Line = Union[Sloped, Vertical]


def all_lines(p: int) -> Iterator[Line]:
    """All p**2 + p affine lines, sloped first."""
    for m in range(p):
        for b in range(p):
            yield Sloped(m, b)
    for c in range(p):
        yield Vertical(c)


def _check_coeff(value: int, p: int, name: str) -> None:
    if not 0 <= value < p:
        raise ModulusMismatch(f"line {name} {value} is not a residue mod {p}")


def incidence_count(A: FieldSubset, line: Line) -> int:
    """Number of points of A x A on the line."""
    p = A.p
    if isinstance(line, Vertical):
        _check_coeff(line.c, p, "offset")
        return A.n if line.c in A else 0
    _check_coeff(line.m, p, "slope")
    _check_coeff(line.b, p, "intercept")
    m, b = line.m, line.b
    return sum(1 for x in A.elements if (m * x + b) % p in A)


@dataclass(frozen=True)
class IncidenceHistogram:
    """Sparse histogram of incidence values over all p**2 + p lines."""

    p: int
    n: int
    counts: Dict[int, int]
    strategy: str = field(default="", compare=False)  # the builder's; "" by hand

    @property
    def zero_lines(self) -> int:
        return self.p * self.p + self.p - sum(self.counts.values())

    @property
    def max_incidence(self) -> int:
        return max(self.counts) if self.counts else 0


@dataclass(frozen=True, slots=True)
class MomentSet:
    """Exact power sums of the incidence function (Python ints, no overflow)."""

    s1: int
    s2: int
    s3: int
    s4: int

    @property
    def t(self) -> int:
        """Collinear triple count."""
        return self.s3

    @property
    def q(self) -> int:
        """Collinear quadruple count."""
        return self.s4


def moments(h: IncidenceHistogram) -> MomentSet:
    """Power sums s_r = sum_k k**r * counts[k] for r = 1..4."""
    s1 = s2 = s3 = s4 = 0
    for k, c in h.counts.items():
        k2 = k * k
        s1 += k * c
        s2 += k2 * c
        s3 += k2 * k * c
        s4 += k2 * k2 * c
    return MomentSet(s1, s2, s3, s4)


# Crossover constant of default_strategy: slope_direct while
# n**2 * k <= _CROSSOVER_K * L * log2(L), k = _digit_capacity(n).
# Fitted to best-of-5 wall times of the paired direct and packed fast
# strategies on uniform sets (one thread, 2-core x86-64 host, numpy 2.4):
#   p = 1009 (L = 2048)  n = 330, k = 3  fast 0.087 s  direct 0.112 s
#   p = 2003 (L = 4096)  n = 390, k = 3  fast 0.337 s  direct 0.381 s
#   p = 4001 (L = 8192)  n = 470, k = 3  fast 1.275 s  direct 1.235 s
# Direct time grows as n**2, so the two meet at n near 290, 367 and 477,
# where n**2 * k is 11.2, 8.2 and 6.4 times L log2 L; K is their
# geometric mean, rounded.
_CROSSOVER_K = 8


def default_strategy(p: int, n: int) -> str:
    """The cheaper slope strategy for a set of n elements mod p.

    slope_direct costs about p * n**2 / 2 tallied keys.  slope_fast
    packs k = _digit_capacity(n) slopes into each transform, so it costs
    about p / (2k) transforms of length L = ntt.conv_length(p).  Direct
    wins while n**2 * k <= K * L * log2(L), K = _CROSSOVER_K fitted to
    measured timings; beyond that slope_fast.
    """
    length = ntt.conv_length(p)
    if n * n * _digit_capacity(max(n, 1)) <= _CROSSOVER_K * length * (length.bit_length() - 1):
        return "slope_direct"
    return "slope_fast"


def _tally_naive(A: FieldSubset, acc: np.ndarray) -> None:
    """Count every sloped line from its own equation: x in A with m*x + b in A.

    Slopes are processed in chunks of about _CHUNK_TARGET // p, so one
    chunk holds about _CHUNK_TARGET line counts i(Sloped(m, b)).
    member is the indicator of A laid out twice, so member[m*x % p + b]
    for b < p needs no reduction: for each x the lines of slope m read
    the p consecutive entries starting at m*x % p.
    """
    p, n = A.p, A.n
    elems = np.asarray(A.elements, dtype=np.intp)
    member = np.zeros(2 * p, dtype=np.uint8)
    member[elems] = 1
    member[elems + p] = 1
    windows = np.lib.stride_tricks.sliding_window_view(member, p)  # (p + 1, p)
    chunk = max(1, min(p, _CHUNK_TARGET // p))
    buffer = np.empty((chunk, p), dtype=np.intp)
    for start in range(0, p, chunk):
        ms = np.arange(start, min(start + chunk, p), dtype=np.intp)
        mx = ms[:, None] * elems[None, :] % p                     # (c, n)
        counts = buffer[:len(ms)]                                 # (c, p)
        counts.fill(0)
        for j in range(n):
            counts += windows[mx[:, j]]
        acc += np.bincount(counts.ravel(), minlength=n + 1)


@lru_cache(maxsize=8)
def _slope_classes(p: int) -> Tuple[Tuple[np.ndarray, int], ...]:
    """One slope of every class {m, 1/m}, m = 1..p-1, with its weight.

    Returns (paired, 2) and (self_inverse, 1): paired holds the smaller
    slope of every class with m != 1/m, self_inverse the slopes 1 and
    p - 1.
    """
    slopes = np.arange(1, p, dtype=np.intp)
    paired = slopes[slopes < _inverses(slopes, p)]
    self_inverse = np.array([1, p - 1], dtype=np.intp)
    for arr in (paired, self_inverse):
        arr.setflags(write=False)
    return (paired, 2), (self_inverse, 1)


def _profiles(elems: np.ndarray, slopes: np.ndarray, p: int, keys: np.ndarray) -> np.ndarray:
    """Intercept profiles of c slopes: entry [j, b] is i(Sloped(slopes[j], b)).

    keys is an intp buffer of at least (c, n, n) entries, filled in place
    so bincount reads it without a cast copy.  Slope j keys each point
    (x, y) as 2p*j + p + y - m*x, which lies in [2p*j, 2p*(j + 1)); the
    two halves of those 2p bins are intercepts y - m*x + p and y - m*x,
    so folding them yields the profile without reducing any key mod p.
    """
    c = len(slopes)
    mx = slopes[:, None] * elems[None, :] % p                     # (c, n)
    k = keys[:c]                                                  # (c, n, n)
    shift = np.arange(p, 2 * p * c, 2 * p, dtype=np.intp)[:, None] - mx
    np.add(elems[None, None, :], shift[:, :, None], out=k)
    halves = np.bincount(k.ravel(), minlength=2 * p * c).reshape(c, 2, p)
    return halves[:, 0] + halves[:, 1]


def slope_profile(A: FieldSubset, m: int) -> np.ndarray:
    """Incidence counts of all p lines with slope m, indexed by intercept.

    Entry b is i(Sloped(m, b)); equivalently the number of pairs
    (x, y) in A x A with y - m*x = b mod p.
    """
    p, n = A.p, A.n
    _check_coeff(m, p, "slope")
    _check_engine_prime(p)
    elems = np.asarray(A.elements, dtype=np.intp)
    keys = np.empty((1, n, n), dtype=np.intp)
    return _profiles(elems, np.array([m], dtype=np.intp), p, keys)[0]


def _tally_slope_direct(A: FieldSubset, acc: np.ndarray) -> None:
    """Tally the sloped lines per slope (dense) or from ratio runs (sparse).

    Dense, p <= 2 n**2: chunks of slopes share one intp key buffer and
    bincount their profiles from _profiles, about p n**2 / 2 keys.
    Sparse: from a base point (a1, a3), a non-axis line through k >= 2
    grid points is a run of k - 1 equal ratios (a1 - a2) / (a3 - a4),
    seen from each of its k points, so N_k = (runs of length k - 1) / k.
    Swapping coordinates inverts a row's ratios and keeps its runs, so
    only a1 <= a3 is formed, weight 2 off the diagonal: about n**4 / 2
    products whatever p is.  Each point lies on p - 1 non-axis lines,
    so N_1 = n**2 (p - 1) - sum_{k >= 2} k N_k.
    """
    p, n = A.p, A.n
    acc[n] += n  # slope 0: the n rows y = b, b in A
    if p > 2 * n * n:
        runs = np.zeros(n, dtype=np.int64)  # runs[L]: ratio runs of length L
        if n > 1:
            tables = _ratio_tables(A)
            diagonal = np.arange(n)
            runs += 2 * _run_length_counts(*tables, *np.triu_indices(n, 1), p, n)
            runs += _run_length_counts(*tables, diagonal, diagonal, p, n)
        k = np.arange(2, n + 1)
        lines = runs[1:] // k
        acc[2:] += lines
        acc[1] += n * n * (p - 1) - int((k * lines).sum())
        return
    classes = _slope_classes(p)
    most = max(len(slopes) for slopes, _ in classes)
    chunk = max(1, min(most, _CHUNK_TARGET // max(n * n, 2 * p)))
    elems = np.asarray(A.elements, dtype=np.intp)
    keys = np.empty((chunk, n, n), dtype=np.intp)
    for slopes, weight in classes:
        for start in range(0, len(slopes), chunk):
            ms = slopes[start:start + chunk]
            part = np.bincount(_profiles(elems, ms, p, keys).ravel(), minlength=len(acc))
            acc += weight * part  # profiles never exceed n: part has n + 1 bins


def _digit_capacity(n: int) -> int:
    """Largest k with (n + 1)**k <= ntt.NTT_PRIME, for n >= 1.

    Profiles of k slopes packed as base-(n + 1) digits stay below
    (n + 1)**k, hence below the NTT modulus, so they come back exact.
    """
    base = n + 1
    k, power = 0, base
    while power <= ntt.NTT_PRIME:
        k += 1
        power *= base
    return k


def _tally_slope_fast(A: FieldSubset, acc: np.ndarray) -> None:
    """Tally per-slope profiles via exact cyclic convolution, k slopes at once.

    The indicator f of A (as y-values) is transformed once.  Each
    convolution takes k slopes m_0..m_{k-1} and the second factor
    g = sum_j B**j * 1_{-m_j A} with B = n + 1, so entry b of f * g is
    sum_j B**j * i(Sloped(m_j, b)).  Every count is at most n < B, so
    the digits of that value in base B are the k profiles, and the
    value itself is below B**k <= NTT_PRIME, so the transform returns it
    exactly (k = _digit_capacity(n)).
    """
    p, n = A.p, A.n
    elems = np.asarray(A.elements, dtype=np.int64)
    f = np.zeros(p, dtype=np.int64)
    f[elems] = 1
    fw = ntt.forward_padded(f, p)
    classes = _slope_classes(p)
    slopes = np.concatenate([s for s, _ in classes])
    weights = np.concatenate([np.full(len(s), w, dtype=np.int64) for s, w in classes])
    base = n + 1
    k = _digit_capacity(n)
    g = np.empty(p, dtype=np.int64)
    for start in range(0, len(slopes), k):
        g.fill(0)
        power = 1
        for m in slopes[start:start + k]:
            # -m*x runs over distinct residues, so the indices are unique.
            g[(-int(m) * elems) % p] += power
            power *= base
        packed = ntt.convolve_with_transform(fw, g, p)
        for weight in weights[start:start + k]:
            packed, digit = np.divmod(packed, base)
            acc += weight * np.bincount(digit, minlength=base)
    acc[n] += n  # slope 0: the n rows y = b, b in A


# The one dispatch table of the histogram strategies, in CLI order.
_TALLIES = {
    "naive": _tally_naive,
    "slope_direct": _tally_slope_direct,
    "slope_fast": _tally_slope_fast,
}
STRATEGIES = tuple(_TALLIES)


def _check_engine_prime(p: int) -> None:
    """Refuse p > ENGINE_MAX_P; callers check before building a set mod p."""
    if p > ENGINE_MAX_P:
        raise InvalidParameter(f"histogram strategies support p <= {ENGINE_MAX_P}")


def incidence_histogram(A: FieldSubset, strategy: Optional[str] = None) -> IncidenceHistogram:
    """Histogram of i(line) over all p**2 + p lines of the plane."""
    p, n = A.p, A.n
    if strategy is None:
        strategy = default_strategy(p, n)
        logger.info("histogram strategy auto-selected: %s (p=%d, n=%d)", strategy, p, n)
    if strategy not in _TALLIES:
        raise InvalidParameter(f"unknown histogram strategy {strategy!r}")
    _check_engine_prime(p)
    if n == 0:
        return IncidenceHistogram(p, 0, {}, strategy)
    # counts-of-counts accumulator over k = 0..n; index 0 is discarded.
    acc = np.zeros(n + 1, dtype=np.int64)
    _TALLIES[strategy](A, acc)
    acc[n] += n  # the vertical family: the n columns x = c, c in A
    counts = {int(k): int(acc[k]) for k in range(1, n + 1) if acc[k]}
    return IncidenceHistogram(p, n, counts, strategy)
