"""Incidence histograms and exact moment computation.

For a subset A of the prime field, the point set is the grid A x A and
the line family is all p**2 + p affine lines: the sloped lines
y = m*x + b and the vertical lines x = c.  The incidence count i(line) is
the number of grid points on the line.  The histogram maps each
incidence value k >= 1 to the number of lines attaining it; lines that
miss the grid entirely are only tracked through the derived zero_lines
count.

The power sums of the histogram are the central statistics:

    s1 = sum i(line)      = (p+1) * n**2        (every point on p+1 lines)
    s2 = sum i(line)**2   = n**4 + p * n**2     (second-moment identity)
    s3 = sum i(line)**3   = collinear triple count
    s4 = sum i(line)**4   = collinear quadruple count

Four kernels build bit-identical histograms.  Each row of _KERNELS holds
a tally that adds the counts-of-counts of the p**2 sloped lines into one
accumulator, the CLI strategy it serves, and an integer count of work in
its own unit times picoseconds per unit, fitted on one core of a 2-core
x86-64 host:

    naive    p**2 n membership lookups, 700 ps; the reference
    ratio    n (n + 1) / 2 * (n - 1)**2 ratio products of 4 or 8 bytes
             (fieldsets.element_dtype) plus 114,000 for the tables and
             index arrays when n > 1 (0.2 ms), 1.75 ns a byte (slope_direct)
    profile  (p + 1) / 2 slopes of n**2 keys plus 2p bins, 2.2 ns (slope_direct)
    ntt      per packed convolution, L = ntt.conv_length(p) transform points
             plus 840 for the rest, 185 ns (slope_fast)

A strategy runs its cheapest kernel, default_strategy names the strategy
of the cheapest kernel but naive, and verify cross-checks a build with
the other kernels under one budget (harness.CROSS_CHECK_BUDGET_PS).
incidence_histogram logs a default pick (the CLI's --verbose), refuses
p > ENGINE_MAX_P before allocating anything (_check_engine_prime, which
the harness also calls before it builds a set), adds the vertical family
(n columns x = c, c in A) and records the kernel in the histogram.

profile and ntt tally one slope of every class {m, 1/m}, counted twice
(once for the self-inverse slopes 1 and p - 1): swapping coordinates
maps A x A onto itself and y = m*x + b onto y = x/m - b/m.  Every kernel
but naive adds slope 0 in closed form; naive uses no symmetry and no
y - m*x keys, so it stays the independent reference.  ratio counts lines
from the paper's ratio equations on the kernel of `products`; its s1
holds by construction and its s3 follows from s1 and s2, so only a build
by another kernel checks it.  ntt packs k = _digit_capacity(n) slopes
into one convolution as base-(n + 1) digits: a profile entry never
exceeds n, so the k profiles come back as the digits of one exact
integer below (n + 1)**k <= ntt.NTT_PRIME (k is 11 at n = 6, 4 for
72 <= n <= 210 and 3 for 211 <= n <= 1261).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import ntt
from .errors import InvalidParameter
from .fieldsets import FieldSubset, element_dtype
from .products import _inverses, _ratio_tables, _run_length_counts

logger = logging.getLogger(__name__)


# Per-slope buffers are p entries; the cap keeps them under ~128 MiB.
# Every kernel is held to it, the p-free ratio kernel too.
ENGINE_MAX_P = 1 << 24

# Target element count per vectorized chunk of slopes; sized so chunk
# buffers stay cache-resident (larger chunks go memory-bandwidth bound).
_CHUNK_TARGET = 1 << 16


@dataclass(frozen=True)
class IncidenceHistogram:
    """Sparse histogram of incidence values over all p**2 + p lines."""

    p: int
    n: int
    counts: Dict[int, int]
    kernel: str = field(default="", compare=False)  # the builder's; "" by hand
    strategy = property(lambda self: _KERNELS[self.kernel].strategy if self.kernel else "")

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


def _tally_naive(A: FieldSubset, acc: np.ndarray) -> None:
    """Count every sloped line from its own equation: x in A with m*x + b in A.

    Slopes are processed in chunks of about _CHUNK_TARGET // p, so one
    chunk holds about _CHUNK_TARGET line counts i(y = m*x + b).
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
    """Intercept profiles of c slopes: entry [j, b] is i(y = slopes[j]*x + b).

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


def _tally_ratio(A: FieldSubset, acc: np.ndarray) -> None:
    """Count the sloped lines from runs of equal ratios, about n**4 / 2 products.

    From a base point (a1, a3), a non-axis line through k >= 2 grid
    points is a run of k - 1 equal ratios (a1 - a2) / (a3 - a4), seen
    from each of its k points, so N_k = (runs of length k - 1) / k.
    Swapping coordinates inverts a row's ratios and keeps its runs, so
    only a1 <= a3 is formed, weight 2 off the diagonal, whatever p is.
    Each point lies on p - 1 non-axis lines, so
    N_1 = n**2 (p - 1) - sum_{k >= 2} k N_k.
    """
    p, n = A.p, A.n
    acc[n] += n  # slope 0: the n rows y = b, b in A
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


def _tally_profile(A: FieldSubset, acc: np.ndarray) -> None:
    """Bincount _profiles of chunks of slopes, one per class, in one key buffer."""
    p, n = A.p, A.n
    acc[n] += n  # slope 0: the n rows y = b, b in A
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
    """Largest k with (n + 1)**k <= ntt.NTT_PRIME, for n >= 1: profiles of k
    slopes packed as base-(n + 1) digits stay below it, so they come back exact."""
    k = 1
    while (n + 1) ** (k + 1) <= ntt.NTT_PRIME:
        k += 1
    return k


def _tally_ntt(A: FieldSubset, acc: np.ndarray) -> None:
    """Tally per-slope profiles via exact cyclic convolution, k slopes at once.

    The indicator f of A (as y-values) is transformed once.  Each
    convolution takes k slopes m_0..m_{k-1} and the second factor
    g = sum_j B**j * 1_{-m_j A} with B = n + 1, so entry b of f * g is
    sum_j B**j * i(y = m_j*x + b).  Every count is at most n < B, so
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


def _ntt_units(p: int, n: int) -> int:
    convolutions = -(-((p + 1) // 2) // _digit_capacity(max(n, 1)))
    return convolutions * (ntt.conv_length(p) + 840)  # 840 points: packing, digits, bincounts


class _Kernel(NamedTuple):
    tally: Callable[[FieldSubset, np.ndarray], None]
    strategy: str                     # the CLI strategy it serves
    units: Callable[[int, int], int]  # (p, n) -> work in the kernel's own unit
    ps_per_unit: int                  # fitted on one core of a 2-core x86-64 host


# The one table of the histogram kernels, naive first.  Cost estimates, in
# picoseconds, pick every build and every cross-check of verify.
_KERNELS = {
    "naive": _Kernel(_tally_naive, "naive", lambda p, n: p * p * n, 700),  # lookups
    "ratio": _Kernel(_tally_ratio, "slope_direct",  # product bytes plus 0.2 ms of set-up
                     lambda p, n: n * (n + 1) // 2 * (n - 1) ** 2 * element_dtype(p).itemsize
                     + 114_000 * (n > 1), 1750),
    "profile": _Kernel(_tally_profile, "slope_direct",
                       lambda p, n: (p + 1) // 2 * (n * n + 2 * p), 2200),  # keys plus bins
    "ntt": _Kernel(_tally_ntt, "slope_fast", _ntt_units, 185000),  # transform points
}
KERNELS = tuple(_KERNELS)
STRATEGIES = tuple(dict.fromkeys(kernel.strategy for kernel in _KERNELS.values()))


def estimated_ps(kernel: str, p: int, n: int) -> int:
    """The table's cost estimate of one build, in picoseconds."""
    return _KERNELS[kernel].units(p, n) * _KERNELS[kernel].ps_per_unit


def default_strategy(p: int, n: int) -> str:
    """The strategy of the cheapest slope kernel (every kernel but naive)."""
    return _KERNELS[min(KERNELS[1:], key=lambda k: estimated_ps(k, p, n))].strategy


def _check_engine_prime(p: int) -> None:
    """Refuse p > ENGINE_MAX_P; callers check before building a set mod p."""
    if p > ENGINE_MAX_P:
        raise InvalidParameter(f"histogram strategies support p <= {ENGINE_MAX_P}")


def incidence_histogram(A: FieldSubset, strategy: Optional[str] = None) -> IncidenceHistogram:
    """Histogram of i(line) over all p**2 + p lines of the plane.

    strategy is a CLI strategy, which runs its cheapest kernel, or a
    kernel by its table name; None picks default_strategy.
    """
    p, n = A.p, A.n
    if strategy is None:
        strategy = default_strategy(p, n)
        logger.info("histogram strategy auto-selected: %s (p=%d, n=%d)", strategy, p, n)
    serving = [k for k in KERNELS if strategy in (k, _KERNELS[k].strategy)]
    if not serving:
        raise InvalidParameter(f"unknown histogram strategy {strategy!r}")
    kernel = min(serving, key=lambda k: estimated_ps(k, p, n))
    _check_engine_prime(p)
    if n == 0:
        return IncidenceHistogram(p, 0, {}, kernel)
    # counts-of-counts accumulator over k = 0..n; index 0 is discarded.
    acc = np.zeros(n + 1, dtype=np.int64)
    _KERNELS[kernel].tally(A, acc)
    acc[n] += n  # the vertical family: the n columns x = c, c in A
    counts = {int(k): int(acc[k]) for k in range(1, n + 1) if acc[k]}
    return IncidenceHistogram(p, n, counts, kernel)
