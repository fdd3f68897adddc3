"""Brute-force collinearity oracles for certifying the incidence engine.

Everything here counts tuples of grid points directly, never touching
the line-enumeration machinery, so an agreement between t_brute /
q_brute and the engine's s3 / s4 is a genuine dual-path check.

Degenerate-tuple bookkeeping: the moment sums count the all-equal tuple
(u, u, ..., u) once per line through u, i.e. p + 1 times, while plain
tuple enumeration sees it once.  The oracles therefore enumerate tuples
that are NOT all equal (each lies on exactly one common line) and add
(p + 1) * n**2 for the all-equal family.

Both oracles read one boolean collinearity tensor over the n**2 grid
points, built with numpy from `fieldsets.element_array` in its three
tiers, so no product of two residues overflows: int32 while
(p - 1)**2 < 2**31 (p <= 46337), int64 for p < 2**31 and object
(Python integers) above.

Costs are Theta(n**6) for triples and Theta(n**8) for quadruples, hence
the hard size caps, which `harness.run_verify` takes as fixed
thresholds.

algebraic_triple_count is not a tuple enumeration: it counts the
ratio-equation 6-tuples through the product-support census kernel of
`products`, about n**4 products sorted in blocks of 2**15.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CapExceeded
from .fieldsets import FieldSubset, element_array
from .products import _product_moments, _ratio_tables

T_BRUTE_CAP = 8
Q_BRUTE_CAP = 6
ALGEBRAIC_CAP = 20

# Residues per block of _collinear_tensor slabs: 64 KiB per int32 buffer.
_SLAB_ENTRIES = 1 << 14


class Point(NamedTuple):
    x: int
    y: int


def collinear(u, v, w, p: int) -> bool:
    """True iff the three points share a line in the plane mod p.

    Uses the 2x2 determinant of (v - u, w - u); degenerate tuples with
    two equal points are collinear by convention (the determinant
    vanishes for them automatically).  Symmetric in its arguments.
    """
    det = (v[0] - u[0]) * (w[1] - u[1]) - (w[0] - u[0]) * (v[1] - u[1])
    return det % p == 0


def _collinear_tensor(A: FieldSubset) -> np.ndarray:
    """Boolean tensor D[a, b, c] = collinearity of grid points a, b, c.

    Slab a is M[b, c] = dx_b * dy_c mod p, with (dx_b, dy_b) = b - a:
    the determinant of (b - a, c - a) is M[b, c] - M[c, b], so the three
    points are collinear iff M equals its transpose there.  Slabs are
    formed in place, about _SLAB_ENTRIES residues at a time.
    """
    p, N = A.p, A.n * A.n
    elems = element_array(A)
    xs, ys = np.repeat(elems, A.n), np.tile(elems, A.n)
    dx = (xs[None, :] - xs[:, None]) % p   # dx[a, b] = x_b - x_a
    dy = (ys[None, :] - ys[:, None]) % p
    tensor = np.empty((N, N, N), dtype=bool)
    block = max(1, _SLAB_ENTRIES // (N * N))
    slabs, quotients = np.empty((2, min(block, N), N, N), dtype=elems.dtype)
    for start in range(0, N, block):
        stop = min(start + block, N)
        m, quot = slabs[:stop - start], quotients[:stop - start]
        np.multiply(dx[start:stop, :, None], dy[start:stop, None, :], out=m)
        m -= np.multiply(np.floor_divide(m, p, out=quot), p, out=quot)  # m % p
        np.equal(m, m.transpose(0, 2, 1), out=tensor[start:stop])
    return tensor


def t_brute(A: FieldSubset, cap: int = T_BRUTE_CAP) -> int:
    """Collinear triple count by enumerating ordered point triples."""
    n, p = A.n, A.p
    if n > cap:
        raise CapExceeded(f"t_brute: n = {n} exceeds cap {cap}")
    if n == 0:
        return 0
    not_all_equal = int(np.count_nonzero(_collinear_tensor(A))) - n * n
    return not_all_equal + (p + 1) * n * n


def q_brute(A: FieldSubset, cap: int = Q_BRUTE_CAP) -> int:
    """Collinear quadruple count by enumerating ordered point quadruples.

    A not-all-equal quadruple lies on a common line iff every three of
    its four slots are collinear, which vectorizes as four broadcast
    lookups into the triple tensor.
    """
    n, p = A.n, A.p
    if n > cap:
        raise CapExceeded(f"q_brute: n = {n} exceeds cap {cap}")
    if n == 0:
        return 0
    d = _collinear_tensor(A)
    block = np.empty_like(d)
    total = 0
    for da in d:
        np.logical_and(da[:, :, None], da[:, None, :], out=block)  # (a, b, c), (a, b, d)
        block &= da[None, :, :]  # (a, c, d)
        block &= d               # (b, c, d)
        total += int(np.count_nonzero(block))
    not_all_equal = total - n * n
    return not_all_equal + (p + 1) * n * n


def algebraic_triple_count(A: FieldSubset, cap: int = ALGEBRAIC_CAP) -> int:
    """Count 6-tuples (a1..a6) in A**6 solving the slanted-triple equation

        (a1 - a2) / (a3 - a4) = (a1 - a5) / (a3 - a6) != 0,

    with a3 != a4, a3 != a6 (the nonzero ratio forces a1 != a2, a1 != a5).
    Grouping by (a1, a3) and tabulating the ratio over (a2, a4) pairs
    makes this about n**4 products: the tuple count is the sum over
    ratios r of (number of pairs hitting r) squared, i.e. the sum of the
    second moments `products._product_moments` reads from the ratio
    tables `products._ratio_tables`.

    A tuple is a collinear triple of grid points from the base (a3, a1)
    on a sloped line; the others are axis-parallel, repeat the base or
    are all equal (on p + 1 lines), so s3 = count + 4n**4 - 4n**3 +
    (p+1)n**2, the identity `harness.run_verify` checks.
    """
    n, p = A.n, A.p
    if n > cap:
        raise CapExceeded(f"algebraic_triple_count: n = {n} exceeds cap {cap}")
    if n < 2:
        return 0
    pairs = np.arange(n * n)
    _, m2 = _product_moments(*_ratio_tables(A), pairs // n, pairs % n, p)
    return int(m2.sum())
