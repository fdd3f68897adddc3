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
points, built with numpy from `fieldsets.element_array`, whose dtype is
int64 for p < 2**31 and object (Python integers) above, where the
determinant products could overflow int64.

Costs are Theta(n**6) for triples and Theta(n**8) for quadruples, hence
the hard size caps; raise them only knowingly.

algebraic_triple_count is not a tuple enumeration: it counts the
ratio-equation 6-tuples through the product-support census kernel of
`products`, about n**4 products sorted in blocks of 2**16.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CapExceeded
from .fieldsets import FieldSubset, element_array
from .products import _difference_table, _product_moments

T_BRUTE_CAP = 8
Q_BRUTE_CAP = 6
ALGEBRAIC_CAP = 20


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
    """Boolean tensor D[a, b, c] = collinearity of grid points a, b, c."""
    p = A.p
    elems = element_array(A)
    xs, ys = np.repeat(elems, A.n), np.tile(elems, A.n)
    dx = (xs[None, :] - xs[:, None]) % p   # dx[a, b] = x_b - x_a
    dy = (ys[None, :] - ys[:, None]) % p
    det = dx[:, :, None] * dy[:, None, :] - dx[:, None, :] * dy[:, :, None]
    return det % p == 0


def t_brute(A: FieldSubset, cap: int = T_BRUTE_CAP) -> int:
    """Collinear triple count by enumerating ordered point triples."""
    n, p = A.n, A.p
    if n > cap:
        raise CapExceeded(f"t_brute: n = {n} exceeds cap {cap}")
    if n == 0:
        return 0
    not_all_equal = int(_collinear_tensor(A).sum()) - n * n
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
    total = 0
    for a in range(n * n):
        da = d[a]
        block = (
            da[:, :, None]      # (a, b, c)
            & da[:, None, :]    # (a, b, d)
            & da[None, :, :]    # (a, c, d)
            & d                 # (b, c, d)
        )
        total += int(block.sum())
    not_all_equal = total - n * n
    return not_all_equal + (p + 1) * n * n


def algebraic_triple_count(A: FieldSubset, cap: int = ALGEBRAIC_CAP) -> int:
    """Count 6-tuples (a1..a6) in A**6 solving the slanted-triple equation

        (a1 - a2) / (a3 - a4) = (a1 - a5) / (a3 - a6) != 0,

    with a3 != a4, a3 != a6 (the nonzero ratio forces a1 != a2, a1 != a5).
    Grouping by (a1, a3) and tabulating the ratio over (a2, a4) pairs
    makes this about n**4 products: the tuple count is the sum over
    ratios r of (number of pairs hitting r) squared, i.e. the sum of the
    second moments that the census kernel `products._product_moments`
    reads from the nonzero differences a1 - a2 against the inverses of
    the nonzero differences a3 - a4.

    `harness.run_verify` reconciles it with the engine's triple count as
    delta = s3 - 2*n**4 - count, which removes the two axis-parallel line
    families; the dominant degenerate term in delta is (p+1)*n**2.
    """
    n, p = A.n, A.p
    if n > cap:
        raise CapExceeded(f"algebraic_triple_count: n = {n} exceeds cap {cap}")
    if n < 2:
        return 0
    nonzero = _difference_table(A)[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    inverses = np.array(
        [[pow(d, -1, p) for d in row] for row in nonzero.tolist()], dtype=nonzero.dtype)
    pairs = np.arange(n * n)
    _, m2 = _product_moments(nonzero, inverses, pairs // n, pairs % n, p)
    return int(m2.sum())
