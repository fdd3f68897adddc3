"""Exact integer cyclic convolution via a number-theoretic transform.

The incidence counts produced by convolving set indicators are plain
integers, so the transform must be exact; floating-point FFTs are not
usable here.  We work in the prime field mod Q = 15 * 2**27 + 1
(= 2013265921, primitive root 31), which supports power-of-two transform
lengths up to 2**27.  Results are exact as long as every true
convolution value is below Q: a single incidence profile is bounded by
the set size n < Q, and k profiles packed as base-(n + 1) digits by
(n + 1)**k - 1 < Q (see incidence._tally_slope_fast).

Products of two residues below Q < 2**31 fit in 64 bits, which lets the
butterflies run vectorized on numpy uint64 views: one mod step for the
twiddle product, and a conditional +-Q for the sum and the difference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NTT_PRIME = 2013265921  # 15 * 2**27 + 1
NTT_ROOT = 31
_MAX_LOG2 = 27


@lru_cache(maxsize=None)
def _bit_reversal(log2n: int) -> np.ndarray:
    rev = np.zeros(1, dtype=np.int64)
    for _ in range(log2n):
        rev = np.concatenate([rev * 2, rev * 2 + 1])
    return rev


@lru_cache(maxsize=None)
def _twiddles(log2n: int, inverse: bool):
    """Per-level twiddle tables w_s**k, s = 2**level, k < s/2."""
    q = NTT_PRIME
    tables = []
    for level in range(1, log2n + 1):
        s = 1 << level
        w = pow(NTT_ROOT, (q - 1) // s, q)
        if inverse:
            w = pow(w, q - 2, q)
        tw = np.empty(s // 2, dtype=np.uint64)
        acc = 1
        for k in range(s // 2):
            tw[k] = acc
            acc = acc * w % q
        tables.append(tw)
    return tables


# Below this half-block width a level runs column by column: numpy's
# inner loops over rows of one or two elements cost more than the
# arithmetic they do.
_COLUMN_WIDTH = 4
# Q as a read-only 0-d uint64 array: numpy takes it on a faster path
# than a Python int or a numpy scalar operand.
_Q64 = np.array(NTT_PRIME, dtype=np.uint64)
_Q64.setflags(write=False)


def _butterfly(even: np.ndarray, odd: np.ndarray, tw) -> None:
    """(even, odd) <- (even + tw*odd, even - tw*odd) mod Q, in place.

    Works on uint64 views whose entries lie in [0, Q), so a sum or a
    difference is off by at most one Q.  In wrapping unsigned arithmetic
    min(s, s - Q) and min(d, d + Q) pick the reduced value, a
    conditional -Q or +Q without a division.
    """
    t = odd * tw
    t %= _Q64
    np.subtract(even, t, out=odd)
    np.minimum(odd, odd + _Q64, out=odd)
    even += t
    np.subtract(even, _Q64, out=t)
    np.minimum(even, t, out=even)


def _transform(values: np.ndarray, inverse: bool) -> np.ndarray:
    q = NTT_PRIME
    n = len(values)
    log2n = n.bit_length() - 1
    if 1 << log2n != n or log2n > _MAX_LOG2:
        raise ValueError(f"transform length {n} not a power of two <= 2**{_MAX_LOG2}")
    a = values[_bit_reversal(log2n)].astype(np.int64) % q
    u = a.view(np.uint64)
    for level, tw in enumerate(_twiddles(log2n, inverse), start=1):
        half = 1 << (level - 1)
        blocks = u.reshape(-1, 2 * half)
        if half < _COLUMN_WIDTH:
            for j in range(half):
                _butterfly(blocks[:, j], blocks[:, half + j], tw[j])
        else:
            _butterfly(blocks[:, :half], blocks[:, half:], tw)
    if inverse:
        n_inv = pow(n, q - 2, q)
        a = a * n_inv % q
    return a


def ntt(values: np.ndarray) -> np.ndarray:
    """Forward transform of an int64 array of power-of-two length."""
    return _transform(values, inverse=False)


def intt(values: np.ndarray) -> np.ndarray:
    """Inverse transform; intt(ntt(x)) == x mod Q."""
    return _transform(values, inverse=True)


def conv_length(p: int) -> int:
    """Transform length used for cyclic convolution mod x**p - 1."""
    need = 2 * p - 1
    return 1 << (need - 1).bit_length()


def cyclic_convolve(f: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Exact cyclic convolution of two length-p nonnegative integer vectors.

    Entry b of the result is sum over u+v = b (mod p) of f[u] * g[v].
    All true output values must be < NTT_PRIME for exactness; incidence
    profiles satisfy this because counts never exceed the set size.
    """
    if len(f) != p or len(g) != p:
        raise ValueError("inputs must have length p")
    return convolve_with_transform(forward_padded(f, p), g, p)


def forward_padded(f: np.ndarray, p: int) -> np.ndarray:
    """Precompute ntt of a zero-padded length-p vector for reuse."""
    length = conv_length(p)
    fa = np.zeros(length, dtype=np.int64)
    fa[:p] = f
    return ntt(fa)


def convolve_with_transform(fw: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Cyclic convolution where the first factor's transform is prebuilt."""
    length = conv_length(p)
    ga = np.zeros(length, dtype=np.int64)
    ga[:p] = g
    lin = intt(fw * ntt(ga) % NTT_PRIME)
    out = lin[:p].copy()
    out[: p - 1] += lin[p: 2 * p - 1]
    return out