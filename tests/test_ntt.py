import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines.ntt import (
    NTT_PRIME,
    conv_length,
    cyclic_convolve,
    forward_padded,
    convolve_with_transform,
    intt,
    ntt,
)


def _reference_cyclic(f, g, p):
    out = [0] * p
    for u in range(p):
        if f[u] == 0:
            continue
        for v in range(p):
            out[(u + v) % p] += f[u] * g[v]
    return out


def test_roundtrip():
    rng = np.random.default_rng(1)
    x = rng.integers(0, NTT_PRIME, size=64).astype(np.int64)
    assert np.array_equal(intt(ntt(x)), x % NTT_PRIME)


def test_transform_length_validation():
    with pytest.raises(ValueError):
        ntt(np.arange(12, dtype=np.int64))  # not a power of two


def test_conv_length():
    assert conv_length(5) == 16
    assert conv_length(101) == 256


def test_small_known_convolution():
    # indicators on p=5: {0,1} * {0,2} -> counts of u+v mod 5
    f = np.array([1, 1, 0, 0, 0], dtype=np.int64)
    g = np.array([1, 0, 1, 0, 0], dtype=np.int64)
    assert list(cyclic_convolve(f, g, 5)) == [1, 1, 1, 1, 0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 31, 53]), st.integers(0, 2**31))
def test_matches_reference_on_random_indicators(p, seed):
    rng = np.random.default_rng(seed)
    f = rng.integers(0, 2, size=p).astype(np.int64)
    g = rng.integers(0, 2, size=p).astype(np.int64)
    expected = _reference_cyclic(list(f), list(g), p)
    assert list(cyclic_convolve(f, g, p)) == expected


def test_multiplicity_vectors_exact():
    # one factor with multiplicities (the m = 0 slope profile shape)
    p = 7
    f = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.int64)
    g = np.zeros(p, dtype=np.int64)
    g[0] = 4
    assert list(cyclic_convolve(f, g, p)) == [4 * v for v in f]


def test_precomputed_transform_agrees():
    p = 11
    rng = np.random.default_rng(3)
    f = rng.integers(0, 2, size=p).astype(np.int64)
    fw = forward_padded(f, p)
    for _ in range(5):
        g = rng.integers(0, 3, size=p).astype(np.int64)
        expected = _reference_cyclic(list(f), list(g), p)
        assert list(convolve_with_transform(fw, g, p)) == expected


def test_butterfly_wrap_branches_at_residue_extremes():
    # Entries at 0 and Q - 1 push butterfly sums up to 2Q - 2 and
    # differences below zero, so both conditional corrections run.
    p = 13
    top = NTT_PRIME - 1
    f = np.array([top, 0, top, top, 0, 0, top, 0, top, 0, 0, top, top], dtype=np.int64)
    g = np.array([0 if i % 3 else top for i in range(p)], dtype=np.int64)
    expected = _reference_cyclic([int(v) for v in f], [int(v) for v in g], p)
    got = cyclic_convolve(f, g, p) % NTT_PRIME
    assert list(got) == [v % NTT_PRIME for v in expected]
    padded = np.zeros(conv_length(p), dtype=np.int64)
    padded[:p] = f
    assert np.array_equal(intt(ntt(padded)), padded)
