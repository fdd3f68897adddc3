import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines.errors import CapExceeded
from gridlines.fieldsets import from_list, gen_uniform, validate_prime
from gridlines.incidence import incidence_histogram, moments
from gridlines.oracle import (
    Point,
    algebraic_triple_count,
    collinear,
    q_brute,
    t_brute,
)
from gridlines.rng import SplitMix64

P5 = validate_prime(5)
UNIT_SQUARE = from_list(P5, [0, 1])

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestCollinear:
    def test_diagonal(self):
        assert collinear((0, 0), (1, 1), (2, 2), 5)

    def test_right_angle(self):
        assert not collinear((0, 0), (1, 0), (1, 1), 5)

    def test_two_equal_points(self):
        assert collinear((0, 0), (0, 0), (3, 4), 5)

    def test_wraparound_collinearity(self):
        # (0,0), (1,3), (2,6=1 mod 5) on y = 3x over p=5
        assert collinear((0, 0), (1, 3), (2, 1), 5)

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
           st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_permutation_invariance(self, x1, y1, x2, y2, x3, y3):
        pts = [Point(x1, y1), Point(x2, y2), Point(x3, y3)]
        results = {collinear(*perm, 5) for perm in itertools.permutations(pts)}
        assert len(results) == 1


class TestTBrute:
    def test_hand_case(self):
        # 36 proper triples + (p+1) n^2 = 24 degenerate
        assert t_brute(UNIT_SQUARE) == 60

    def test_single_point(self):
        assert t_brute(from_list(P5, [0])) == 6

    def test_empty(self):
        assert t_brute(from_list(P5, [])) == 0

    def test_matches_engine_three_points(self):
        A = from_list(P5, [0, 1, 2])
        assert t_brute(A) == moments(incidence_histogram(A)).s3

    def test_cap(self):
        A = gen_uniform(validate_prime(31), 9, seed=1)
        with pytest.raises(CapExceeded):
            t_brute(A)
        assert t_brute(A, cap=9) == moments(incidence_histogram(A)).s3

    def test_big_modulus_fallback_path(self):
        p = 2**31 + 11  # prime; forces the pure-python branch
        A = from_list(validate_prime(p), [0, 1])
        # unit square in general position: 36 proper triples remain
        assert t_brute(A) == 36 + (p + 1) * 4
        assert q_brute(A) == 84 + (p + 1) * 4

    def test_modulus_whose_determinants_overflow_int64(self):
        p = 2**61 - 1
        A = from_list(validate_prime(p), [0, 1, p - 1])
        pts = [Point(x, y) for x in A.elements for y in A.elements]
        triples = sum(collinear(u, v, w, p)
                      for u, v, w in itertools.product(pts, repeat=3))
        quadruples = sum(
            collinear(u, v, w, p) and collinear(u, v, z, p)
            and collinear(u, w, z, p) and collinear(v, w, z, p)
            for u, v, w, z in itertools.product(pts, repeat=4))
        # the all-equal tuples are counted p + 1 times, once per line
        assert t_brute(A) == triples + p * len(pts)
        assert q_brute(A) == quadruples + p * len(pts)


class TestQBrute:
    def test_hand_case(self):
        # histogram {2:6, 1:12}: 6*16 + 12 = 108
        assert q_brute(UNIT_SQUARE) == 108

    def test_single_point(self):
        assert q_brute(from_list(P5, [0])) == 6

    def test_matches_engine(self):
        A = from_list(validate_prime(7), [0, 1, 2])
        assert q_brute(A) == moments(incidence_histogram(A)).s4

    def test_cap(self):
        A = gen_uniform(validate_prime(31), 7, seed=1)
        with pytest.raises(CapExceeded):
            q_brute(A)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
def test_oracles_equal_engine_moments(p, seed):
    rng = SplitMix64(seed)
    n = rng.below(min(6, p) + 1)
    A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
    ms = moments(incidence_histogram(A))
    assert t_brute(A) == ms.s3
    assert q_brute(A) == ms.s4


def _ratio_equation_reference(A):
    """Direct enumeration of the 6-tuple ratio equation (test oracle)."""
    p = A.p
    count = 0
    for a1, a2, a3, a4, a5, a6 in itertools.product(A.elements, repeat=6):
        if a3 == a4 or a3 == a6 or a1 == a2 or a1 == a5:
            continue
        lhs = (a1 - a2) * pow(a3 - a4, -1, p) % p
        rhs = (a1 - a5) * pow(a3 - a6, -1, p) % p
        if lhs == rhs:
            count += 1
    return count


class TestAlgebraicTripleCount:
    def test_single_element_is_zero(self):
        assert algebraic_triple_count(from_list(P5, [0])) == 0

    def test_unit_square_against_direct_enumeration(self):
        assert algebraic_triple_count(UNIT_SQUARE) == _ratio_equation_reference(UNIT_SQUARE)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([5, 7, 11, 13]), st.integers(0, 2**32 - 1))
    def test_against_direct_enumeration(self, p, seed):
        rng = SplitMix64(seed)
        n = 1 + rng.below(3)  # keep the 6-fold loop tiny
        A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
        assert algebraic_triple_count(A) == _ratio_equation_reference(A)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([5, 7, 11, 13, 17]), st.integers(0, 2**32 - 1))
    def test_dilation_invariance(self, p, seed):
        rng = SplitMix64(seed)
        n = 1 + rng.below(min(4, p - 1))
        A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
        c = 1 + rng.below(p - 1)
        dilated = from_list(A.modulus, [c * a % p for a in A.elements])
        assert algebraic_triple_count(A) == algebraic_triple_count(dilated)

    @pytest.mark.parametrize("p", [13, 2**61 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_small_sets_against_direct_enumeration(self, p, n):
        A = gen_uniform(validate_prime(p), n, seed=100 + n)
        assert algebraic_triple_count(A) == _ratio_equation_reference(A)

    def test_cap(self):
        A = gen_uniform(validate_prime(31), 21, seed=3)
        with pytest.raises(CapExceeded):
            algebraic_triple_count(A)
