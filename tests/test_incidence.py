from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines import incidence, ntt
from gridlines.errors import InvalidParameter, ModulusMismatch
from gridlines.fieldsets import from_list, gen_full_field, gen_uniform, validate_prime
from gridlines.incidence import (
    STRATEGIES,
    IncidenceHistogram,
    Sloped,
    Vertical,
    _digit_capacity,
    all_lines,
    default_strategy,
    incidence_count,
    incidence_histogram,
    moments,
    slope_profile,
)
from gridlines.rng import SplitMix64

P5 = validate_prime(5)
UNIT_SQUARE = from_list(P5, [0, 1])

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def random_subset(p, seed, max_n=None):
    m = validate_prime(p)
    rng = SplitMix64(seed)
    n = rng.below(min(max_n or p, p) + 1)
    return gen_uniform(m, n, seed=rng.next_u64())


class TestIncidenceCount:
    def test_vertical_hand_case(self):
        assert incidence_count(UNIT_SQUARE, Vertical(0)) == 2
        assert incidence_count(UNIT_SQUARE, Vertical(2)) == 0

    def test_sloped_diagonal(self):
        # (0,0) and (1,1) lie on y = x
        assert incidence_count(UNIT_SQUARE, Sloped(1, 0)) == 2

    def test_full_field_every_line_has_p_points(self):
        A = gen_full_field(P5)
        for line in (Sloped(2, 3), Sloped(0, 0), Vertical(4)):
            assert incidence_count(A, line) == 5

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            incidence_count(UNIT_SQUARE, Vertical(7))
        with pytest.raises(ModulusMismatch):
            incidence_count(UNIT_SQUARE, Sloped(5, 0))


class TestSlopeProfile:
    def test_hand_case(self):
        assert list(slope_profile(UNIT_SQUARE, 0)) == [2, 2, 0, 0, 0]

    def test_full_field(self):
        assert list(slope_profile(gen_full_field(P5), 3)) == [5] * 5

    def test_entries_match_incidence_count(self):
        A = from_list(validate_prime(11), [0, 2, 3, 7])
        for m in range(11):
            profile = slope_profile(A, m)
            for b in range(11):
                assert profile[b] == incidence_count(A, Sloped(m, b))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_mass_is_n_squared(self, p, seed):
        A = random_subset(p, seed)
        m = SplitMix64(seed ^ 1).below(p)
        assert slope_profile(A, m).sum() == A.n * A.n

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_inverse_slopes_share_incidence_counts(self, p, seed):
        # Swapping coordinates maps y = m*x + b onto y = x/m - b/m.
        A = random_subset(p, seed)
        for m in range(1, p):
            inv = pow(m, -1, p)
            assert sorted(slope_profile(A, m)) == sorted(slope_profile(A, inv))


@pytest.mark.parametrize(
    "n, k", [(1, 30), (71, 5), (72, 4), (210, 4), (211, 3), (1261, 3), (1262, 2)]
)
def test_digit_capacity(n, k):
    assert _digit_capacity(n) == k
    assert (n + 1) ** k <= ntt.NTT_PRIME < (n + 1) ** (k + 1)


class TestHistogram:
    def test_hand_case_all_strategies(self):
        for strat in ("naive", "slope_direct", "slope_fast"):
            h = incidence_histogram(UNIT_SQUARE, strat)
            assert h.counts == {2: 6, 1: 12}
            assert h.zero_lines == 12

    def test_single_point(self):
        h = incidence_histogram(from_list(P5, [0]))
        assert h.counts == {1: 6}

    def test_records_its_strategy_and_compares_by_counts(self):
        for strat in STRATEGIES:
            assert incidence_histogram(UNIT_SQUARE, strat).strategy == strat
        assert incidence_histogram(UNIT_SQUARE).strategy == "slope_direct"
        assert incidence_histogram(from_list(P5, []), "slope_fast").strategy == "slope_fast"
        by_hand = IncidenceHistogram(5, 2, {2: 6, 1: 12})
        assert by_hand.strategy == ""
        assert incidence_histogram(UNIT_SQUARE, "naive") == by_hand

    def test_full_field(self):
        h = incidence_histogram(gen_full_field(P5))
        assert h.counts == {5: 30}

    def test_empty_set(self):
        h = incidence_histogram(from_list(P5, []))
        assert h.counts == {}
        assert h.zero_lines == 30

    def test_line_family_size(self):
        assert sum(1 for _ in all_lines(7)) == 7 * 7 + 7

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_strategy_equivalence(self, p, seed):
        A = random_subset(p, seed)
        naive = incidence_histogram(A, "naive")
        direct = incidence_histogram(A, "slope_direct")
        fast = incidence_histogram(A, "slope_fast")
        assert naive.counts == direct.counts == fast.counts

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_paired_strategies_match_naive_on_edge_sets(self, p):
        # Random sets are covered by test_strategy_equivalence.
        m = validate_prime(p)
        sets = [[], [0], [p - 1], [0, 1], [1, p - 1], list(range(1, p)), list(range(p))]
        for elements in sets:
            A = from_list(m, elements)
            naive = incidence_histogram(A, "naive").counts
            assert incidence_histogram(A, "slope_direct").counts == naive, elements
            assert incidence_histogram(A, "slope_fast").counts == naive, elements

    @pytest.mark.parametrize("p", [73, 79])
    def test_packed_fast_matches_naive_across_digit_capacity(self, p):
        # k = 5 slopes per convolution at n = 71 and 4 at n = 72.
        m = validate_prime(p)
        rng = SplitMix64(p)
        sets = [list(range(p)), [0], [p - 1]]
        for n in (71, 72):
            sets.append(sorted(gen_uniform(m, n, seed=rng.next_u64()).elements))
        for elements in sets:
            A = from_list(m, elements)
            naive = incidence_histogram(A, "naive").counts
            assert incidence_histogram(A, "slope_fast").counts == naive, len(elements)

    # (p + 1) / 2 slope classes, k slopes per convolution:
    # 37 / 4, 51 / 11 and 40 / 30, rounded up.
    @pytest.mark.parametrize("p, n, expected", [(73, 72, 10), (101, 6, 5), (79, 1, 2)])
    def test_packed_fast_convolution_count(self, p, n, expected, monkeypatch):
        calls = []
        original = ntt.convolve_with_transform

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ntt, "convolve_with_transform", counting)
        A = gen_uniform(validate_prime(p), n, seed=p)
        incidence_histogram(A, "slope_fast")
        assert len(calls) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_affine_image_invariance(self, p, seed):
        A = random_subset(p, seed)
        rng = SplitMix64(seed ^ 0xA5A5)
        c = 1 + rng.below(p - 1)
        d = rng.below(p)
        image = from_list(A.modulus, [(c * a + d) % p for a in A.elements])
        assert incidence_histogram(A).counts == incidence_histogram(image).counts

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_structural_invariants(self, p, seed):
        A = random_subset(p, seed)
        h = incidence_histogram(A)
        n = A.n
        if n:
            assert h.max_incidence <= n
            assert h.counts.get(n, 0) >= 2 * n
        assert all(v > 0 for v in h.counts.values())
        assert h.zero_lines >= 0


def literal_counts(A):
    """The histogram from incidence_count over every line, one at a time."""
    tally = Counter(incidence_count(A, line) for line in all_lines(A.p))
    del tally[0]
    return dict(tally)


NAIVE_PRIMES = [3, 5, 7, 11, 13]


class TestNaive:
    @pytest.mark.parametrize("p", NAIVE_PRIMES)
    def test_matches_literal_count_on_edge_sets(self, p):
        m = validate_prime(p)
        for elements in ([], [0], [p - 1], list(range(p))):
            A = from_list(m, elements)
            assert incidence_histogram(A, "naive").counts == literal_counts(A), elements

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(NAIVE_PRIMES), st.integers(0, 2**32 - 1))
    def test_matches_literal_count_on_random_sets(self, p, seed):
        A = random_subset(p, seed)
        assert incidence_histogram(A, "naive").counts == literal_counts(A)

    # At p = 13: one slope per chunk (targets 1 and 13), and chunks of
    # 5, 5 and 3 slopes, the last one short (target 65).
    @pytest.mark.parametrize("target", [1, 13, 65])
    def test_chunk_boundaries(self, monkeypatch, target):
        monkeypatch.setattr(incidence, "_CHUNK_TARGET", target)
        m = validate_prime(13)
        for elements in ([12], [0, 3, 4, 9, 12], list(range(13))):
            A = from_list(m, elements)
            assert incidence_histogram(A, "naive").counts == literal_counts(A), elements

    def test_every_strategy_refuses_p_past_engine_max(self, monkeypatch):
        def never(*args):
            raise AssertionError("tally started past ENGINE_MAX_P")

        A = from_list(validate_prime(2**31 + 11), [0, 1])
        for strategy in STRATEGIES:
            monkeypatch.setitem(incidence._TALLIES, strategy, never)
            with pytest.raises(InvalidParameter):
                incidence_histogram(A, strategy)


class TestMoments:
    def test_hand_case(self):
        ms = moments(incidence_histogram(UNIT_SQUARE))
        assert (ms.s1, ms.s2, ms.s3, ms.s4) == (24, 36, 60, 108)
        assert ms.t == 60 and ms.q == 108

    def test_single_point(self):
        ms = moments(incidence_histogram(from_list(P5, [0])))
        assert (ms.s1, ms.s2, ms.s3, ms.s4) == (6, 6, 6, 6)

    def test_full_field(self):
        for p in (5, 13):
            A = gen_full_field(validate_prime(p))
            ms = moments(incidence_histogram(A))
            assert ms.s3 == (p * p + p) * p**3
            assert ms.s4 == (p * p + p) * p**4

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_moment_identities(self, p, seed):
        A = random_subset(p, seed)
        n = A.n
        ms = moments(incidence_histogram(A))
        assert ms.s1 == (p + 1) * n * n
        assert ms.s2 == n**4 + p * n * n
        assert ms.s3 <= n * ms.s2
        assert ms.s4 <= n * ms.s3

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_exact_deviation_identity(self, p, seed):
        # sum over lines of (i - n^2/p)^2 equals p n^2 - n^4/p exactly
        A = random_subset(p, seed)
        n = A.n
        h = incidence_histogram(A)
        mean = Fraction(n * n, p)
        dev = sum(c * (Fraction(k) - mean) ** 2 for k, c in h.counts.items())
        dev += h.zero_lines * mean**2
        assert dev == p * n * n - Fraction(n**4, p)

    def test_no_overflow_at_moderate_scale(self):
        A = gen_full_field(validate_prime(257))
        ms = moments(incidence_histogram(A, "slope_fast"))
        assert ms.s4 == (257**2 + 257) * 257**4  # > 2**64


class TestDefaultStrategy:
    def test_rule(self):
        # Measured equal-cost points: n near 290 at p = 1009 and 367 at
        # p = 2003 (incidence._CROSSOVER_K); the rule keeps slope_direct
        # up to n = 245 and 362.  Pinned on both sides.
        assert default_strategy(2003, 159) == "slope_direct"
        assert default_strategy(1009, 200) == "slope_direct"
        assert default_strategy(2003, 350) == "slope_direct"
        assert default_strategy(1009, 300) == "slope_fast"
        assert default_strategy(2003, 600) == "slope_fast"
        assert default_strategy(1009, 605) == "slope_fast"
        assert default_strategy(2003, 1002) == "slope_fast"

    def test_choice_is_logged(self, caplog):
        with caplog.at_level("INFO", logger="gridlines.incidence"):
            incidence_histogram(UNIT_SQUARE)
        assert any("strategy auto-selected" in r.message for r in caplog.records)
