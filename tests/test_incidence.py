from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines import incidence, ntt
from gridlines.errors import InvalidParameter, ModulusMismatch
from gridlines.fieldsets import (
    from_list,
    gen_full_field,
    gen_uniform,
    parse_set_descriptor,
    validate_prime,
)
from gridlines.incidence import (
    KERNELS,
    STRATEGIES,
    IncidenceHistogram,
    _digit_capacity,
    _profiles,
    default_strategy,
    estimated_ps,
    incidence_histogram,
    moments,
)
from gridlines.rng import SplitMix64

P5 = validate_prime(5)
UNIT_SQUARE = from_list(P5, [0, 1])

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@dataclass(frozen=True)
class Sloped:
    """Line y = m*x + b."""

    m: int
    b: int


@dataclass(frozen=True)
class Vertical:
    """Line x = c."""

    c: int


def all_lines(p):
    """All p**2 + p affine lines, sloped first."""
    for m in range(p):
        for b in range(p):
            yield Sloped(m, b)
    for c in range(p):
        yield Vertical(c)


def incidence_count(A, line):
    """Number of points of A x A on the line, one point at a time: the
    reference the naive kernel is tested against."""
    p = A.p
    coefficients = (line.c,) if isinstance(line, Vertical) else (line.m, line.b)
    if not all(0 <= value < p for value in coefficients):
        raise ModulusMismatch(f"{line} has a coefficient that is not a residue mod {p}")
    if isinstance(line, Vertical):
        return A.n if line.c in A else 0
    return sum(1 for x in A.elements if (line.m * x + line.b) % p in A)


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


def slope_profile(A, m):
    """Entry b is i(Sloped(m, b)), read from _profiles for the one slope m."""
    elems = np.asarray(A.elements, dtype=np.intp)
    keys = np.empty((1, A.n, A.n), dtype=np.intp)
    return _profiles(elems, np.array([m], dtype=np.intp), A.p, keys)[0]


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
        for kernel in KERNELS:
            h = incidence_histogram(UNIT_SQUARE, kernel)
            assert h.kernel == kernel and h.strategy in STRATEGIES
        assert incidence_histogram(UNIT_SQUARE, "ratio").strategy == "slope_direct"
        assert incidence_histogram(UNIT_SQUARE, "ntt").strategy == "slope_fast"
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
        naive = incidence_histogram(A, "naive").counts
        for strategy in STRATEGIES + KERNELS:  # every kernel at any density
            assert incidence_histogram(A, strategy).counts == naive, strategy

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_paired_strategies_match_naive_on_edge_sets(self, p):
        # Random sets are covered by test_strategy_equivalence.
        m = validate_prime(p)
        sets = [[], [0], [p - 1], [0, 1], [1, p - 1], list(range(1, p)), list(range(p))]
        for elements in sets:
            A = from_list(m, elements)
            naive = incidence_histogram(A, "naive").counts
            assert naive == literal_counts(A), elements
            for strategy in STRATEGIES + KERNELS:
                assert incidence_histogram(A, strategy).counts == naive, (strategy, elements)

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
        for kernel, row in list(incidence._KERNELS.items()):
            monkeypatch.setitem(incidence._KERNELS, kernel, row._replace(tally=never))
        for strategy in STRATEGIES + KERNELS:
            with pytest.raises(InvalidParameter, match=f"p <= {2**24}"):
                incidence_histogram(A, strategy)


class TestKernelTable:
    def test_a_strategy_runs_its_cheapest_kernel(self):
        for p, n in [(101, 6), (101, 61), (1009, 19), (1009, 101), (211, 150)]:
            A = gen_uniform(validate_prime(p), n, seed=p)
            ratio, profile = (estimated_ps(k, p, n) for k in ("ratio", "profile"))
            direct = incidence_histogram(A, "slope_direct")
            assert direct.kernel == ("ratio" if ratio < profile else "profile")
            assert incidence_histogram(A, "slope_fast").kernel == "ntt"
            assert incidence_histogram(A, "naive").kernel == "naive"
            assert direct.counts == incidence_histogram(A).counts

    def test_estimates_are_integers_in_their_units(self):
        # ntt: (p + 1) / 2 = 51 slope classes at k = 5 per convolution
        # make 11 convolutions of 256 transform points.
        assert estimated_ps("naive", 101, 61) == 101 * 101 * 61 * 700
        # ratio: 4-byte products below p = 46341, 8-byte ones above.
        assert estimated_ps("ratio", 101, 61) == (61 * 62 // 2 * 60**2 * 4 + 114_000) * 1750
        assert estimated_ps("ratio", 46349, 61) == (61 * 62 // 2 * 60**2 * 8 + 114_000) * 1750
        assert estimated_ps("ratio", 101, 1) == 0
        assert estimated_ps("profile", 101, 61) == 51 * (61**2 + 202) * 2200
        assert estimated_ps("ntt", 101, 61) == 11 * (256 + 840) * 185000
        assert all(type(estimated_ps(k, 40009, 100)) is int for k in KERNELS)


def profile_counts(A):
    """The histogram from _profiles over every slope 0..p-1, no symmetry used."""
    p, n = A.p, A.n
    elems = np.asarray(A.elements, dtype=np.intp)
    acc = np.zeros(n + 1, dtype=np.int64)
    chunk = 64
    keys = np.empty((chunk, n, n), dtype=np.intp)
    for start in range(0, p, chunk):
        slopes = np.arange(start, min(start + chunk, p), dtype=np.intp)
        acc += np.bincount(_profiles(elems, slopes, p, keys).ravel(), minlength=n + 1)
    acc[n] += n  # the vertical family
    return {k: int(acc[k]) for k in range(1, n + 1) if acc[k]}


def sparse_counts(A):
    """The ratio kernel's histogram of a sparse set, p > 2 n**2."""
    assert A.p > 2 * A.n**2
    return incidence_histogram(A, "ratio").counts


RATIO_PRIMES = [17, 19, 23, 29, 31, 37, 53, 73, 101, 127, 163, 211]


class TestSparseRatioBranch:
    """The ratio kernel, which counts lines from runs of equal ratios, on sparse sets."""

    @pytest.mark.parametrize("p", NAIVE_PRIMES)
    def test_matches_naive_on_every_sparse_set(self, p):
        m = validate_prime(p)
        for n in range(1, p):
            if 2 * n * n >= p:
                break
            for elements in combinations(range(p), n):
                A = from_list(m, elements)
                assert sparse_counts(A) == incidence_histogram(A, "naive").counts, elements

    def test_matches_naive_at_the_threshold(self):
        # p = 2 n**2 + 1 at n = 3.
        m = validate_prime(19)
        for elements in combinations(range(19), 3):
            A = from_list(m, elements)
            assert sparse_counts(A) == incidence_histogram(A, "naive").counts, elements

    # slope_direct runs the ratio kernel where the table estimates it
    # cheaper than the profile kernel: up to about n**2 = 0.8 p at p = 503
    # and 0.96 p from 2003 to 40009, and for no n > 1 below p = 307, where
    # its 0.2 ms of set-up costs more than the profile kernel's whole build;
    # n near 0.6 sqrt(p) and 1.4 sqrt(p) lie on either side.
    @pytest.mark.parametrize("p, n, sparse", [(19, 3, False), (13, 2, False), (3, 1, True),
                                              (503, 18, True), (503, 24, False),
                                              (1009, 19, True), (2003, 56, False)])
    def test_branch_threshold(self, monkeypatch, p, n, sparse):
        assert (estimated_ps("ratio", p, n) < estimated_ps("profile", p, n)) == sparse
        calls = []
        original = incidence._run_length_counts

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(incidence, "_run_length_counts", counting)
        A = gen_uniform(validate_prime(p), n, seed=p)
        assert incidence_histogram(A, "slope_direct").counts == \
            incidence_histogram(A, "naive").counts
        assert bool(calls) == (sparse and n > 1)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(RATIO_PRIMES), st.integers(0, 2**32 - 1))
    def test_matches_naive_on_random_sparse_sets(self, p, seed):
        rng = SplitMix64(seed)
        n = 1 + rng.below(int(((p - 1) / 2) ** 0.5))
        A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
        assert sparse_counts(A) == incidence_histogram(A, "naive").counts

    @pytest.mark.parametrize("p", [11, 101, 10007, 40009])
    def test_one_and_two_points(self, p):
        m = validate_prime(p)
        assert sparse_counts(from_list(m, [p - 1])) == {1: p + 1}
        # Two rows, two columns and two diagonals meet the 2 x 2 grid
        # in 2 points; the other lines through its 4 points in 1.
        assert sparse_counts(from_list(m, [0, p // 2])) == {2: 6, 1: 4 * p - 8}

    @pytest.mark.parametrize("p", [46337, 46349])  # the last int32 prime, the first int64 one
    def test_at_the_int32_tier_boundary(self, p):
        # 1, 2, p - 2 and p - 1 make differences and ratios up to p - 1.
        # naive would take p**2 n lookups, so the lines through two or more
        # points are counted one by one, and the one-point lines from s1.
        A = from_list(validate_prime(p), [1, 2, p // 2, p - 2, p - 1])
        lines = set()
        for (x1, y1), (x2, y2) in combinations([(x, y) for x in A.elements for y in A.elements], 2):
            m = (y2 - y1) * pow(x2 - x1, -1, p) % p if x1 != x2 else None
            lines.add(Vertical(x1) if m is None else Sloped(m, (y1 - m * x1) % p))
        counts = Counter(incidence_count(A, line) for line in lines)
        counts[1] = (p + 1) * A.n**2 - sum(k * c for k, c in counts.items())
        assert sparse_counts(A) == dict(counts)

    @pytest.mark.parametrize("p, descriptors", [
        (2003, ["interval:0:31", "ap:5:17:31", "gp:1:3:31"]),
        (4001, ["interval:7:44", "ap:5:17:44", "gp:1:3:44"]),
    ])
    def test_structured_sets_match_slope_fast_and_profiles(self, p, descriptors):
        m = validate_prime(p)
        for descriptor in descriptors:
            A = parse_set_descriptor(descriptor).realize(m)
            counts = sparse_counts(A)
            # Beyond the 2n axis lines, lines through 3 or more points.
            assert sum(c for k, c in counts.items() if k >= 3) > 2 * A.n, descriptor
            assert counts == incidence_histogram(A, "slope_fast").counts, descriptor
            assert counts == profile_counts(A), descriptor

    @pytest.mark.parametrize("descriptor", ["interval:3:70", "ap:1:99:70", "gp:2:5:70"])
    def test_structured_sets_match_profiles_at_large_p(self, descriptor):
        A = parse_set_descriptor(descriptor).realize(validate_prime(10007))
        counts = sparse_counts(A)
        assert sum(c for k, c in counts.items() if k >= 3) > 2 * A.n
        assert counts == profile_counts(A)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([1009, 2003, 10007, 40009]), st.integers(0, 2**32 - 1))
    def test_second_moment_identity(self, p, seed):
        # Every ordered pair of distinct grid points lies on one line; the
        # first moment holds by construction here.
        rng = SplitMix64(seed)
        n = 2 + rng.below(min(40, int((p / 2) ** 0.5)) - 1)
        A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
        assert A.p > 2 * n * n
        ms = moments(incidence_histogram(A, "ratio"))
        assert ms.s1 == (p + 1) * n * n
        assert ms.s2 == n**4 + p * n * n


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
        # Measured equal-cost points of the profile and ntt kernels: n
        # between 280 and 300 at p = 1009, and between 350 and 390 at
        # p = 2003.  Pinned on both sides.
        assert default_strategy(2003, 159) == "slope_direct"
        assert default_strategy(1009, 200) == "slope_direct"
        assert default_strategy(2003, 350) == "slope_direct"
        assert default_strategy(1009, 300) == "slope_fast"
        assert default_strategy(2003, 600) == "slope_fast"
        assert default_strategy(1009, 605) == "slope_fast"
        assert default_strategy(2003, 1002) == "slope_fast"

    @pytest.mark.parametrize("p, n, kernel", [
        (101, 61, "profile"),                     # moments-dense warm-up
        (1009, 101, "profile"), (2003, 159, "profile"),  # moments-p23
        (1009, 605, "ntt"), (2003, 1002, "ntt"),  # moments-dense
        (101, 6, "profile"), (211, 6, "profile"), (211, 8, "profile"),
        (101, 12, "profile"),                     # census-verify
        (40009, 100, "ratio"),                    # paper-interval
        (503, 14, "ratio"), (503, 32, "profile"),  # sweep-sparse at its expected n
        (1009, 20, "ratio"), (1009, 46, "profile"), (2003, 27, "ratio"), (2003, 64, "profile"),
    ])
    def test_workload_instances_keep_their_kernel(self, p, n, kernel):
        A = gen_uniform(validate_prime(p), n, seed=1)
        assert default_strategy(p, n) == incidence._KERNELS[kernel].strategy
        if p * n < 10**6:
            assert incidence_histogram(A).kernel == kernel

    def test_choice_is_logged(self, caplog):
        with caplog.at_level("INFO", logger="gridlines.incidence"):
            incidence_histogram(UNIT_SQUARE)
        assert any("strategy auto-selected" in r.message for r in caplog.records)
