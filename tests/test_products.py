import dataclasses
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines.errors import InvalidParameter
from gridlines import products
from gridlines.fieldsets import (
    from_list,
    gen_full_field,
    gen_gp,
    gen_interval,
    gen_uniform,
    validate_prime,
)
from gridlines.harness import support_to_json_dict
from gridlines.products import CENSUS_BUDGET, product_rep_table, second_moment, support_census
from gridlines.rng import SplitMix64

P5 = validate_prime(5)
SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestProductRepTable:
    def test_hand_case(self):
        # A = {0,1}, base pair (0,0): products a2*a4 over {0,1}^2
        t = product_rep_table(from_list(P5, [0, 1]), 0, 0)
        assert t.table == {0: 3, 1: 1}
        assert t.support_size == 2

    def test_mass_is_n_squared(self):
        A = from_list(validate_prime(11), [1, 4, 9])
        t = product_rep_table(A, 4, 9)
        assert t.total == 9

    def test_full_field_support_is_p(self):
        A = gen_full_field(validate_prime(7))
        for a1, a3 in [(0, 0), (3, 5)]:
            assert product_rep_table(A, a1, a3).support_size == 7

    def test_numpy_and_python_paths_agree(self):
        m = validate_prime(101)
        A = gen_uniform(m, 12, seed=4)  # n >= 8: numpy path
        small = from_list(m, A.elements[:5])  # python path
        for a1, a3 in [(A.elements[0], A.elements[1])]:
            big = product_rep_table(A, a1, a3)
            assert big.total == A.n * A.n
        t1 = product_rep_table(small, small.elements[0], small.elements[1])
        brute = {}
        for a2 in small.elements:
            for a4 in small.elements:
                x = (small.elements[0] - a2) * (small.elements[1] - a4) % 101
                brute[x] = brute.get(x, 0) + 1
        assert t1.table == brute

    # 2**31 + 11 is the first prime on the Python-int path; at 2**61 - 1
    # the products of differences overflow int64.
    @pytest.mark.parametrize("p", [2**31 + 11, 2**61 - 1])
    def test_big_modulus_matches_python_ints(self, p):
        A = from_list(validate_prime(p), [0, 1, 5, p - 1, p - 2**20])
        for a1, a3 in [(0, 1), (p - 1, 5), (p - 2**20, p - 1)]:
            brute = {}
            for a2 in A.elements:
                for a4 in A.elements:
                    x = (a1 - a2) * (a3 - a4) % p
                    brute[x] = brute.get(x, 0) + 1
            table = product_rep_table(A, a1, a3).table
            assert table == brute
            assert all(type(x) is int and type(c) is int for x, c in table.items())


class TestSecondMoment:
    def test_hand_case(self):
        t = product_rep_table(from_list(P5, [0, 1]), 0, 0)
        assert second_moment(t) == 10  # 9 + 1

    def test_single_element(self):
        t = product_rep_table(from_list(P5, [2]), 2, 2)
        assert second_moment(t) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_cauchy_schwarz_exact(self, p, seed):
        rng = SplitMix64(seed)
        n = 1 + rng.below(min(6, p))
        A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
        a1 = A.elements[rng.below(n)]
        a3 = A.elements[rng.below(n)]
        t = product_rep_table(A, a1, a3)
        total = t.total
        assert total == n * n
        assert Fraction(second_moment(t)) >= Fraction(total * total, t.support_size)


class TestDualPathAgainstTripleCount:
    def test_zero_bucket_lower_bound(self):
        # pairs with a2 = a1 or a4 = a3 all land on product 0: 2n - 1 of them
        A = gen_uniform(validate_prime(31), 6, seed=12)
        for a1 in A.elements[:2]:
            for a3 in A.elements[:2]:
                t = product_rep_table(A, a1, a3)
                assert t.table[0] >= 2 * A.n - 1

    def test_sum_of_second_moments_tracks_triple_count(self):
        # sum over base pairs of sum_x f^2 equals s3 up to O(n^4);
        # measured constant printed, generous cap asserted
        from gridlines.incidence import incidence_histogram, moments

        worst = Fraction(0)
        for i in range(8):
            rng = SplitMix64(500 + i)
            p = SMALL_PRIMES[rng.below(len(SMALL_PRIMES))]
            n = 2 + rng.below(min(6, p - 1))
            A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
            total = sum(
                second_moment(product_rep_table(A, a1, a3))
                for a1 in A.elements
                for a3 in A.elements
            )
            s3 = moments(incidence_histogram(A)).s3
            worst = max(worst, Fraction(abs(total - s3), n**4))
        print(f"dual-path |sum f^2 - s3| / n^4 max = {float(worst):.3f}")
        assert worst <= 20


class TestSupportCensus:
    def test_hand_case_full_census(self):
        summary = support_census(from_list(P5, [0, 1]))
        assert len(summary.pairs) == 4
        assert all(row[2] <= 4 for row in summary.pairs)
        assert not summary.sampled

    def test_support_bounded_by_min_n2_p(self):
        A = gen_uniform(validate_prime(13), 5, seed=8)
        summary = support_census(A)
        bound = min(A.n * A.n, 13)
        assert summary.max_support <= bound

    def test_interval_mean_support_below_n_squared(self):
        A = gen_interval(validate_prime(10007), 1, 50)
        summary = support_census(A)
        assert summary.mean_support < 50 * 50
        assert summary.cs_lower_bound > 0

    def test_translation_invariance_of_census(self):
        p = 31
        A = gen_uniform(validate_prime(p), 5, seed=2)
        shifted = from_list(A.modulus, [(a + 7) % p for a in A.elements])
        s1 = support_census(A)
        s2 = support_census(shifted)
        assert sorted(r[2] for r in s1.pairs) == sorted(r[2] for r in s2.pairs)
        assert s1.cs_lower_bound == s2.cs_lower_bound

    def test_sampled_census(self):
        A = gen_uniform(validate_prime(101), 10, seed=3)
        full = support_census(A)
        sampled = support_census(A, sample=20, seed=5)
        again = support_census(A, sample=20, seed=5)
        assert sampled.pairs == again.pairs
        assert len(sampled.pairs) == 20
        assert sampled.sampled
        # scaled bound estimates the full-census bound within 3x
        ratio = sampled.cs_lower_bound / full.cs_lower_bound
        assert Fraction(1, 3) < ratio < 3

    def test_sample_needs_seed(self):
        A = gen_uniform(validate_prime(101), 10, seed=3)
        with pytest.raises(InvalidParameter):
            support_census(A, sample=5)

    def test_sample_bounds(self):
        A = from_list(P5, [0, 1])
        with pytest.raises(InvalidParameter):
            support_census(A, sample=5, seed=1)

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidParameter):
            support_census(from_list(P5, []))

    def test_fitted_exponent(self):
        A = gen_interval(validate_prime(10007), 1, 50)
        summary = support_census(A)
        assert summary.fitted_log_exponent is not None
        assert summary.fitted_log_exponent > 0  # support genuinely below n^2
        tiny = support_census(from_list(P5, [0, 1]))
        assert tiny.fitted_log_exponent is None  # n < 3: fit undefined


def per_pair_rows(A, pairs):
    """Census rows from one independent product_rep_table per base pair."""
    rows = []
    for a1, a3 in pairs:
        t = product_rep_table(A, a1, a3)
        rows.append((a1, a3, t.support_size, second_moment(t)))
    return rows


def assert_census_matches_tables(A, summary):
    pairs = [(a1, a3) for a1, a3, _, _ in summary.pairs]
    if not summary.sampled:
        assert pairs == [(a1, a3) for a1 in A.elements for a3 in A.elements]
    rows = per_pair_rows(A, pairs)
    assert summary.pairs == rows
    n4 = A.n ** 4
    bound = sum((Fraction(n4, row[2]) for row in rows), Fraction(0))
    if summary.sampled:
        bound *= Fraction(A.n ** 2, len(rows))
    assert summary.cs_lower_bound == bound
    mean = Fraction(sum(row[2] for row in rows), len(rows))
    assert summary.fitted_log_exponent == products._fit_log_exponent(A.n, mean)


class TestCensusKernel:
    @pytest.mark.parametrize("A", [
        gen_uniform(validate_prime(3607), 30, seed=11),
        gen_uniform(validate_prime(101), 17, seed=2),
        gen_interval(validate_prime(1009), 5, 21),
        gen_gp(validate_prime(3607), 2, 3, 25),
        gen_full_field(validate_prime(13)),
        from_list(P5, [3]),
        from_list(validate_prime(101), [7, 9]),
        from_list(validate_prime(3607), [0, 1, 17, 1800, 3605, 3606]),
        gen_full_field(P5),
        gen_full_field(validate_prime(7)),
        from_list(validate_prime(46337), [0, 1, 2, 23168, 46335, 46336]),
        from_list(validate_prime(46349), [0, 1, 2, 23174, 46347, 46348]),
    ], ids=["uniform30", "uniform17", "interval", "gp", "full-field", "n1", "n2",
            "zero-and-top", "F5", "F7", "int32-top", "int64-bottom"])
    def test_full_census_matches_per_pair_tables(self, A):
        # The census forms only the pairs a1 <= a3; rows (a1, a3) and
        # (a3, a1) share a slot, and each is checked against its own table.
        assert_census_matches_tables(A, support_census(A))

    def test_sampled_census_matches_per_pair_tables(self):
        A = gen_uniform(validate_prime(1009), 25, seed=6)
        summary = support_census(A, sample=97, seed=13)
        assert summary.sampled and len(summary.pairs) == 97
        assert_census_matches_tables(A, summary)

    @pytest.mark.parametrize("block", [1, 2 * 49, 5 * 49 - 1])
    def test_block_sizes(self, monkeypatch, block):
        # 49 products per pair of a 7-set: blocks of 1, 2 and 4 pairs over
        # its 49 base pairs, the last two sizes ending in a short block.
        monkeypatch.setattr(products, "_BLOCK_PRODUCTS", block)
        A = gen_uniform(validate_prime(101), 7, seed=4)
        assert_census_matches_tables(A, support_census(A))

    def test_one_pair_per_block_when_n_squared_exceeds_block(self):
        A = gen_uniform(validate_prime(100003), 257, seed=9)
        assert A.n ** 2 > products._BLOCK_PRODUCTS
        assert_census_matches_tables(A, support_census(A, sample=3, seed=1))

    def test_object_path_at_mersenne_61(self):
        p = 2**61 - 1
        A = from_list(validate_prime(p), [0, 1, 5, 2**40 + 3, p - 2**20, p - 1])
        summary = support_census(A)
        # Column widths follow n alone: 6**2 = 36 and 6**4 = 1296.
        assert summary.pairs.supports.dtype == np.uint8
        assert summary.pairs.moments.dtype == np.uint16
        assert_census_matches_tables(A, summary)
        sampled = support_census(A, sample=7, seed=2)
        assert_census_matches_tables(A, sampled)


def tier_boundary_set(p):
    """Holds 1, 2, p - 2 and p - 1, so differences and products reach p - 1 and (p - 1)**2."""
    return from_list(validate_prime(p), [1, 2, p // 2, p - 2, p - 1])


@pytest.mark.parametrize("p", [46337, 46349])  # the last int32 prime and the first int64 one
def test_census_at_the_int32_tier_boundary(p):
    A = tier_boundary_set(p)
    rows = []
    for a1 in A.elements:
        for a3 in A.elements:
            f = Counter((a1 - a2) * (a3 - a4) % p for a2 in A.elements for a4 in A.elements)
            rows.append((a1, a3, len(f), sum(c * c for c in f.values())))
    assert support_census(A).pairs == rows


class TestColumnWidths:
    # n**2 crosses 2**16 and n**4 crosses 2**32 between n = 255 and 256.
    @pytest.mark.parametrize("n, supports, moments", [
        (255, np.uint16, np.uint32),
        (256, np.uint32, np.uint64),
    ])
    def test_sampled_census_at_the_boundary(self, n, supports, moments):
        A = gen_uniform(validate_prime(100003), n, seed=n)
        summary = support_census(A, sample=3, seed=1)
        assert summary.pairs.supports.dtype == supports
        assert summary.pairs.moments.dtype == moments
        assert_census_matches_tables(A, summary)
        for row in list(summary.pairs) + [summary.pairs[0]]:
            assert all(type(x) is int for x in row)

    @pytest.mark.parametrize("n", [255, 256])
    def test_extreme_values_fit_their_columns(self, n):
        # One pair of n-column rows forms n**2 products.  All equal:
        # support 1 and second moment n**4, 2**32 at n = 256.  All
        # distinct (1..n against primes above n, every product below p):
        # support and second moment n**2, 2**16 at n = 256.
        p = 1_000_003
        ones = np.ones((1, n), dtype=np.int64)
        supports, moments = products._product_moments(ones, ones, [0], [0], p)
        assert (int(supports[0]), int(moments[0])) == (1, n ** 4)
        primes = [q for q in range(n + 1, 4000) if all(q % d for d in range(2, q))]
        left = np.arange(1, n + 1, dtype=np.int64)[None, :]
        right = np.array(primes[:n], dtype=np.int64)[None, :]
        supports, moments = products._product_moments(left, right, [0], [0], p)
        assert (int(supports[0]), int(moments[0])) == (n ** 2, n ** 2)


class TestCensusRows:
    A = gen_uniform(validate_prime(101), 4, seed=7)

    def test_sequence_protocol(self):
        rows = support_census(self.A).pairs
        expected = per_pair_rows(self.A, [(a, b) for a in self.A.elements for b in self.A.elements])
        assert len(rows) == 16
        assert rows[0] == expected[0] and rows[-1] == expected[-1] and rows[-16] == expected[0]
        with pytest.raises(IndexError):
            rows[16]
        with pytest.raises(IndexError):
            rows[-17]
        assert rows[1:5] == expected[1:5] and type(rows[1:5]) is list
        assert rows[::-3] == expected[::-3]
        assert rows == expected and rows != expected[:-1] and rows != tuple(expected)
        assert list(rows) == expected and list(reversed(rows)) == expected[::-1]
        assert expected[3] in rows and rows.index(expected[3]) == 3

    def test_rows_hold_python_ints(self):
        for rows in (support_census(self.A).pairs, support_census(self.A, sample=5, seed=3).pairs):
            for row in list(rows) + [rows[0], rows[-1]]:
                assert all(type(x) is int for x in row)

    def test_columns_are_read_only(self):
        for rows in (support_census(self.A).pairs, support_census(self.A, sample=5, seed=3).pairs):
            with pytest.raises(ValueError):
                rows.supports[0] = 0
            with pytest.raises(ValueError):
                rows.moments[0] = 0

    def test_full_census_stores_each_unordered_pair_once(self):
        rows = support_census(gen_uniform(validate_prime(3607), 30, seed=1)).pairs
        assert len(rows) == 900
        assert rows.supports.shape == rows.moments.shape == (465,)  # 30 * 31 / 2
        assert (rows.supports.nbytes, rows.moments.nbytes) == (930, 1860)

    def test_sampled_census_stores_one_entry_per_sampled_pair(self):
        A = gen_uniform(validate_prime(3607), 30, seed=1)
        rows = support_census(A, sample=97, seed=13).pairs
        assert len(rows) == len(rows.supports) == len(rows.moments) == 97

    def test_summary_statistics_reduce_the_columns(self):
        summary = support_census(gen_interval(validate_prime(1009), 3, 12))
        supports = [row[2] for row in summary.pairs]
        assert summary.min_support == min(supports)
        assert summary.max_support == max(supports)
        assert summary.mean_support == Fraction(sum(supports), len(supports))
        assert all(type(x) is int for x in (summary.min_support, summary.max_support))

    def test_statistics_hold_when_the_rows_are_a_plain_list(self):
        for summary in (support_census(self.A), support_census(self.A, sample=5, seed=3)):
            listed = dataclasses.replace(summary, pairs=list(summary.pairs))
            for name in ("min_support", "max_support", "mean_support"):
                assert getattr(listed, name) == getattr(summary, name), name
            assert support_to_json_dict(listed) == support_to_json_dict(summary)


class TestCensusBudget:
    def test_full_census_over_budget_fails_without_allocating(self, monkeypatch):
        A = gen_interval(validate_prime(10007), 1, 2000)
        assert A.n ** 4 > CENSUS_BUDGET

        def no_work(_):
            raise AssertionError("the census started work before its budget check")

        monkeypatch.setattr(products, "_difference_table", no_work)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match="--sample"):
                support_census(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_sample_counts_against_the_budget(self):
        A = gen_interval(validate_prime(10007), 1, 2000)
        most = CENSUS_BUDGET // A.n ** 2
        with pytest.raises(InvalidParameter, match="--sample"):
            support_census(A, sample=most + 1, seed=1)
        small = support_census(A, sample=2, seed=1)
        assert len(small.pairs) == 2 and small.sampled


class TestRatioTables:
    @pytest.mark.parametrize("p", [101, 46337, 2**31 - 1, 2**31 + 11, 2**61 - 1])
    def test_inverses_match_pow_in_both_dtypes(self, p):
        A = from_list(validate_prime(p), [0, 1, 2, 5, p // 3, p - 1])
        values = products._difference_table(A)[0, 1:]
        inverses = products._inverses(values, p)
        assert inverses.dtype == values.dtype
        assert inverses.tolist() == [pow(int(v), -1, p) for v in values]

    def test_rows_are_the_nonzero_differences_and_their_inverses(self):
        p = 13
        A = from_list(validate_prime(p), [1, 4, 9])
        nonzero, inverses = products._ratio_tables(A)
        assert nonzero.tolist() == [[10, 5], [3, 8], [8, 5]]
        assert (nonzero * inverses % p == 1).all()


def test_census_size_limit_is_n_2_14():
    from gridlines.products import _check_census_size

    _check_census_size(2**14)
    with pytest.raises(InvalidParameter, match="n <= 16384"):
        _check_census_size(2**14 + 1)
