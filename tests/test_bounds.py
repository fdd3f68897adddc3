from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines.bounds import (
    _dyadic_table,
    class_bound_check,
    expected_q,
    expected_t,
    first_moment_check,
    lm_count,
    proposition_check,
    ratio_diagnostics,
    regime_decomposition,
    render_fraction,
    root_fraction,
    second_moment_check,
    verify_histogram,
)
from gridlines.fieldsets import from_list, gen_full_field, gen_uniform, validate_prime
from gridlines.incidence import IncidenceHistogram, incidence_histogram, moments
from gridlines.rng import SplitMix64

P5 = validate_prime(5)
UNIT_SQUARE_HIST = incidence_histogram(from_list(P5, [0, 1]))

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def random_hist(p, seed, max_n=None):
    rng = SplitMix64(seed)
    n = rng.below(min(max_n or p, p) + 1)
    A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
    return incidence_histogram(A)


class TestRootFraction:
    def test_exact_squares(self):
        assert root_fraction(49) == 7
        assert root_fraction(5**8) == 5**4

    def test_exact_fourth_powers(self):
        assert root_fraction(16, 4) == 2
        assert root_fraction(3**8, 4) == 9

    def test_approximation_quality(self):
        approx = root_fraction(2)
        assert abs(approx * approx - 2) < Fraction(1, 10**15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            root_fraction(-1)


class TestRenderFraction:
    def test_simple(self):
        assert render_fraction(Fraction(76, 5)) == "15.2"

    def test_integer(self):
        assert render_fraction(Fraction(60)) == "60"

    def test_twelve_significant_digits(self):
        s = render_fraction(Fraction(1, 3))
        assert s.startswith("0.333333333333")

    def test_huge_values_do_not_overflow(self):
        s = render_fraction(Fraction(10**40 + 7, 3))
        assert "E+" in s or len(s) > 10


class TestExpected:
    def test_hand_values(self):
        assert expected_t(5, 2) == Fraction(224, 5)  # 64/5 + 32
        assert expected_t(5, 0) == 0
        assert expected_t(5, 5) == 4375  # 5**5 + 2 * 5**4

    def test_quadruple_formula(self):
        assert expected_q(5, 2) == Fraction(256, 25) + 64
        assert expected_q(7, 0) == 0


class TestProposition:
    def test_hand_case(self):
        chk = proposition_check(UNIT_SQUARE_HIST)
        assert chk.slack == Fraction(76, 5)  # |60 - 224/5|
        assert chk.bound == 40
        assert chk.passed

    def test_full_field_attains_equality(self):
        for p in (5, 11):
            h = incidence_histogram(gen_full_field(validate_prime(p)))
            chk = proposition_check(h)
            assert chk.slack == p**4
            assert chk.bound == p**4
            assert chk.passed

    def test_single_point(self):
        h = incidence_histogram(from_list(P5, [0]))
        chk = proposition_check(h)
        assert chk.slack == Fraction(19, 5)
        assert chk.passed

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_window_holds_on_random_sets(self, p, seed):
        assert proposition_check(random_hist(p, seed)).passed


class TestLmCount:
    def test_hand_case(self):
        assert lm_count(UNIT_SQUARE_HIST, 1) == 6  # lines with i = 2

    def test_above_max_incidence(self):
        assert lm_count(UNIT_SQUARE_HIST, 2) == 0  # (2, 4] empty: i <= n = 2

    def test_full_field_boundaries(self):
        p = 5
        h = incidence_histogram(gen_full_field(P5))
        assert lm_count(h, Fraction(p, 2)) == p * p + p  # (2.5, 5] holds i = 5
        assert lm_count(h, p - 1) == p * p + p           # (4, 8] holds i = 5
        assert lm_count(h, p) == 0                       # (5, 10] misses i = 5

    def test_rational_m(self):
        assert lm_count(UNIT_SQUARE_HIST, Fraction(3, 2)) == 6  # (1.5, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lm_count(UNIT_SQUARE_HIST, 0)


class TestBktIn:
    def test_hand_case(self):
        chk = class_bound_check(UNIT_SQUARE_HIST)
        # threshold 2 n^2 / p = 8/5: M = 1 skipped, M = 2 checked and empty
        assert chk.checked_levels == 1
        assert chk.max_ratio == 0
        assert chk.passed

    def test_full_field_vacuous(self):
        h = incidence_histogram(gen_full_field(P5))
        chk = class_bound_check(h)
        assert chk.passed and chk.max_ratio == 0

    def test_empty_set(self):
        h = incidence_histogram(from_list(P5, []))
        assert class_bound_check(h).passed

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_class_bound_holds_on_random_sets(self, p, seed):
        assert class_bound_check(random_hist(p, seed)).passed


class TestRegimes:
    def test_hand_case_r3(self):
        rep = regime_decomposition(UNIT_SQUARE_HIST, 3)
        assert rep.cut1 == Fraction(8, 5)
        # i = 1 lines are low (5 <= 8), i = 2 lines are mid (20 <= 32)
        assert (rep.low_sum, rep.mid_sum, rep.high_sum) == (12, 48, 0)
        assert rep.total == 60

    def test_full_field_all_low(self):
        h = incidence_histogram(gen_full_field(P5))
        rep = regime_decomposition(h, 3)
        assert rep.low_sum == rep.total == 30 * 125
        assert rep.mid_sum == rep.high_sum == 0
        assert rep.cut1 == 10 and rep.cut2 == 10  # both cuts equal 2p exactly

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            regime_decomposition(UNIT_SQUARE_HIST, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1),
           st.sampled_from([3, 4]))
    def test_partition_is_exact(self, p, seed, r):
        h = random_hist(p, seed)
        ms = moments(h)
        rep = regime_decomposition(h, r)
        assert rep.total == (ms.s3 if r == 3 else ms.s4)
        # cut1 <= cut2 is equivalent to n <= p (both hold by construction)
        assert rep.cut1 * rep.cut1 <= Fraction(4 * h.n**3, p) + Fraction(1, 10**12)


class TestRatios:
    def test_full_field_t_ratio_exactly_one(self):
        for p in (5, 13, 31):
            h = incidence_histogram(gen_full_field(validate_prime(p)))
            diag = ratio_diagnostics(h)
            assert diag.t_ratio == 1

    def test_ratios_finite_positive(self):
        diag = ratio_diagnostics(UNIT_SQUARE_HIST)
        for value in (diag.t_ratio, diag.q_ratio, diag.nine_halves_ratio):
            assert value is not None and value > 0

    def test_empty_set_has_no_ratios(self):
        diag = ratio_diagnostics(incidence_histogram(from_list(P5, [])))
        assert diag.t_ratio is None and diag.dyadic == []

    def test_hand_case_dyadic_row(self):
        diag = ratio_diagnostics(UNIT_SQUARE_HIST)
        assert len(diag.dyadic) == 1
        row = diag.dyadic[0]
        assert row.m == 1 and row.lm_count == 6 and row.incidences == 12
        assert row.class_bound_limit == Fraction(4 * 5 * 4, 1)
        assert row.lm_bound_ratio == Fraction(6, 32)
        assert row.three_quarter_applicable  # 2 * 6 <= 25

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.dictionaries(st.integers(1, 130), st.integers(1, 10**6)))
    def test_table_rows_match_lm_count_at_every_level(self, n, counts):
        # Counts above n (only a corrupted histogram has them) included.
        h = IncidenceHistogram(101, n, counts)
        table = _dyadic_table(h)
        assert len(table) == n.bit_length()
        for j, (lm, incidences) in enumerate(table):
            m = 1 << j
            assert lm == lm_count(h, m)
            assert incidences == sum(k * c for k, c in counts.items() if m < k <= 2 * m)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_dyadic_classes_partition_heavy_lines(self, p, seed):
        h = random_hist(p, seed)
        diag = ratio_diagnostics(h)
        heavy = sum(c for k, c in h.counts.items() if k >= 2)
        assert sum(row.lm_count for row in diag.dyadic) == heavy
        incid = sum(k * c for k, c in h.counts.items() if k >= 2)
        assert sum(row.incidences for row in diag.dyadic) == incid


def test_triple_ratio_bounded_across_scaling_sweep():
    # t_ratio carries an unknown constant, so no tight pass/fail exists;
    # this asserts boundedness at a sanity cap and reports the maximum.
    worst = Fraction(0)
    for p, n in [(211, 42), (401, 66), (1009, 126), (2003, 204)]:  # n ~ p**0.7
        for seed in (1, 2):
            A = gen_uniform(validate_prime(p), n, seed=seed)
            diag = ratio_diagnostics(incidence_histogram(A))
            worst = max(worst, diag.t_ratio)
    print(f"max t_ratio across scaling sweep = {float(worst):.3f}")
    assert worst < 100


class TestVerifyHistogram:
    def test_hand_case_overall_pass(self):
        rep = verify_histogram(UNIT_SQUARE_HIST, "list:0,1")
        assert rep.strategy == "slope_direct"  # read from the histogram
        assert rep.overall_pass
        assert rep.moment_set.s3 == 60
        assert [c.passed for c in rep.identities] == [True, True]

    def test_identity_checks_catch_corruption(self):
        bad = IncidenceHistogram(5, 2, {2: 6, 1: 13})
        rep = verify_histogram(bad)
        assert not first_moment_check(bad, moments(bad)).passed
        assert not rep.overall_pass

    def test_json_shape(self):
        naive = incidence_histogram(from_list(P5, [0, 1]), "naive")
        data = verify_histogram(naive, "list:0,1", 0).to_json_dict()
        assert data["schema_version"] == 1
        assert data["config"]["strategy"] == "naive"
        assert data["moments"]["t"] == 60
        assert data["identities"]["s1"]["pass"] is True
        assert data["proposition"]["slack_exact"] == "76/5"
        assert data["overall_pass"] is True
        assert data["config"]["set"] == "list:0,1"

    def test_value_above_every_class_is_left_out(self):
        # i = 7 > n = 2 lies beyond the last class (2, 4]; the report
        # counts it in the moments alone.
        data = verify_histogram(IncidenceHistogram(5, 2, {2: 6, 1: 12, 7: 1})).to_json_dict()
        assert data["moments"] == {"s1": 31, "s2": 85, "t": 403, "q": 2509}
        assert data["class_bound"] == {
            "max_ratio": "0", "max_ratio_exact": "0", "checked_levels": 1, "pass": True}
        assert data["dyadic"] == [{
            "level": 0, "M": 1, "lm_count": 6, "incidences": 12,
            "class_bound_limit": "80", "lm_bound_ratio": "0.1875",
            "three_quarter_applicable": True, "three_quarter_ratio": "1.31607401295",
        }]
        assert data["config"]["strategy"] == ""
        assert data["overall_pass"] is False

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1))
    def test_random_sets_pass_everything(self, p, seed):
        rep = verify_histogram(random_hist(p, seed))
        assert rep.overall_pass
