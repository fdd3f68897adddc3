import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines.errors import (
    DegenerateSet,
    DescriptorError,
    DuplicateElement,
    EvenCharacteristic,
    InvalidDensity,
    InvalidParameter,
    LengthExceedsField,
    NotPrime,
    ZeroInverse,
)
from gridlines.fieldsets import (
    FieldSubset,
    PrimeModulus,
    element_array,
    from_list,
    gen_ap,
    gen_bernoulli,
    gen_full_field,
    gen_gp,
    gen_interval,
    gen_paper_interval,
    gen_uniform,
    mod_inv,
    parse_set_descriptor,
    validate_prime,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestValidatePrime:
    def test_smallest_odd_primes(self):
        assert validate_prime(5).p == 5
        assert validate_prime(3).p == 3

    def test_composite_rejected(self):
        with pytest.raises(NotPrime):
            validate_prime(9)

    def test_two_rejected_as_even_characteristic(self):
        with pytest.raises(EvenCharacteristic):
            validate_prime(2)

    def test_large_prime_accepted(self):
        assert validate_prime(2**61 - 1).p == 2**61 - 1

    def test_large_composite_rejected(self):
        with pytest.raises(NotPrime):
            validate_prime(2**61 - 3)

    def test_cap(self):
        with pytest.raises(InvalidParameter):
            validate_prime(2**63 + 29)

    def test_line_count(self):
        assert validate_prime(5).line_count == 30


class TestModInv:
    def test_hand_values(self):
        assert mod_inv(2, validate_prime(5)) == 3
        assert mod_inv(1, validate_prime(7)) == 1

    def test_zero(self):
        with pytest.raises(ZeroInverse):
            mod_inv(0, validate_prime(5))

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter):
            mod_inv(5, validate_prime(5))

    @given(st.sampled_from(SMALL_PRIMES), st.integers(1, 30))
    def test_inverse_property(self, p, x):
        x %= p
        if x == 0:
            x = 1
        assert x * mod_inv(x, validate_prime(p)) % p == 1


class TestCanonicalForm:
    def test_from_list_sorts(self):
        A = from_list(validate_prime(7), [5, 1, 3])
        assert A.elements == (1, 3, 5)

    def test_duplicate(self):
        with pytest.raises(DuplicateElement):
            from_list(validate_prime(5), [1, 1, 2])

    def test_out_of_range_element(self):
        with pytest.raises(InvalidParameter):
            from_list(validate_prime(5), [5])

    def test_contains(self):
        A = from_list(validate_prime(7), [1, 4])
        assert 4 in A and 2 not in A


class TestElementArray:
    # 2**31 - 1 is the largest prime whose residue products fit in int64.
    @pytest.mark.parametrize("p, dtype", [(101, np.int64), (2**31 - 1, np.int64),
                                          (2**31 + 11, object), (2**61 - 1, object)])
    def test_dtype_switch(self, p, dtype):
        A = from_list(validate_prime(p), [0, 1, p - 1])
        elems = element_array(A)
        assert elems.dtype == dtype
        assert elems.tolist() == [0, 1, p - 1]
        assert [int(x) for x in elems * elems % p] == [0, 1, 1]


class TestBernoulli:
    def test_full_density_forces_full_field(self):
        A = gen_bernoulli(validate_prime(5), 1, seed=123)
        assert A.elements == (0, 1, 2, 3, 4)

    def test_determinism(self):
        m = validate_prime(1009)
        a = gen_bernoulli(m, "0.3", seed=42)
        b = gen_bernoulli(m, "0.3", seed=42)
        assert a.elements == b.elements
        assert a.provenance == "bernoulli:0.3:42"

    def test_different_seeds_differ(self):
        m = validate_prime(1009)
        assert gen_bernoulli(m, "0.3", 1).elements != gen_bernoulli(m, "0.3", 2).elements

    def test_invalid_density(self):
        m = validate_prime(11)
        for q in (0, -1, "1.5"):
            with pytest.raises(InvalidDensity):
                gen_bernoulli(m, q, seed=0)

    def test_chunked_generation_matches_one_shot(self, monkeypatch):
        # block boundaries in the draw stream must not change the set
        import gridlines.fieldsets as fs

        m = validate_prime(1009)
        whole = gen_bernoulli(m, "0.3", seed=7)
        monkeypatch.setattr(fs, "_BERNOULLI_CHUNK", 64)
        blocked = gen_bernoulli(m, "0.3", seed=7)
        assert whole.elements == blocked.elements

    def test_binomial_concentration_over_1000_seeds(self):
        # |size - p*q| <= 5 sqrt(p q (1-q)) for every seed in 0..999
        p, q = 1009, 0.3
        m = validate_prime(p)
        tol = 5 * math.sqrt(p * q * (1 - q))
        sizes = np.array([gen_bernoulli(m, "0.3", seed=s).n for s in range(1000)])
        assert np.all(np.abs(sizes - p * q) <= tol)
        assert abs(sizes.mean() - p * q) < 3.0


class TestUniform:
    def test_exact_size_and_determinism(self):
        m = validate_prime(101)
        a = gen_uniform(m, 20, seed=5)
        b = gen_uniform(m, 20, seed=5)
        assert a.n == 20 and a.elements == b.elements

    def test_complement_side(self):
        m = validate_prime(101)
        a = gen_uniform(m, 95, seed=5)
        assert a.n == 95

    def test_too_long(self):
        with pytest.raises(LengthExceedsField):
            gen_uniform(validate_prime(11), 12, seed=0)

    def test_spread(self):
        m = validate_prime(10007)
        a = gen_uniform(m, 300, seed=9)
        assert a.n == 300
        assert 0 <= a.elements[0] and a.elements[-1] < 10007


class TestStructuredGenerators:
    def test_ap_example(self):
        assert gen_ap(validate_prime(7), 1, 2, 3).elements == (1, 3, 5)

    def test_interval_example(self):
        assert gen_interval(validate_prime(5), 0, 2).elements == (0, 1)

    def test_interval_wraps(self):
        assert gen_interval(validate_prime(7), 5, 4).elements == (0, 1, 5, 6)

    def test_interval_too_long(self):
        with pytest.raises(LengthExceedsField):
            gen_interval(validate_prime(7), 0, 9)

    def test_ap_zero_step(self):
        with pytest.raises(DuplicateElement):
            gen_ap(validate_prime(7), 1, 0, 3)

    def test_gp(self):
        assert gen_gp(validate_prime(7), 1, 3, 3).elements == (1, 2, 3)  # 1,3,2

    def test_gp_bad_ratio(self):
        for ratio in (0, 1):
            with pytest.raises(InvalidParameter):
                gen_gp(validate_prime(7), 1, ratio, 3)

    def test_gp_short_cycle_collides(self):
        # ratio 6 has order 2 mod 7
        with pytest.raises(DuplicateElement):
            gen_gp(validate_prime(7), 1, 6, 3)

    def test_full_field(self):
        assert gen_full_field(validate_prime(5)).n == 5


class TestPaperInterval:
    @pytest.mark.parametrize("p,expected_top", [(101, 5), (10007, 50), (5, 1)])
    def test_sizes(self, p, expected_top):
        A = gen_paper_interval(validate_prime(p))
        assert A.elements == tuple(range(1, expected_top + 1))
        assert A.n == math.isqrt(p) // 2

    def test_degenerate(self):
        with pytest.raises(DegenerateSet):
            gen_paper_interval(validate_prime(3))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 2**32 - 1), st.integers(0, 10))
def test_generator_outputs_canonical(p, seed, n):
    m = validate_prime(p)
    n = min(n, p)
    A = gen_uniform(m, n, seed)
    assert all(0 <= e < p for e in A.elements)
    assert list(A.elements) == sorted(set(A.elements))
    assert A.n == n


class TestDescriptorGrammar:
    @pytest.mark.parametrize(
        "text,family,params,seed",
        [
            ("list:1,2,3", "list", (1, 2, 3), None),
            ("bernoulli:0.3:42", "bernoulli", None, 42),
            ("bernoulli:3/10", "bernoulli", None, None),
            ("uniform:300:42", "uniform", (300,), 42),
            ("interval:1:100", "interval", (1, 100), None),
            ("ap:1:2:50", "ap", (1, 2, 50), None),
            ("gp:2:3:20", "gp", (2, 3, 20), None),
            ("paper-interval", "paper-interval", (), None),
        ],
    )
    def test_parse(self, text, family, params, seed):
        spec = parse_set_descriptor(text)
        assert spec.family == family
        assert spec.seed == seed
        if params is not None:
            assert spec.params == params

    def test_realize_matches_direct_call(self):
        m = validate_prime(101)
        spec = parse_set_descriptor("uniform:10:77")
        assert spec.realize(m).elements == gen_uniform(m, 10, 77).elements

    def test_descriptor_seed_wins_over_run_seed(self):
        m = validate_prime(101)
        spec = parse_set_descriptor("uniform:10:77")
        assert spec.realize(m, seed=123).elements == gen_uniform(m, 10, 77).elements

    def test_random_family_without_any_seed(self):
        m = validate_prime(101)
        with pytest.raises(InvalidParameter):
            parse_set_descriptor("uniform:10").realize(m)

    @pytest.mark.parametrize(
        "text,token",
        [
            ("list:1,x,3", "x"),
            ("bernoulli:abc", "abc"),
            ("uniform:10:4:9", "uniform"),
            ("interval:5", "interval"),
            ("frobnicate:1", "frobnicate"),
            ("", "empty"),
            ("paper-interval:3", "3"),
        ],
    )
    def test_parse_errors_name_token(self, text, token):
        with pytest.raises(DescriptorError) as err:
            parse_set_descriptor(text)
        assert token in str(err.value)

    def test_provenance_round_trips(self):
        m = validate_prime(101)
        for text in ("list:1,2,3", "interval:1:10", "ap:1:2:10", "paper-interval",
                     "bernoulli:0.3:42", "uniform:10:42"):
            A = parse_set_descriptor(text).realize(m)
            B = parse_set_descriptor(A.provenance).realize(m)
            assert A.elements == B.elements
