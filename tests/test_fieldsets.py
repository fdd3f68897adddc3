import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlines import fieldsets
from gridlines.errors import (
    DegenerateSet,
    DescriptorError,
    DuplicateElement,
    EvenCharacteristic,
    InvalidDensity,
    InvalidParameter,
    LengthExceedsField,
    NotPrime,
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
    # 46337 is the largest prime whose residue products fit in int32
    # (46340**2 < 2**31 < 46341**2), 2**31 - 1 the largest for int64; the
    # product (p - 1)**2 would wrap round in a narrower dtype.
    @pytest.mark.parametrize("p, dtype", [(101, np.int32), (46337, np.int32),
                                          (46349, np.int64), (2**31 - 1, np.int64),
                                          (2**31 + 11, object), (2**61 - 1, object)])
    def test_dtype_switch(self, p, dtype):
        A = from_list(validate_prime(p), [0, 1, p - 1])
        elems = element_array(A)
        assert elems.dtype == dtype == fieldsets.element_dtype(p)
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


class TestFamilyTablePins:
    """One descriptor per family, pinned from the per-family parser it replaced."""

    @pytest.mark.parametrize(
        "text,spec,elements,provenance",
        [
            ("list:5,1,3", ("list", (5, 1, 3), None), (1, 3, 5), "list:1,3,5"),
            ("bernoulli:1/20:7", ("bernoulli", (Fraction(1, 20),), 7),
             (1, 44, 71, 84), "bernoulli:0.05:7"),
            ("uniform:6:9", ("uniform", (6,), 9),
             (19, 28, 37, 59, 61, 76), "uniform:6:9"),
            ("uniform:97:2", ("uniform", (97,), 2),
             tuple(x for x in range(101) if x not in (0, 22, 30, 43)), "uniform:97:2"),
            ("interval:99:4", ("interval", (99, 4), None), (0, 1, 99, 100), "interval:99:4"),
            ("ap:3:10:5", ("ap", (3, 10, 5), None), (3, 13, 23, 33, 43), "ap:3:10:5"),
            ("gp:2:3:6", ("gp", (2, 3, 6), None), (2, 6, 18, 54, 61, 82), "gp:2:3:6"),
            ("paper-interval", ("paper-interval", (), None), (1, 2, 3, 4, 5), "paper-interval"),
        ],
    )
    def test_spec_elements_and_provenance(self, text, spec, elements, provenance):
        parsed = parse_set_descriptor(text)
        assert (parsed.family, parsed.params, parsed.seed) == spec
        A = parsed.realize(validate_prime(101))
        assert A.elements == elements
        assert A.provenance == provenance

    @pytest.mark.parametrize(
        "text,usage",
        [
            ("bernoulli:1:2:3", "Q[:SEED]"),
            ("bernoulli:", "Q[:SEED]"),
            ("uniform:1:2:3", "N[:SEED]"),
            ("interval:1", "START:LEN"),
            ("ap:1:2", "START:STEP:LEN"),
            ("gp:1:2", "START:RATIO:LEN"),
            ("paper-interval:3", "no arguments"),
        ],
    )
    def test_arity_error_names_the_family_and_its_usage(self, text, usage):
        family = text.partition(":")[0]
        with pytest.raises(DescriptorError, match=f"^{family} takes ") as err:
            parse_set_descriptor(text)
        assert usage in str(err.value)

    @pytest.mark.parametrize("text", ["list", "list:"])
    def test_empty_list(self, text):
        with pytest.raises(DescriptorError, match="at least one element"):
            parse_set_descriptor(text)

    def test_full_field_is_the_interval_of_length_p(self):
        A = gen_full_field(validate_prime(5))
        assert A.elements == (0, 1, 2, 3, 4) and A.provenance == "interval:0:5"


class TestSetBudget:
    """realize sizes each family before it calls the generator."""

    MERSENNE_61 = 2**61 - 1

    @pytest.fixture
    def no_generators(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generator called past the set budget")

        for name in ("from_list", "gen_bernoulli", "gen_uniform", "gen_interval", "gen_ap",
                     "gen_gp", "gen_paper_interval"):
            monkeypatch.setattr(fieldsets, name, never)

    @pytest.fixture
    def budget_10(self, monkeypatch):
        monkeypatch.setattr(fieldsets, "SET_BUDGET", 10)

    @pytest.mark.parametrize("family", ["interval:0:{}", "ap:1:3:{}", "gp:1:3:{}"])
    def test_length_at_the_budget_builds_and_one_past_is_refused(self, budget_10, family):
        m = validate_prime(101)
        assert parse_set_descriptor(family.format(10)).realize(m).n == 10
        with pytest.raises(InvalidParameter, match="set budget of 10"):
            parse_set_descriptor(family.format(11)).realize(m)

    def test_uniform_visits_its_size_then_the_whole_field(self, budget_10):
        m = validate_prime(13)
        assert parse_set_descriptor("uniform:6:1").realize(m).n == 6
        # 2 * 7 > 13: the generator walks all 13 residues to keep a complement.
        with pytest.raises(InvalidParameter, match="visit 13 residues"):
            parse_set_descriptor("uniform:7:1").realize(m)

    def test_bernoulli_visits_every_residue(self, budget_10):
        assert parse_set_descriptor("bernoulli:1:0").realize(validate_prime(7)).n == 7
        with pytest.raises(InvalidParameter, match="visit 11 residues"):
            parse_set_descriptor("bernoulli:1/2:3").realize(validate_prime(11))

    def test_paper_interval_visits_its_elements(self, budget_10):
        assert parse_set_descriptor("paper-interval").realize(validate_prime(443)).n == 10
        with pytest.raises(InvalidParameter, match="visit 11 residues"):
            parse_set_descriptor("paper-interval").realize(validate_prime(487))

    def test_length_past_p_is_still_the_generators_error(self, budget_10):
        # The length is capped at p = 7 < 10, so the generator reports it.
        with pytest.raises(LengthExceedsField):
            parse_set_descriptor("interval:0:11").realize(validate_prime(7))
        with pytest.raises(LengthExceedsField):
            parse_set_descriptor("uniform:11:1").realize(validate_prime(7))

    def test_length_past_p_and_past_the_budget(self):
        with pytest.raises(LengthExceedsField):
            parse_set_descriptor(f"interval:0:{2**25}").realize(validate_prime(101))

    @pytest.mark.parametrize("text", [
        "bernoulli:1/2:1",
        "paper-interval",
        "uniform:2000000000000000000:1",
        f"interval:0:{2**40}",
        "interval:0:100000000000",
        f"ap:1:2:{2**30}",
        f"gp:2:3:{2**30}",
    ])
    def test_oversized_sets_are_refused_unbuilt(self, no_generators, text):
        with pytest.raises(InvalidParameter, match="over the set budget"):
            parse_set_descriptor(text).realize(validate_prime(self.MERSENNE_61))

    def test_sets_that_fit_still_build_at_mersenne_61(self):
        m = validate_prime(self.MERSENNE_61)
        assert parse_set_descriptor("uniform:30:7").realize(m).n == 30
        assert parse_set_descriptor("list:0,1").realize(m).elements == (0, 1)
        assert parse_set_descriptor("interval:5:3").realize(m).elements == (5, 6, 7)

    def test_every_family_row_names_a_generator(self):
        for row in fieldsets._FAMILIES.values():
            assert callable(getattr(fieldsets, row.generator))


class TestDescriptorSize:
    @pytest.mark.parametrize("text, size", [
        ("list:5,3,1", 3), ("uniform:7", 7), ("uniform:90:3", 90), ("interval:4:9", 9),
        ("ap:1:5:12", 12), ("gp:1:3:6", 6), ("paper-interval", 5), ("bernoulli:0.3", None),
        ("interval:0:500", 101),  # a length past p reads p; realize refuses it
    ])
    def test_size_is_the_realized_n(self, text, size):
        m = validate_prime(101)
        spec = parse_set_descriptor(text)
        assert spec.size(101) == size
        if size is not None and text != "interval:0:500":
            assert spec.realize(m, seed=1).n == size

    def test_size_refuses_what_realize_refuses(self, monkeypatch):
        monkeypatch.setattr(fieldsets, "SET_BUDGET", 10)
        for text in ("interval:0:11", "uniform:11", "bernoulli:1/2"):
            with pytest.raises(InvalidParameter, match="over the set budget"):
                parse_set_descriptor(text).size(101)
        with pytest.raises(DescriptorError, match="unknown family"):
            fieldsets.SetSpec("frobnicate", ()).size(101)
