"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each test prints a single `ACCEPTANCE <k>: PASS/FAIL` line (visible with
pytest -s) before asserting.  Corpora are seeded and deterministic.
"""

import os
import time
from fractions import Fraction

import pytest

from gridlines.bounds import (
    class_bound_check,
    expected_t,
    proposition_check,
    ratio_diagnostics,
)
from gridlines.errors import DuplicateElement
from gridlines.fieldsets import (
    _is_prime,
    from_list,
    gen_ap,
    gen_bernoulli,
    gen_full_field,
    gen_gp,
    gen_interval,
    gen_paper_interval,
    gen_uniform,
    validate_prime,
)
from gridlines.harness import ExperimentConfig, run_sweep
from gridlines.incidence import incidence_histogram, moments
from gridlines.oracle import algebraic_triple_count, q_brute, t_brute
from gridlines.rng import SplitMix64

PRIMES_5_499 = [p for p in range(5, 500) if _is_prime(p)]
SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]
FAMILIES = ("bernoulli", "uniform", "interval", "ap", "gp", "paper-interval", "list")


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")


def _make_case(index: int):
    """Deterministic (p, A) pair number `index`, cycling set families."""
    rng = SplitMix64(0xACCE97 + index)
    p = PRIMES_5_499[(index * 7) % len(PRIMES_5_499)]
    m = validate_prime(p)
    family = FAMILIES[index % len(FAMILIES)]
    if family == "bernoulli":
        q = ("0.1", "0.2", "0.3", "0.5")[rng.below(4)]
        return gen_bernoulli(m, q, seed=rng.next_u64())
    if family == "uniform":
        return gen_uniform(m, 1 + rng.below(min(p, 48)), seed=rng.next_u64())
    if family == "interval":
        if index % 49 == 0:
            return gen_full_field(m)  # keep a few full-field cases in play
        return gen_interval(m, rng.below(p), 1 + rng.below(min(p - 1, 48)))
    if family == "ap":
        return gen_ap(m, rng.below(p), 1 + rng.below(p - 1), 1 + rng.below(min(p, 40)))
    if family == "gp":
        length = 2 + rng.below(min(p - 2, 20))
        while True:
            ratio = 2 + rng.below(p - 2)
            try:
                return gen_gp(m, 1 + rng.below(p - 1), ratio, length)
            except DuplicateElement:
                continue  # ratio of small order; redraw deterministically
    if family == "paper-interval":
        return gen_paper_interval(m)
    picked = gen_uniform(m, 1 + rng.below(min(p, 12)), seed=rng.next_u64())
    return from_list(m, picked.elements)


@pytest.fixture(scope="module")
def corpus_families():
    """Criterion-1 corpus: 200 generated pairs spanning all families."""
    cases = [_make_case(i) for i in range(200)]
    built = []
    start = time.perf_counter()
    for A in cases:
        built.append((A, incidence_histogram(A)))
    elapsed = time.perf_counter() - start
    return built, elapsed


@pytest.fixture(scope="module")
def corpus_small():
    """Criterion-2 corpus: 50 random cases with p <= 31, 2 <= n <= 8."""
    cases = []
    for i in range(50):
        rng = SplitMix64(0x05A11 + i)
        p = SMALL_PRIMES[rng.below(len(SMALL_PRIMES))]
        n = 2 + rng.below(min(7, p - 1))  # n in [2, 8], n <= p
        A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
        cases.append((A, incidence_histogram(A)))
    return cases


@pytest.fixture(scope="module")
def criterion7_sweep():
    """Criterion-7 workload, single-threaded, shared with criterion 9."""
    cfg = ExperimentConfig(
        primes=(1009,),
        set_descriptor="bernoulli:0.3",
        strategy="slope_direct",
        trials=100,
        seed=20260809,
        threads=1,
    )
    start = time.perf_counter()
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


def test_criterion_01_moment_identities(corpus_families):
    built, elapsed = corpus_families
    families_seen = set()
    bad = []
    for A, h in built:
        families_seen.add(A.provenance.split(":")[0])
        ms = moments(h)
        if ms.s1 != (A.p + 1) * A.n**2 or ms.s2 != A.n**4 + A.p * A.n**2:
            bad.append((A.p, A.provenance))
    ok = not bad and len(built) == 200 and elapsed < 30.0 and len(families_seen) == 7
    _report(1, ok, f"200 pairs, families={sorted(families_seen)}, "
                   f"identity failures={len(bad)}, elapsed={elapsed:.1f}s (< 30s)")
    assert not bad
    assert len(families_seen) == 7
    assert elapsed < 30.0


def test_criterion_02_oracle_equivalence(corpus_small):
    start = time.perf_counter()
    t_checked = q_checked = 0
    bad = []
    for A, h in corpus_small:
        ms = moments(h)
        if t_brute(A) != ms.s3:
            bad.append(("t", A.p, A.elements))
        t_checked += 1
        if A.n <= 6:
            if q_brute(A) != ms.s4:
                bad.append(("q", A.p, A.elements))
            q_checked += 1
    elapsed = time.perf_counter() - start
    ok = not bad and t_checked == 50 and q_checked >= 20 and elapsed < 60.0
    _report(2, ok, f"50 triple checks, {q_checked} quadruple checks, "
                   f"mismatches={len(bad)}, elapsed={elapsed:.1f}s (< 60s)")
    assert not bad
    assert q_checked >= 20
    assert elapsed < 60.0


def test_criterion_03_hand_and_full_field_instances():
    A = from_list(validate_prime(5), [0, 1])
    h = incidence_histogram(A)
    ms = moments(h)
    hand_ok = h.counts == {2: 6, 1: 12} and ms.s3 == 60 and ms.s4 == 108
    full_ok = True
    for p in (7, 31):
        F = gen_full_field(validate_prime(p))
        hf = incidence_histogram(F)
        msf = moments(hf)
        diag = ratio_diagnostics(hf, msf)
        full_ok &= msf.s3 == (p * p + p) * p**3
        full_ok &= diag.t_ratio == Fraction(1)
    _report(3, hand_ok and full_ok,
            f"hand histogram {h.counts}, T={ms.s3}, Q={ms.s4}; "
            f"full-field T exact and t_ratio == 1")
    assert hand_ok and full_ok


@pytest.fixture(scope="module")
def bernoulli_sweep_501():
    """Criterion-4/5 sweep: 501 Bernoulli sets across three primes."""
    cfg = ExperimentConfig(
        primes=(211, 401, 1009),
        set_descriptor="bernoulli:0.3",
        trials=167,
        seed=0xB0C4,
        threads=min(4, os.cpu_count() or 1),
    )
    return run_sweep(cfg)


def test_criterion_04_proposition_constant_one(
    corpus_families, corpus_small, bernoulli_sweep_501
):
    failures = 0
    for A, h in corpus_families[0] + corpus_small:
        if not proposition_check(h).passed:
            failures += 1
    sweep = bernoulli_sweep_501
    sweep_fail = sum(0 if r.proposition_pass else 1 for r in sweep.rows)
    # boundary case: the full field attains |T - expected| = p**4 = p * n**3
    F = incidence_histogram(gen_full_field(validate_prime(5)))
    chk = proposition_check(F)
    equality = chk.slack == 5**4 == chk.bound and chk.passed
    ok = failures == 0 and sweep_fail == 0 and len(sweep.rows) == 501 and equality
    _report(4, ok, f"corpus failures={failures}, sweep rows={len(sweep.rows)}, "
                   f"sweep failures={sweep_fail}, full-field equality={equality}")
    assert ok


def test_criterion_05_class_bound_constant_four(
    corpus_families, corpus_small, bernoulli_sweep_501
):
    failures = 0
    worst = Fraction(0)
    for A, h in corpus_families[0] + corpus_small:
        chk = class_bound_check(h)
        worst = max(worst, chk.max_ratio)
        if not chk.passed:
            failures += 1
    sweep_fail = sum(0 if r.class_bound_pass else 1 for r in bernoulli_sweep_501.rows)
    ok = failures == 0 and sweep_fail == 0
    _report(5, ok, f"corpus failures={failures}, sweep failures={sweep_fail}, "
                   f"worst ratio={float(worst):.4f} (<= 1)")
    assert ok


def test_criterion_06_strategy_equivalence():
    primes = [p for p in PRIMES_5_499 if p <= 101]
    mismatches = 0
    for i in range(30):
        rng = SplitMix64(0x57A7 + i)
        p = primes[rng.below(len(primes))]
        n = 1 + rng.below(min(p, 16))
        A = gen_uniform(validate_prime(p), n, seed=rng.next_u64())
        naive = incidence_histogram(A, "naive")
        direct = incidence_histogram(A, "slope_direct")
        fast = incidence_histogram(A, "slope_fast")
        if not (naive.counts == direct.counts == fast.counts):
            mismatches += 1
    _report(6, mismatches == 0, f"30 cases with p <= 101, mismatches={mismatches}")
    assert mismatches == 0


def test_criterion_07_random_model_mean(criterion7_sweep):
    _, result, elapsed = criterion7_sweep
    mean = result.aggregate.mean_t_over_expected
    ok = (
        len(result.rows) == 100
        and Fraction(4, 5) <= mean <= Fraction(6, 5)
        and elapsed < 600.0
    )
    _report(7, ok, f"mean T/expected = {float(mean):.4f} in [0.8, 1.2], "
                   f"100 trials, elapsed={elapsed:.0f}s (< 600s)")
    assert ok


def test_criterion_08_structured_set_separation():
    p = 40009
    m = validate_prime(p)
    paper = gen_paper_interval(m)
    assert paper.n == 100
    h = incidence_histogram(paper)
    paper_ratio = Fraction(moments(h).s3) / expected_t(p, paper.n)
    uniform_ratios = []
    for i in range(20):
        U = gen_uniform(m, 100, seed=0xF00D + i)
        hu = incidence_histogram(U)
        uniform_ratios.append(Fraction(moments(hu).s3) / expected_t(p, 100))
    mean_uniform = sum(uniform_ratios, Fraction(0)) / len(uniform_ratios)
    ok = paper_ratio > mean_uniform
    _report(8, ok, f"interval ratio {float(paper_ratio):.3f} > "
                   f"uniform mean {float(mean_uniform):.3f} (20 trials)")
    assert ok


def test_criterion_09a_histogram_performance():
    A = gen_uniform(validate_prime(2003), 300, seed=1)
    start = time.perf_counter()
    h = incidence_histogram(A, "slope_direct")
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and moments(h).s1 == 2004 * 300**2
    _report(9, ok, f"p=2003 n=300 slope_direct: {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_09b_sweep_parallel_speedup(criterion7_sweep):
    cfg1, result1, elapsed1 = criterion7_sweep
    cfg4 = ExperimentConfig(
        primes=cfg1.primes,
        set_descriptor=cfg1.set_descriptor,
        strategy=cfg1.strategy,
        trials=cfg1.trials,
        seed=cfg1.seed,
        threads=4,
    )
    start = time.perf_counter()
    result4 = run_sweep(cfg4)
    elapsed4 = time.perf_counter() - start
    same = [(r.prime, r.trial, r.t) for r in result1.rows] == [
        (r.prime, r.trial, r.t) for r in result4.rows]
    speedup = elapsed1 / elapsed4
    ok = same and speedup >= 2.0
    _report(9, ok, f"4-thread speedup {speedup:.2f}x on {os.cpu_count()} cores "
                   f"({elapsed1:.0f}s -> {elapsed4:.0f}s), rows identical={same}")
    assert same
    assert speedup >= 2.0, (
        f"measured speedup {speedup:.2f}x with {os.cpu_count()} CPU cores available"
    )


def test_criterion_10_algebraic_triple_identity(corpus_small):
    mismatches = []
    for A, h in corpus_small:
        n, p = A.n, A.p
        expected = algebraic_triple_count(A) + 4 * n**4 - 4 * n**3 + (p + 1) * n**2
        if moments(h).s3 != expected:
            mismatches.append((p, A.elements))
    matched = len(corpus_small) - len(mismatches)
    ok = not mismatches and matched == 50
    _report(10, ok, f"s3 = C2 + 4n^4 - 4n^3 + (p+1)n^2 held on {matched} of "
                    f"{len(corpus_small)} sets, mismatches={mismatches}")
    assert ok
