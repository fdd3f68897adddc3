"""Tests of the benchmark's independent checker, including negative controls.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
from gridlines import (  # noqa: E402
    ExperimentConfig,
    IncidenceHistogram,
    from_list,
    gen_bernoulli,
    incidence_histogram,
    moments,
    run_support,
    run_sweep,
    validate_prime,
)
from gridlines.harness import _corrupt  # noqa: E402


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_full_field_has_every_line_full(p):
    hist = checks.line_histogram(p, range(p))
    assert hist == {p: p * p + p}
    n = p
    assert checks.power_sums(hist) == (
        (p + 1) * n * n, n ** 4 + p * n * n, (p * p + p) * p ** 3, (p * p + p) * p ** 4)


def test_two_point_set_at_five_by_hand():
    # The four grid points are in general position mod 5: each of the 6
    # pairs spans its own line, and each point lies on 6 - 3 = 3 more.
    hist = checks.line_histogram(5, [0, 1])
    assert hist == {1: 12, 2: 6}
    assert checks.power_sums(hist) == (24, 36, 60, 108)
    assert checks.moment_violations(5, 2, 24, 36, 60, 108) == []


@pytest.mark.parametrize("p,n", [(101, 10), (211, 40), (251, 200)])
def test_own_tally_matches_engine(p, n):
    elements = sorted(random.Random(p * n).sample(range(p), n))
    engine = incidence_histogram(from_list(validate_prime(p), elements))
    assert checks.line_histogram(p, elements) == engine.counts


def test_bernoulli_rebuild_matches_generator():
    from fractions import Fraction

    q = Fraction(3, 10)
    got = checks.bernoulli_elements(1009, q, 42)
    assert tuple(got) == gen_bernoulli(validate_prime(1009), q, 42).elements


def test_corrupted_histogram_fails_the_check():
    p, elements = 101, sorted(random.Random(7).sample(range(101), 12))
    hist = incidence_histogram(from_list(validate_prime(p), elements))
    assert checks.check_power_sums(p, elements, moments(hist), deep=True) == []
    bad = _corrupt(hist)
    assert checks.check_power_sums(p, elements, moments(bad), deep=False)
    assert checks.check_power_sums(p, elements, moments(bad), deep=True)


def test_line_moved_to_a_wrong_bin_fails_the_check():
    p, elements = 101, sorted(random.Random(8).sample(range(101), 12))
    hist = incidence_histogram(from_list(validate_prime(p), elements))
    counts = dict(hist.counts)
    counts[1] -= 1
    counts[2] = counts.get(2, 0) + 1
    moved = IncidenceHistogram(hist.p, hist.n, counts)
    assert checks.check_power_sums(p, elements, moments(moved), deep=True)


def test_census_row_with_wrong_support_fails_the_check():
    p, elements = 211, sorted(random.Random(9).sample(range(211), 8))
    cfg = ExperimentConfig(primes=(p,), set_descriptor="list:" + ",".join(map(str, elements)))
    summary = run_support(cfg)
    assert checks.check_census(p, elements, summary, deep=True) == []
    a1, a3, support, m2 = summary.pairs[0]
    wrong = dataclasses.replace(summary, pairs=[(a1, a3, support - 1, m2)] + summary.pairs[1:])
    assert checks.check_census(p, elements, wrong, deep=False)
    assert checks.check_census(p, elements, wrong, deep=True)


def test_sweep_check_recounts_the_first_row():
    from fractions import Fraction

    p, q = 211, Fraction(1, 10)
    cfg = ExperimentConfig(primes=(p,), set_descriptor="bernoulli:1/10", trials=2, seed=5)
    result = run_sweep(cfg)
    assert checks.check_sweep(p, q, 2, result, deep=True) == []
    row = result.rows[0]
    wrong = dataclasses.replace(result, rows=[dataclasses.replace(row, seed=row.seed + 1)]
                                + result.rows[1:])
    assert checks.check_sweep(p, q, 2, wrong, deep=True)
