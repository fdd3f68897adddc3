import concurrent.futures
import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from gridlines import fieldsets, harness, incidence, products
from gridlines.errors import GridlinesError, InvalidParameter
from gridlines.harness import (
    ExperimentConfig,
    SWEEP_COLUMNS,
    _corrupt,
    report_row,
    run_moments,
    run_support,
    run_sweep,
    run_verify,
    support_to_csv,
    sweep_to_csv,
    sweep_to_json_dict,
)


def cfg(**kw):
    base = dict(primes=(5,), set_descriptor="list:0,1")
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunMoments:
    def test_hand_case(self):
        rep = run_moments(cfg())
        assert rep.moment_set.s3 == 60 and rep.moment_set.s4 == 108
        assert rep.overall_pass

    def test_full_field(self):
        rep = run_moments(cfg(set_descriptor="list:0,1,2,3,4"))
        assert rep.moment_set.s3 == 30 * 125  # 3750

    def test_invalid_descriptor_for_prime(self):
        with pytest.raises(GridlinesError):
            run_moments(cfg(primes=(7,), set_descriptor="interval:0:9"))

    def test_single_prime_required(self):
        with pytest.raises(InvalidParameter):
            run_moments(cfg(primes=(5, 7)))

    def test_timings_flag(self):
        assert run_moments(cfg()).timings_ms is None
        assert "histogram" in run_moments(cfg(timings=True)).timings_ms

    def test_a_canonical_descriptor_is_kept_not_copied(self):
        config = cfg(primes=(101,), set_descriptor="list:" + ",".join(map(str, range(3, 90, 7))))
        assert run_moments(config).descriptor is config.set_descriptor
        assert run_verify(config).descriptor is config.set_descriptor

    def test_a_list_is_still_canonicalized(self):
        assert run_moments(cfg(set_descriptor="list:4,2,0")).descriptor == "list:0,2,4"
        report = run_moments(cfg(primes=(7,), set_descriptor="list:5,3,1"))
        assert report.descriptor == "list:1,3,5"


def _shift_s3(hist):
    # Counts at k = 1..4 shifted by (-1, +3, -3, +1): the third finite
    # difference keeps the line count, s1 and s2 and moves s3 by 6.
    counts = dict(hist.counts)
    for k, step in zip((1, 2, 3, 4), (-1, 3, -3, 1)):
        counts[k] = counts.get(k, 0) + step
    return dataclasses.replace(hist, counts=counts)


class TestRunVerify:
    def test_small_case_runs_all_checks(self):
        rep = run_verify(cfg(primes=(31,), set_descriptor="uniform:8:7", seed=0))
        assert rep.strategy_equivalence is True
        assert rep.oracle_t == rep.moment_set.s3
        assert rep.oracle_q is None  # n = 8 above quadruple cap
        s3 = {c.name: c for c in rep.identities}["s3"]
        assert s3.observed == rep.moment_set.s3 and s3.passed
        assert rep.overall_pass

    def test_quadruple_oracle_within_cap(self):
        rep = run_verify(cfg(primes=(31,), set_descriptor="uniform:5:7"))
        assert rep.oracle_q == rep.moment_set.s4

    def test_injected_fault_fails(self, monkeypatch):
        build = harness.incidence_histogram
        builds = []

        def first_build_corrupted(A, strategy=None):
            builds.append(strategy)
            hist = build(A, strategy)
            return _corrupt(hist) if len(builds) == 1 else hist

        monkeypatch.setattr(harness, "incidence_histogram", first_build_corrupted)
        rep = run_verify(cfg())
        assert not rep.overall_pass
        assert rep.strategy == "slope_direct"  # the corrupted copy keeps it

    @pytest.mark.parametrize("p, descriptor", [
        (101, "uniform:12:3"), (211, "uniform:16:5"), (101, "uniform:9:1")])
    def test_s3_shift_fails_through_the_identity(self, monkeypatch, p, descriptor):
        build = harness.incidence_histogram
        monkeypatch.setattr(harness, "incidence_histogram",
                            lambda A, strategy=None: _shift_s3(build(A, strategy)))
        rep = run_verify(cfg(primes=(p,), set_descriptor=descriptor))
        checks = {c.name: c.passed for c in rep.identities}
        # n > 8: no brute-force oracle runs, and every build is shifted
        # alike, so only the s3 identity can see the fault.
        assert rep.oracle_t is None and rep.strategy_equivalence is True
        assert checks == {"s1": True, "s2": True, "s3": False}
        assert not rep.overall_pass

    @pytest.mark.parametrize("n, names", [(20, ["s1", "s2", "s3"]), (21, ["s1", "s2"])])
    def test_s3_identity_runs_up_to_the_algebraic_cap(self, n, names):
        rep = run_verify(cfg(primes=(101,), set_descriptor=f"uniform:{n}:2"))
        assert [c.name for c in rep.identities] == names
        assert rep.overall_pass

    def test_timings_name_every_build_and_oracle(self):
        small = cfg(primes=(31,), set_descriptor="uniform:5:7")
        assert run_verify(small).timings_ms is None
        assert "timings_ms" not in run_verify(small).to_json_dict()
        timings = run_verify(dataclasses.replace(small, timings=True)).timings_ms
        # A profile build, cross-checked by the other three kernels.
        assert set(timings) == {
            "histogram", "histogram:naive", "histogram:ratio", "histogram:ntt",
            "t_brute", "q_brute", "algebraic"}
        assert all(type(ms) is float and ms >= 0 for ms in timings.values())
        # n = 50 is over every oracle cap, and only the profile kernel, the
        # cheapest other one, fits the budget (naive and ntt take seconds).
        large = cfg(primes=(10007,), set_descriptor="paper-interval", timings=True)
        assert set(run_verify(large).timings_ms) == {"histogram", "histogram:profile"}

    # The verify calls of the census-verify benchmark run every kernel.
    @pytest.mark.parametrize("p, n", [(101, 6), (211, 6), (211, 8), (101, 12)])
    def test_small_verify_runs_all_four_kernels(self, p, n):
        rep = run_verify(cfg(primes=(p,), set_descriptor=f"uniform:{n}:1", timings=True))
        assert rep.overall_pass and rep.strategy == "slope_direct"
        assert {name for name in rep.timings_ms if name.startswith("histogram:")} == {
            "histogram:naive", "histogram:ratio", "histogram:ntt"}

    def test_naive_skipped_above_budget(self, monkeypatch):
        p, n = 2003, 22  # paper-interval
        monkeypatch.setattr(harness, "CROSS_CHECK_BUDGET_PS",
                            incidence.estimated_ps("naive", p, n) - 1)
        rep = run_verify(cfg(primes=(p,), set_descriptor="paper-interval", timings=True))
        assert "histogram:naive" not in rep.timings_ms
        assert "histogram:profile" in rep.timings_ms
        assert rep.strategy_equivalence is True

    @pytest.mark.parametrize("p, descriptor, strategy", [
        (31, "uniform:5:7", None), (101, "uniform:61:2", None), (101, "uniform:61:2", "naive"),
        (101, "uniform:61:2", "slope_fast"), (1009, "interval:1:20", "slope_direct"),
        (10007, "paper-interval", None), (31, "uniform:0:1", None),
    ])
    def test_cross_checks_skip_the_builder_and_run_at_least_one(
            self, monkeypatch, p, descriptor, strategy):
        build = harness.incidence_histogram
        kernels = []

        def recording(A, strategy=None):
            hist = build(A, strategy)
            kernels.append(hist.kernel)
            return hist

        monkeypatch.setattr(harness, "incidence_histogram", recording)
        rep = run_verify(cfg(primes=(p,), set_descriptor=descriptor, strategy=strategy))
        builder, checks = kernels[0], kernels[1:]
        assert checks and builder not in checks and len(set(checks)) == len(checks)
        n = rep.n
        cheapest = min((k for k in incidence.KERNELS if k != builder),
                       key=lambda k: incidence.estimated_ps(k, p, n))
        assert cheapest in checks
        for kernel in set(incidence.KERNELS) - {builder, cheapest}:
            fits = incidence.estimated_ps(kernel, p, n) <= harness.CROSS_CHECK_BUDGET_PS
            assert (kernel in checks) == fits, kernel
        assert rep.strategy_equivalence is True

    def test_the_cheapest_check_runs_even_over_the_budget(self, monkeypatch):
        monkeypatch.setattr(harness, "CROSS_CHECK_BUDGET_PS", 0)
        rep = run_verify(cfg(primes=(1009,), set_descriptor="interval:1:20", timings=True))
        assert set(rep.timings_ms) == {"histogram", "histogram:profile", "algebraic"}
        assert rep.strategy_equivalence is True

    @pytest.mark.parametrize("p, descriptor", [(1009, "interval:1:20"), (10007, "ap:3:5:30")])
    def test_split_ratio_runs_fail_verify(self, monkeypatch, p, descriptor):
        # Mark every second repeated product as a run start: the ratio
        # kernel miscounts the lines through 3 or more points, and only
        # it reads the runs, so the cross-check builds disagree with it.
        runs = products._product_runs

        def split(*args):
            for start, stop, run_start in runs(*args):
                repeats = np.flatnonzero(~run_start)
                run_start.flat[repeats[1::2]] = True
                yield start, stop, run_start

        config = cfg(primes=(p,), set_descriptor=descriptor, timings=True)
        assert run_verify(config).overall_pass
        monkeypatch.setattr(products, "_product_runs", split)
        rep = run_verify(config)
        assert rep.strategy == "slope_direct" and rep.strategy_equivalence is False
        assert not rep.overall_pass
        if p == 10007:  # the ntt is over the budget here: profile alone catches it
            assert set(rep.timings_ms) == {"histogram", "histogram:profile"}

    def test_empty_set_verifies_cleanly(self):
        rep = run_verify(cfg(primes=(31,), set_descriptor="uniform:0:1"))
        assert rep.n == 0
        assert rep.moment_set.s1 == 0
        assert rep.oracle_t == 0 and rep.oracle_q == 0
        assert rep.overall_pass
        # report serialization tolerates the absent ratios
        data = rep.to_json_dict()
        assert data["asymptotic_ratios"]["t_ratio"] is None


class TestSweep:
    def test_row_count_and_order(self):
        result = run_sweep(cfg(primes=(7, 5), set_descriptor="uniform:3",
                               trials=3, seed=9))
        assert len(result.rows) == 6
        assert [(r.prime, r.trial) for r in result.rows] == [
            (5, 0), (5, 1), (5, 2), (7, 0), (7, 1), (7, 2)]
        assert result.all_passed

    def test_rows_deterministic_and_csv_byte_identical(self):
        a = run_sweep(cfg(primes=(31,), set_descriptor="bernoulli:0.4",
                          trials=4, seed=123))
        b = run_sweep(cfg(primes=(31,), set_descriptor="bernoulli:0.4",
                          trials=4, seed=123))
        assert sweep_to_csv(a) == sweep_to_csv(b)
        assert json.dumps(sweep_to_json_dict(a)) == json.dumps(sweep_to_json_dict(b))

    def test_adding_primes_keeps_existing_rows(self):
        small = run_sweep(cfg(primes=(31,), set_descriptor="uniform:4",
                              trials=3, seed=5))
        grown = run_sweep(cfg(primes=(31, 101), set_descriptor="uniform:4",
                              trials=3, seed=5))
        assert [r.seed for r in small.rows] == [
            r.seed for r in grown.rows if r.prime == 31]
        assert [r.t for r in small.rows] == [
            r.t for r in grown.rows if r.prime == 31]

    def test_threads_match_sequential(self):
        sequential = run_sweep(cfg(primes=(31,), set_descriptor="uniform:4",
                                   trials=4, seed=11, threads=1))
        parallel = run_sweep(cfg(primes=(31,), set_descriptor="uniform:4",
                                 trials=4, seed=11, threads=2))
        assert sweep_to_csv(sequential) == sweep_to_csv(parallel)

    @pytest.mark.parametrize("threads, cpus, workers", [
        (100_000, 2, 2),   # capped by the CPUs
        (100_000, 64, 6),  # capped by the tasks
        (4, 64, 4),        # as asked
        (3, 1, None),      # one worker: serial, no pool
    ])
    def test_pool_bounded_by_tasks_and_cpus(self, monkeypatch, threads, cpus, workers):
        sizes = []

        class InlinePool:
            """Records max_workers and runs each task at submit; forks nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        base = cfg(primes=(5, 7), set_descriptor="uniform:3", trials=3, seed=4)
        pooled = run_sweep(dataclasses.replace(base, threads=threads))
        assert sizes == ([] if workers is None else [workers])
        assert sweep_to_csv(pooled) == sweep_to_csv(run_sweep(base))

    def test_descriptor_seed_overridden_per_trial(self):
        result = run_sweep(cfg(primes=(31,), set_descriptor="uniform:4:99",
                               trials=3, seed=1))
        assert len({r.seed for r in result.rows}) == 3

    def test_failure_aborts_with_context(self):
        with pytest.raises(GridlinesError) as err:
            run_sweep(cfg(primes=(5, 7), set_descriptor="interval:0:6", trials=1))
        assert "prime=5" in str(err.value)

    def test_identity_violation_aborts_with_context(self, monkeypatch):
        build = harness.incidence_histogram
        monkeypatch.setattr(harness, "incidence_histogram",
                            lambda A, strategy=None: _corrupt(build(A, strategy)))
        with pytest.raises(GridlinesError) as err:
            run_sweep(cfg(primes=(7,), trials=2))
        message = str(err.value)
        assert "moment identity violated" in message
        assert "prime=7" in message and "trial=0" in message

    def test_row_matches_report_row_of_moments(self):
        listed = "list:0,2,3,7,11"
        row = run_sweep(cfg(primes=(13,), set_descriptor=listed)).rows[0]
        expected = report_row(run_moments(cfg(primes=(13,), set_descriptor=listed)), 0, 0.0)
        # the sweep seeds each trial; a listed set does not use the seed
        for column in SWEEP_COLUMNS:
            if column != "seed":
                assert getattr(row, column) == getattr(expected, column), column

    def test_csv_shape_and_footer(self):
        result = run_sweep(cfg(primes=(5,), set_descriptor="list:0,1", trials=2))
        text = sweep_to_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 2 + 1  # header, rows, aggregate footer
        footer = lines[-1].split(",")
        assert footer[0] == "aggregate" and footer[1] == "2"
        # t / expected_t for the hand case: 60 / (224/5) = 75/56
        assert footer[10].startswith("1.3392857142")
        assert footer[11] == "0"
        data = lines[1].split(",")
        assert data[0] == "5" and data[4] == "24" and data[6] == "60"

    def test_aggregate_math(self):
        result = run_sweep(cfg(primes=(5,), set_descriptor="list:0,1", trials=3))
        agg = result.aggregate
        assert agg.rows_used == 3
        assert agg.mean_t_over_expected == Fraction(60) / Fraction(224, 5)
        assert agg.stddev_t_over_expected == 0

    def test_timings_column_opt_in(self):
        with_t = sweep_to_csv(run_sweep(cfg(set_descriptor="list:0,1", timings=True)))
        without = sweep_to_csv(run_sweep(cfg(set_descriptor="list:0,1")))
        assert "wall_time_ms" in with_t.split("\n")[0]
        assert "wall_time_ms" not in without.split("\n")[0]


class TestRunSupport:
    def test_census_csv(self):
        summary = run_support(cfg())
        text = support_to_csv(summary)
        lines = text.strip().split("\n")
        assert lines[0] == "a1,a3,support_size,second_moment"
        assert len(lines) == 1 + 4  # all base pairs of a 2-element set

    def test_sampled(self):
        summary = run_support(
            cfg(primes=(101,), set_descriptor="interval:1:10", seed=4), sample=5)
        assert len(summary.pairs) == 5


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(InvalidParameter):
            cfg(trials=0)

    def test_bad_threads(self):
        with pytest.raises(InvalidParameter):
            cfg(threads=0)

    def test_no_primes(self):
        with pytest.raises(InvalidParameter):
            ExperimentConfig(primes=(), set_descriptor="list:1")

    def test_repeated_primes(self):
        # Trial seeds depend on (base, prime, trial) alone, so a repeated
        # prime would only repeat its rows.
        with pytest.raises(InvalidParameter, match="distinct"):
            ExperimentConfig(primes=(101, 211, 101), set_descriptor="bernoulli:0.3")


class TestEnginePrimeGuard:
    BIG = 2**61 - 1  # prime, far past incidence.ENGINE_MAX_P

    @pytest.fixture
    def no_sets(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("set built past ENGINE_MAX_P")

        for name in ("from_list", "gen_bernoulli", "gen_uniform", "gen_interval",
                     "gen_ap", "gen_gp", "gen_paper_interval"):
            monkeypatch.setattr(fieldsets, name, never)

    @pytest.mark.parametrize("run", [run_moments, run_verify, run_sweep])
    def test_refused_before_the_set_is_built(self, no_sets, run):
        with pytest.raises(InvalidParameter, match="p <= "):
            run(cfg(primes=(self.BIG,), set_descriptor="bernoulli:1/2", seed=1))

    @pytest.mark.parametrize("run", [run_moments, run_verify, run_sweep])
    def test_a_set_within_the_set_budget_is_refused_too(self, no_sets, run):
        # uniform:3 fits fieldsets.SET_BUDGET, so only the prime guard stops it.
        with pytest.raises(InvalidParameter, match="p <= "):
            run(cfg(primes=(self.BIG,), set_descriptor="uniform:3", seed=1))

    def test_every_sweep_prime_is_checked_first(self, no_sets):
        with pytest.raises(InvalidParameter, match="p <= "):
            run_sweep(cfg(primes=(101, self.BIG), set_descriptor="bernoulli:1/2"))

    def test_support_is_not_bound_by_it(self):
        summary = run_support(cfg(primes=(self.BIG,), set_descriptor="list:0,1"))
        assert summary.p == self.BIG and len(summary.pairs) == 4
