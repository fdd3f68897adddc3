import concurrent.futures
import dataclasses
import json
from fractions import Fraction

import pytest

from gridlines import harness
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


class TestRunVerify:
    def test_small_case_runs_all_checks(self):
        rep = run_verify(cfg(primes=(31,), set_descriptor="uniform:8:7", seed=0))
        assert rep.strategy_equivalence is True
        assert rep.oracle_t == rep.moment_set.s3
        assert rep.oracle_q is None  # n = 8 above quadruple cap
        assert rep.algebraic_count is not None
        assert rep.overall_pass

    def test_quadruple_oracle_within_cap(self):
        rep = run_verify(cfg(primes=(31,), set_descriptor="uniform:5:7"))
        assert rep.oracle_q == rep.moment_set.s4

    def test_injected_fault_fails(self):
        rep = run_verify(cfg(inject_fault=True))
        assert not rep.overall_pass
        assert rep.strategy == "slope_direct"  # the corrupted copy keeps it

    def test_algebraic_delta_uses_the_uncorrupted_build(self):
        clean = run_verify(cfg())
        faulty = run_verify(cfg(inject_fault=True))
        assert faulty.moment_set.s3 != clean.moment_set.s3
        assert faulty.algebraic_delta == clean.algebraic_delta

    def test_timings_name_every_build_and_oracle(self):
        small = cfg(primes=(31,), set_descriptor="uniform:5:7")
        assert run_verify(small).timings_ms is None
        assert "timings_ms" not in run_verify(small).to_json_dict()
        timings = run_verify(dataclasses.replace(small, timings=True)).timings_ms
        assert set(timings) == {
            "histogram", "histogram:naive", "histogram:slope_fast",
            "t_brute", "q_brute", "algebraic"}
        assert all(type(ms) is float and ms >= 0 for ms in timings.values())
        # p**2 n over NAIVE_BUDGET and n over every oracle cap: the two
        # slope strategies only.
        large = cfg(primes=(2003,), set_descriptor="paper-interval", timings=True)
        assert set(run_verify(large).timings_ms) == {"histogram", "histogram:slope_fast"}

    def test_naive_skipped_above_budget(self):
        rep = run_verify(cfg(primes=(2003,), set_descriptor="paper-interval"))
        assert rep.strategy_equivalence is True  # slope strategies still compared

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
