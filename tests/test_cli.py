import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridlines
from gridlines import harness
from gridlines.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, build_parser, main

DATA = Path(__file__).parent / "data"


# moments and verify print the same one-row sweep CSV for list:0,1 at p = 5.
HAND_CASE_CSV = (
    "prime,trial,seed,n,s1,s2,t,q,expected_t,expected_q,t_ratio,q_ratio,"
    "proposition_pass,class_bound_pass\n"
    "5,0,0,2,24,36,60,108,44.8,74.24,1.57487667356,2.55681818182,1,1\n"
    "aggregate,1,,,,,,,,,1.33928571429,0,,\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoments:
    def test_hand_case_json(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--prime", "5", "--set", "list:0,1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["moments"]["t"] == 60 and data["moments"]["q"] == 108

    def test_full_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--prime", "5", "--set", "list:0,1,2,3,4")
        assert code == EXIT_OK
        assert json.loads(out)["moments"]["t"] == 3750

    def test_invalid_set_for_prime_exits_usage(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--prime", "7", "--set", "interval:0:9")
        assert code == EXIT_USAGE
        assert "exceeds field size" in err

    def test_bad_descriptor_names_token(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--prime", "7", "--set", "list:1,q")
        assert code == EXIT_USAGE
        assert "'q'" in err

    def test_naive_past_engine_max_exits_usage(self, capsys):
        # Uncapped, naive would make about p**2 n = 2**63 lookups.
        code, out, err = run_cli(
            capsys, "moments", "--prime", str(2**31 + 11), "--set", "list:0,1",
            "--strategy", "naive")
        assert code == EXIT_USAGE and out == ""
        assert str(2**24) in err

    def test_huge_prime_exits_usage_before_building_the_set(self, capsys, monkeypatch):
        # Unguarded, the Bernoulli generator would walk 2**61 residues.
        def never(*args):
            raise AssertionError("set built past ENGINE_MAX_P")

        monkeypatch.setattr(gridlines.fieldsets, "gen_bernoulli", never)
        code, out, err = run_cli(
            capsys, "moments", "--prime", str(2**61 - 1), "--set", "bernoulli:1/2")
        assert code == EXIT_USAGE and out == ""
        assert f"p <= {2**24}" in err  # the prime guard's refusal, not the set budget's

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--prime", "5", "--set", "list:0,1",
            "--format", "csv")
        assert code == EXIT_OK
        assert out == HAND_CASE_CSV

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "moments", "--prime", "5", "--set", "list:0,1",
            "--out", str(path))
        assert code == EXIT_OK and out == ""
        assert json.loads(path.read_text())["moments"]["t"] == 60

    @pytest.mark.parametrize("n", [16, 20])
    def test_full_report(self, capsys, n):
        # At n = 16 the class bound also checks (16, 32], a class beyond
        # the dyadic rows; at n = 20 both cover the classes through it.
        code, out, _ = run_cli(capsys, "moments", "--prime", "101", "--set", f"uniform:{n}:3")
        assert code == EXIT_OK
        assert out == (DATA / f"moments_p101_uniform_{n}_3.json").read_text()


# Goldens for the engine paths beyond the dense slope_direct branch above.
@pytest.mark.parametrize("argv, golden", [
    # ntt main build.
    (["moments", "-p", "101", "--set", "uniform:61:2", "--strategy", "slope_fast"],
     "moments_p101_uniform_61_2.json"),
    # Ratio main build, the naive, profile and ntt cross-checks, both
    # brute-force oracles and the s3 identity.
    (["verify", "-p", "101", "--set", "uniform:6:4"], "verify_p101_uniform_6_4.json"),
    (["sweep", "--primes", "101,211", "--set", "bernoulli:0.3", "--trials", "3",
      "--seed", "5", "--format", "csv"], "sweep_p101_211_bernoulli_0.3_seed5.csv"),
], ids=["moments-fast", "verify-sort", "sweep-csv"])
def test_golden_output(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out == (DATA / golden).read_text()


def test_default_picks_the_profile_kernel_for_the_dense_golden(capsys):
    # At (101, 61) the profile kernel is estimated at 0.44 ms against
    # 2.2 ms for the ntt, so the default now reports slope_direct, with
    # the counts of the slope_fast golden.
    code, out, _ = run_cli(capsys, "moments", "-p", "101", "--set", "uniform:61:2")
    assert code == EXIT_OK
    default = json.loads(out)
    fast = json.loads((DATA / "moments_p101_uniform_61_2.json").read_text())
    assert default["config"]["strategy"] == "slope_direct"
    assert fast["config"]["strategy"] == "slope_fast"
    default["config"]["strategy"] = "slope_fast"
    assert default == fast


class TestVerify:
    def test_hand_case_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--prime", "5", "--set", "list:0,1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["overall_pass"] and data["oracle"]["match"]

    def test_uniform_case_with_oracles(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--prime", "31", "--set", "uniform:8:7")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["oracle"]["t_brute"] == data["moments"]["t"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--prime", "5", "--set", "list:0,1",
            "--format", "csv")
        assert code == EXIT_OK
        assert out == HAND_CASE_CSV

    def test_injected_fault_negative_control(self, capsys, monkeypatch):
        build = harness.incidence_histogram
        builds = []

        def first_build_corrupted(A, strategy=None):
            builds.append(strategy)
            hist = build(A, strategy)
            return harness._corrupt(hist) if len(builds) == 1 else hist

        monkeypatch.setattr(harness, "incidence_histogram", first_build_corrupted)
        code, out, _ = run_cli(capsys, "verify", "--prime", "5", "--set", "list:0,1")
        assert code == EXIT_CHECK_FAILED
        data = json.loads(out)
        assert data["overall_pass"] is False
        assert data["config"]["strategy"] == "slope_direct"  # the corrupted copy keeps it

    @pytest.mark.parametrize("option", [
        ["--t-cap", "30"], ["--q-cap", "10"], ["--alg-cap", "1000"], ["--inject-fault"]])
    def test_removed_options_are_usage_errors(self, option):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--prime", "5", "--set", "list:0,1", *option])
        assert exc.value.code == EXIT_USAGE


class TestSweep:
    def test_csv_deterministic(self, capsys, tmp_path):
        argv = ["sweep", "--primes", "5,7", "--set", "uniform:2", "--trials", "2",
                "--seed", "3", "--format", "csv"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert len(out1.strip().split("\n")) == 1 + 4 + 1

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--primes", "5", "--set", "list:0,1",
            "--trials", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["rows"][0]["t"] == 60 and data["all_passed"]

    def test_bad_primes_list(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--primes", "5,x", "--set", "list:0,1")
        assert code == EXIT_USAGE and "--primes" in err

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--primes", "9", "--set", "list:0,1")
        assert code == EXIT_USAGE and "not prime" in err


# Census rows (a1, a3, support_size, second_moment) of list:1,2,4 at
# p = 11, and of four sampled base pairs of interval:1:10 at p = 101.
LISTED_ROWS = [
    (1, 1, 4, 31), (1, 2, 5, 29), (1, 4, 5, 29),
    (2, 1, 5, 29), (2, 2, 4, 31), (2, 4, 5, 29),
    (4, 1, 5, 29), (4, 2, 5, 29), (4, 4, 4, 31),
]
SAMPLED_ROWS = [(3, 10, 48, 530), (5, 8, 42, 582), (6, 4, 33, 628), (7, 2, 45, 550)]
CENSUS_SUPPORT = ["support", "--prime", "11", "--set", "list:1,2,4"]
SAMPLED_SUPPORT = ["support", "--prime", "101", "--set", "interval:1:10",
                   "--sample", "4", "--seed", "3"]


def census_csv(rows):
    lines = ["a1,a3,support_size,second_moment"] + [",".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def census_json(n, p, sampled, rows, summary):
    pairs = [dict(zip(("a1", "a3", "support_size", "second_moment"), r)) for r in rows]
    head = {"schema_version": 1, "n": n, "p": p, "sampled": sampled, "pairs": pairs}
    return json.dumps(dict(head, **summary), indent=2) + "\n"


class TestSupport:
    def test_full_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, *CENSUS_SUPPORT, "--format", "csv")
        assert code == EXIT_OK
        assert out == census_csv(LISTED_ROWS)

    def test_full_json_output(self, capsys):
        code, out, _ = run_cli(capsys, *CENSUS_SUPPORT)
        assert code == EXIT_OK
        assert out == census_json(3, 11, False, LISTED_ROWS, {
            "min_support": 4, "mean_support": "4.66666666667", "max_support": 5,
            "cs_lower_bound": "157.95", "fitted_log_exponent": 6.983463127567796})

    def test_sampled_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, *SAMPLED_SUPPORT, "--format", "csv")
        assert code == EXIT_OK
        assert out == census_csv(SAMPLED_ROWS)

    def test_sampled_json_output(self, capsys):
        code, out, _ = run_cli(capsys, *SAMPLED_SUPPORT)
        assert code == EXIT_OK
        assert out == census_json(10, 101, True, SAMPLED_ROWS, {
            "min_support": 33, "mean_support": "42", "max_support": 48,
            "cs_lower_bound": "24292.0274170", "fitted_log_exponent": 1.0401280821237322})

    def test_census_over_budget_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "support", "--prime", "10007", "--set", "interval:1:2000")
        assert code == EXIT_USAGE and out == ""
        assert "budget" in err and "--sample" in err

    def test_no_census_fits_past_n_2_14(self, capsys):
        code, out, err = run_cli(capsys, "support", "--prime", str(2**61 - 1),
                                 "--set", "interval:0:20000", "--sample", "1")
        assert code == EXIT_USAGE and out == ""
        assert "no census of a 20000-set fits" in err and "n <= 16384" in err
        assert "at most 0" not in err

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "support", "--prime", "5", "--set", "list:0,1",
            "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "a1,a3,support_size,second_moment"

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "support", "--prime", "101", "--set", "interval:1:10")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["n"] == 10 and len(data["pairs"]) == 100


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["moments", "verify", "support"])
    def test_threads_belongs_to_sweep_only(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--prime", "5", "--set", "list:0,1", "--threads", "2"])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_strategy_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--prime", "5", "--set", "list:0,1",
                  "--strategy", "quantum"])
        assert exc.value.code == EXIT_USAGE


class TestVerbose:
    @pytest.mark.parametrize("argv, builds", [
        (["moments", "--prime", "101", "--set", "uniform:16:3"], 1),
        (["verify", "--prime", "31", "--set", "uniform:6:3"], 1),
        (["sweep", "--primes", "31,101", "--set", "uniform:5", "--trials", "2"], 4),
    ], ids=["moments", "verify", "sweep"])
    def test_logs_each_auto_selected_strategy(self, argv, builds):
        # A child process, so that --verbose sets up logging from scratch.
        env = dict(os.environ, PYTHONPATH=str(Path(gridlines.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "gridlines.cli", *argv, "--verbose"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == EXIT_OK
        logged = [line for line in proc.stderr.splitlines()
                  if "histogram strategy auto-selected: slope_direct" in line]
        assert len(logged) == builds


class TestSupportOptions:
    @pytest.mark.parametrize("option", [["--strategy", "naive"], ["--timings"]])
    def test_histogram_options_are_usage_errors(self, option):
        with pytest.raises(SystemExit) as exc:
            main(["support", "--prime", "101", "--set", "uniform:10:1", *option])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("text", [
        "bernoulli:1/2", "paper-interval", "uniform:2000000000000000000",
        f"interval:0:{2**40}",
    ])
    def test_oversized_sets_exit_2_at_mersenne_61(self, capsys, monkeypatch, text):
        def never(*args):
            raise AssertionError("set built past the set budget")

        for name in ("gen_bernoulli", "gen_uniform", "gen_interval", "gen_paper_interval"):
            monkeypatch.setattr(gridlines.fieldsets, name, never)
        code, out, err = run_cli(capsys, "support", "--prime", str(2**61 - 1), "--set", text)
        assert code == EXIT_USAGE and out == ""
        assert "over the set budget" in err

    @pytest.mark.parametrize("p, text", [
        (2**61 - 1, "interval:0:4194304"), (2**61 - 1, "uniform:16385"),
        (2**61 - 1, "ap:1:3:20000"), (2**61 - 1, "gp:2:3:16385"),
        (1100000009, "paper-interval"),  # 16583 elements
    ])
    def test_no_census_fits_before_the_set_is_built(self, capsys, monkeypatch, p, text):
        def never(*args):
            raise AssertionError("set built although no census of it fits")

        for name in ("from_list", "gen_uniform", "gen_interval", "gen_ap", "gen_gp",
                     "gen_paper_interval"):
            monkeypatch.setattr(gridlines.fieldsets, name, never)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "support", "--prime", str(p), "--set", text)
        assert time.perf_counter() - t0 < 0.1
        assert code == EXIT_USAGE and out == ""
        assert "no census of a" in err and "n <= 16384" in err

    def test_a_set_that_fits_still_runs_at_mersenne_61(self, capsys):
        code, out, _ = run_cli(capsys, "support", "--prime", str(2**61 - 1),
                               "--set", "uniform:30:7", "--sample", "1")
        assert code == EXIT_OK and json.loads(out)["n"] == 30


def test_repeated_sweep_primes_exit_2(capsys):
    code, out, err = run_cli(capsys, "sweep", "--primes", "101,101", "--set", "bernoulli:0.3",
                             "--format", "csv")
    assert code == EXIT_USAGE and out == ""
    assert "distinct" in err


def test_readme_cli_section_names_exactly_the_parser_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = build_parser()._subparsers._group_actions[0].choices.values()
    accepted = {
        flag
        for sp in subparsers
        for action in sp._actions
        if action.help != argparse.SUPPRESS
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == accepted
