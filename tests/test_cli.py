import argparse
import json
import math
import os
import time
import warnings
from dataclasses import replace

import pytest

from nlqsim import algorithms, cli
from nlqsim.algorithms import Alg1Config, RunReport, run_algorithm1, run_algorithm1_count
from nlqsim.cli import build_parser, main
from nlqsim.gates import StretchMap
from nlqsim.oracle import OracleSpec, load_truth_table

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_alg2_empty_oracle(capsys):
    code, out, _ = run_cli(capsys, "solve", "--algorithm", "alg2",
                           "--input", fx("empty.cnf"), "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["report"]["decision"] == "no-solution"
    assert doc["report"]["oracle_calls"] == 1
    assert doc["wall_time"] is None


def test_solve_alg2_singleton_cnf(capsys):
    code, out, _ = run_cli(capsys, "solve", "--algorithm", "alg2",
                           "--input", fx("singleton.cnf"), "--seed", "3")
    assert code == 0
    assert json.loads(out)["report"]["decision"] == "solution-exists"


def test_solve_alg1(capsys):
    code, out, _ = run_cli(capsys, "solve", "--algorithm", "alg1",
                           "--truth-table", fx("one_solution.json"), "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["decision"] == "solution-exists"


def test_solve_malformed_dimacs_exits_1(capsys):
    code, _, err = run_cli(capsys, "solve", "--algorithm", "alg2",
                           "--input", fx("malformed.cnf"))
    assert code == 1
    assert "line 2" in err


def test_solve_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "solve", "--algorithm", "alg2",
                           "--input", fx("nope.cnf"))
    assert code == 1
    assert "error:" in err


def test_count_empty(capsys):
    code, out, _ = run_cli(capsys, "count", "--algorithm", "alg2",
                           "--input", fx("empty.cnf"))
    assert code == 0
    assert json.loads(out)["report"]["count"] == 0


def test_count_cnf_agrees_across_algorithms(capsys):
    # (x1 or not x2) over three variables has 6 of 8 satisfying assignments
    counts = {}
    for alg in ("alg1", "alg2"):
        code, out, _ = run_cli(capsys, "count", "--algorithm", alg,
                               "--input", fx("or_notx2.cnf"), "--seed", "9")
        assert code == 0
        counts[alg] = json.loads(out)["report"]["count"]
    assert counts["alg1"] == counts["alg2"] == 6


def test_count_budget_exhaustion_exits_2(capsys):
    # a 1-qubit counter cannot hold the count of two solutions
    code, out, _ = run_cli(capsys, "count", "--algorithm", "alg2",
                           "--truth-table", fx("two_solutions.json"),
                           "--counter-width", "1")
    assert code == 2
    report = json.loads(out)["report"]
    assert report["succeeded"] is False
    assert report["oracle_calls"] == report["trials_used"] == 1
    # solutions 2 and 6 overflow the first merge, so none completed
    assert report["applications_used"] == 0


def test_dynamics_linear_profile(capsys):
    code, out, _ = run_cli(capsys, "dynamics", "--hbar", "0,1.5",
                           "--t-max", "5", "--points", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t\tre_c1\tim_c1\tre_c2\tim_c2\tresidual"
    first = lines[1].split("\t")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1 / math.sqrt(2))
    for line in lines[1:]:
        assert float(line.split("\t")[5]) <= 1e-8


def test_dynamics_square_profile_residual(capsys):
    code, out, _ = run_cli(capsys, "dynamics", "--hbar", "0,0,1",
                           "--t-max", "10", "--points", "21")
    assert code == 0
    residuals = [float(l.split("\t")[5]) for l in out.strip().splitlines()[1:]]
    assert max(residuals) <= 1e-8


def test_dynamics_invalid_grid_exits_1(capsys):
    code, _, err = run_cli(capsys, "dynamics", "--points", "0")
    assert code == 1
    assert "grid" in err


def test_ngate_verify_default(capsys, tmp_path):
    out_path = tmp_path / "gate.json"
    code, _, _ = run_cli(capsys, "ngate-verify", "--eps", "1e-3",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    fids = doc["report"]["case_fidelities"]
    assert len(fids) == 3
    assert min(fids) >= 1 - 1e-3
    assert doc["report"]["audit"]["stages"]


def test_ngate_verify_unattainable_eps_exits_2(capsys):
    code, _, err = run_cli(capsys, "ngate-verify", "--eps", "1e-16")
    assert code == 2
    assert "synthesis" in err


@pytest.mark.parametrize("hbar, frequencies", [
    ("1e306,1e306", "(1e+306, 2e+306, 1e+306, 2e+306)"),  # w t overflows
    ("5e307,5e307", "(5e+307, 1e+308, 5e+307, 1e+308)"),  # so does w, nearly
])
def test_ngate_verify_refuses_frequencies_that_overflow_the_horizon(capsys, hbar, frequencies):
    code, out, err = run_cli(capsys, "ngate-verify", "--eps", "0.05", f"--hbar={hbar}")
    assert (code, out) == (1, "")
    assert err == f"error: phase frequencies {frequencies} overflow over the horizon t_max=2000\n"


def test_table_gate_synthesis_failure_exits_2_with_one_line(capsys):
    code, out, err = run_cli(capsys, "solve", "--algorithm", "alg2", "--eps", "1e-16",
                             "--truth-table", fx("one_solution_n5.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("synthesis failed: table merge gate fidelities")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_separation_empty_oracle_all_zero(capsys, tmp_path):
    out_path = tmp_path / "sep.tsv"
    code, out, _ = run_cli(capsys, "separation", "--truth-table",
                           fx("no_solutions.json"), "--out", str(out_path))
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "k\tbloch_separation"
    # zero up to stretch-amplified rounding dust
    assert all(float(r.split("\t")[1]) < 1e-6 for r in rows[1:])
    assert json.loads(out)["fitted_growth"] is None


def test_separation_single_solution_growth(capsys, tmp_path):
    out_path = tmp_path / "sep.tsv"
    code, out, _ = run_cli(capsys, "separation", "--truth-table",
                           fx("one_solution_n5.json"), "--seed", "2",
                           "--out", str(out_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["fitted_growth"] == pytest.approx(2.0, abs=0.05)
    seps = [float(r.split("\t")[1]) for r in out_path.read_text().strip().splitlines()[1:]]
    assert all(s <= math.pi + 1e-12 for s in seps)


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        path = tmp_path / f"report_{tag}.json"
        code, _, _ = run_cli(capsys, "solve", "--algorithm", "alg1",
                             "--truth-table", fx("one_solution.json"),
                             "--seed", "31", "--out", str(path))
        assert code == 0
        pairs.append(path.read_bytes())
    assert pairs[0] == pairs[1]


def test_tables_are_byte_identical_across_runs(capsys, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"sep_{tag}.tsv"
        code, _, _ = run_cli(capsys, "separation", "--truth-table",
                             fx("one_solution.json"), "--seed", "8",
                             "--out", str(path))
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_oracle_flags_are_exclusive(capsys):
    code, _, err = run_cli(capsys, "solve", "--algorithm", "alg2",
                           "--input", fx("empty.cnf"),
                           "--truth-table", fx("one_solution.json"))
    assert code == 1
    assert "exactly one" in err


def write_table(tmp_path, num_vars, solutions):
    path = tmp_path / f"tt{num_vars}.json"
    path.write_text(json.dumps({"num_vars": num_vars, "solutions": solutions}))
    return str(path)


def assert_one_line_error(code, err):
    assert code == 1
    assert "Traceback" not in err
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_solve_alg1_application_budget_exits_2(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve", "--algorithm", "alg1",
                           "--truth-table", write_table(tmp_path, 15, [1]),
                           "--max-applications", "3")
    assert code == 2
    report = json.loads(out)["report"]
    assert report["succeeded"] is False
    assert report["decision"] is None


def test_separation_names_the_budget_that_ran_out(capsys, tmp_path):
    code, _, err = run_cli(capsys, "separation", "--truth-table", write_table(tmp_path, 15, [1]),
                           "--max-applications", "3")
    assert code == 2
    assert err == "separation run exhausted its application budget\n"
    # half the inputs are solutions: post-selection fails at seed 0 with one trial
    code, _, err = run_cli(capsys, "separation", "--truth-table",
                           write_table(tmp_path, 3, [0, 1, 2, 3]), "--max-trials", "1")
    assert code == 2
    assert err == "separation run exhausted its trial budget\n"


@pytest.mark.parametrize("flag, value", [("--max-applications", "-1"), ("--max-trials", "0")])
@pytest.mark.parametrize("command", [["solve", "--algorithm", "alg1"], ["solve", "--algorithm", "alg2"],
                                     ["count", "--algorithm", "alg1"], ["separation"]])
def test_negative_budgets_are_rejected(capsys, command, flag, value):
    code, out, err = run_cli(capsys, *command, "--truth-table", fx("one_solution.json"), flag, value)
    assert_one_line_error(code, err)
    assert flag in err
    assert out == ""


def test_alg2_solve_size_cap_is_a_one_line_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--algorithm", "alg2",
                           "--truth-table", write_table(tmp_path, 20, []))
    assert_one_line_error(code, err)
    assert "capped at n = 19" in err


def test_alg2_count_size_cap_is_a_one_line_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "count", "--algorithm", "alg2",
                           "--truth-table", write_table(tmp_path, 21, [1]))
    assert_one_line_error(code, err)
    assert "capped at n = 20" in err


def test_alg2_solution_guard_is_a_one_line_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--algorithm", "alg2",
                           "--truth-table", fx("two_solutions.json"))
    assert_one_line_error(code, err)
    assert "at most one solution" in err


def test_integrator_step_guard_is_a_one_line_error(capsys):
    code, _, err = run_cli(capsys, "dynamics", "--t-max", "1e9")
    assert_one_line_error(code, err)
    assert "step-count guard" in err


def test_dynamics_step_guard_covers_the_whole_trajectory(capsys):
    # 1e6 steps per output interval pass a per-segment guard, yet the run
    # would take 1e9 steps in all; it must be refused before any work
    started = time.monotonic()
    code, _, err = run_cli(capsys, "dynamics", "--t-max", "1e6", "--points", "1001")
    assert time.monotonic() - started < 0.5
    assert_one_line_error(code, err)
    assert "step-count guard" in err


TT_N5 = ["--truth-table", fx("one_solution_n5.json")]


@pytest.mark.parametrize("argv, named", [
    (["dynamics", "--dt", "inf"], "--dt"),  # took no step, printed a residual
    (["dynamics", "--dt", "nan"], "--dt"),
    (["dynamics", "--t-max", "nan"], "--t-max"),  # all-NaN table
    (["dynamics", "--t-max", "inf"], "--t-max"),  # numpy warning first
    (["dynamics", "--initial=1e200,0,1e200,0"], "--initial"),  # OverflowError
    (["dynamics", "--initial=nan,0,1,0"], "--initial"),
    (["dynamics", "--initial=1e154,0,1e154,0"], "--initial"),  # each square finite, sum not
    (["dynamics", "--hbar", "1e10", "--t-max", "1", "--points", "2"], "overflowed"),
    (["ngate-verify", "--eps", "nan"], "eps"),
    (["ngate-verify", "--eps", "inf"], "eps"),  # exit 2, synthesis failed
    # report flags: NaN or Infinity in the JSON, or a message naming no flag
    (["solve", "--algorithm", "alg2", "--eps", "nan", *TT_N5], "--eps"),
    (["solve", "--algorithm", "alg1", "--eps", "nan", *TT_N5], "--eps"),
    (["solve", "--algorithm", "alg1", "--threshold", "nan", *TT_N5], "--threshold"),
    (["solve", "--algorithm", "alg1", "--threshold", "inf", *TT_N5], "--threshold"),
    (["solve", "--algorithm", "alg2", "--lambda", "nan", *TT_N5], "--lambda"),
    (["count", "--algorithm", "alg1", "--eta=-inf", *TT_N5], "--eta"),
    (["separation", "--theta0", "nan", *TT_N5], "--theta0"),
    (["solve", "--algorithm", "alg1", "--noise-sigma", "nan", *TT_N5], "--noise-sigma"),
    (["count", "--algorithm", "alg2", "--noise-sigma", "inf", *TT_N5], "--noise-sigma"),
    (["separation", "--noise-sigma", "-1", *TT_N5], "--noise-sigma"),
    (["solve", "--algorithm", "alg2", "--eps", "-1", *TT_N5], "eps"),  # was a synthesis failure
    (["solve", "--algorithm", "alg2", "--eps", "0", *TT_N5], "eps"),
    (["solve", "--algorithm", "alg1", "--threshold", "0", *TT_N5], "--threshold"),
    (["solve", "--algorithm", "alg1", "--threshold", "1.5", *TT_N5], "--threshold"),
    (["solve", "--algorithm", "alg1", "--lambda", "1000", *TT_N5], "stretch"),  # exp overflows
    # at eps >= 1 the 1 - eps fidelity bound passes any gate
    (["solve", "--algorithm", "alg2", "--eps", "1", *TT_N5], "eps must lie in (0, 1)"),
    (["ngate-verify", "--eps", "1"], "eps must lie in (0, 1)"),
])
def test_non_finite_numbers_are_one_line_errors(capsys, argv, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, err)
    assert named in err
    assert out == ""


def test_reports_refuse_to_write_non_finite_numbers(capsys, monkeypatch):
    # a NaN that got past the flag checks still ends in one error line, not
    # in a report that is not JSON
    def nan_run(cfg):
        return RunReport(post_measurement_flag_amplitude=math.nan, succeeded=True)

    monkeypatch.setattr(cli, "run_algorithm2", nan_run)
    code, out, err = run_cli(capsys, "solve", "--algorithm", "alg2", *TT_N5)
    assert_one_line_error(code, err)
    assert "JSON" in err and out == ""


@pytest.mark.parametrize("argv, named", [
    (["solve", *TT_N5], "the following arguments are required: --algorithm"),
    (["solve", "--algorithm", "alg3", *TT_N5], "invalid choice: 'alg3'"),
    (["dynamics", "--points", "abc"], "argument --points: invalid int value: 'abc'"),
    (["solve", "--algorithm", "alg2", *TT_N5, "--no-such-flag"], "unrecognized arguments"),
    ([], "the following arguments are required: command"),
    (["dynamics", "--hbar", "abc"], "invalid --hbar"),
    (["dynamics", "--initial=1,2,3"], "--initial needs four"),
    (["dynamics", "--initial=a,b,c,d"], "invalid --initial"),
    (["solve", "--algorithm", "alg1", "--eta", "4", *TT_N5], "invalid stretch parameters"),
    # a negative value with an exponent reaches its flag's own check
    (["solve", "--algorithm", "alg1", "--theta0", "-1e308", *TT_N5],
     "invalid stretch parameters"),
    (["dynamics", "--t-max", "-1e-3"], "--t-max must be nonnegative"),
    (["separation", "--timing", *TT_N5], "unrecognized arguments: --timing"),
    (["solve", "--algorithm", "alg1", "--lambda", "abc", *TT_N5],
     "argument --lambda: must be a finite number, got 'abc'"),
    (["dynamics", "--dt", "0"], "--dt must be positive"),
])
def test_usage_errors_are_one_line_errors(capsys, argv, named):
    # usage errors exit 1 with one line, as bad values do; 2 is kept for
    # budget and synthesis failures
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, err)
    assert named in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--algorithm", "alg2", "--eps", "0.999", *TT_N5],
    ["ngate-verify", "--eps", "0.999"],
])
def test_gate_eps_just_below_one_is_accepted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["eps"] == 0.999


@pytest.mark.parametrize("argv, dest, value", [
    (["solve", "--algorithm", "alg1", "--lambda", "-1e-3"], "lam", -1e-3),
    (["solve", "--algorithm", "alg1", "--theta0", "-1e308"], "theta0", -1e308),
    (["dynamics", "--t-max", "-1E+2"], "t_max", -100.0),
    (["separation", "--eta", "-.5e1"], "eta", -5.0),
])
def test_negative_exponent_values_are_read_as_values(argv, dest, value):
    assert getattr(build_parser().parse_args(argv), dest) == value


def test_truth_tables_of_the_wrong_types_are_one_line_errors(capsys, tmp_path):
    path = tmp_path / "tt.json"
    for doc, field in (('{"num_vars": 3, "solutions": "57"}', "'solutions'"),
                       ('{"num_vars": 3.9, "solutions": [1.7, 2]}', "'num_vars'")):
        path.write_text(doc)
        code, out, err = run_cli(capsys, "solve", "--algorithm", "alg2", "--truth-table", str(path))
        assert_one_line_error(code, err)
        assert field in err and out == ""


def test_run_flag_defaults_are_the_library_defaults():
    for argv in (["solve", "--algorithm", "alg1"], ["count", "--algorithm", "alg1"], ["separation"]):
        args = build_parser().parse_args(argv)
        assert (args.lam, args.eta, args.theta0) == (StretchMap.lam, StretchMap.eta,
                                                     StretchMap.theta0)
        for flag in ("max_applications", "max_trials", "noise_sigma", "seed"):
            assert getattr(args, flag) == getattr(Alg1Config, flag)
    solve = build_parser().parse_args(["solve", "--algorithm", "alg1"])
    assert solve.threshold == Alg1Config.decision_threshold


def test_every_solve_and_count_algorithm_has_one_run():
    for command in ("solve", "count"):
        algorithm = next(a for a in _subcommand_parser(command)._actions if a.dest == "algorithm")
        for choice in algorithm.choices:
            driver, _, _ = cli._RUNS[command, choice]
            assert vars(cli)[driver] is vars(algorithms)[driver]
    assert len(cli._RUNS) == 4


def test_fit_growth_without_a_usable_ratio_is_none():
    for traj in ([(0, 0.0), (1, 0.5)], [(1, 0.5), (2, 1.0)]):
        assert cli._fit_growth(RunReport(applications_to_threshold=1,
                                         separation_trajectory=traj)) is None


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--algorithm" in capsys.readouterr().out


def _subcommand_parser(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command, argv", [
    ("solve", ["--algorithm", "alg2", "--truth-table", fx("one_solution.json")]),
    ("count", ["--algorithm", "alg2", "--truth-table", fx("one_solution.json")]),
    ("ngate-verify", ["--eps", "1e-3"]),
])
def test_reports_echo_every_config_flag_of_their_parser(capsys, command, argv):
    # every flag the subcommand parses shapes the run, except where the
    # oracle comes from and where and how the report is written
    not_config = {"help", "input", "truth_table", "out", "timing"}
    flags = {a.dest for a in _subcommand_parser(command)._actions} - not_config
    code, out, _ = run_cli(capsys, command, *argv)
    assert code == 0
    config = json.loads(out)["config"]
    extra = {"gate_realization"} if command == "solve" else set()
    assert set(config) == flags | extra
    args = build_parser().parse_args([command, *argv])
    assert {k: config[k] for k in flags} == {k: getattr(args, k) for k in flags}


def test_reports_echo_budgets_and_gate_realization(capsys):
    for command, algorithm, gate in [("solve", "alg1", None), ("solve", "alg2", "table"),
                                     ("count", "alg1", None), ("count", "alg2", None)]:
        code, out, _ = run_cli(capsys, command, "--algorithm", algorithm,
                               "--truth-table", fx("one_solution.json"),
                               "--max-applications", "50", "--max-trials", "7")
        assert code == 0
        config = json.loads(out)["config"]
        assert config["max_applications"] == 50 and config["max_trials"] == 7
        assert ("gate_realization" in config) == (command == "solve")
        assert config.get("gate_realization") == gate


# Seed 2 with one trial: the count run runs out of trials in round 5,
# while the solve and separation runs see the zero pattern at once; the
# solve run needs 23 applications, so 22 runs out of applications.
ALG1_FLAGS = ["--truth-table", fx("one_solution_n5.json"), "--seed", "2", "--noise-sigma", "1e-4",
              "--lambda", "0.8", "--eta", "0.7", "--theta0", "1.4", "--max-trials", "1"]


@pytest.mark.parametrize("command", ["solve", "count", "separation"])
def test_alg1_commands_pass_every_flag_to_the_run(capsys, command):
    with open(fx("one_solution_n5.json"), "rb") as fh:
        oracle = OracleSpec(load_truth_table(fh.read()))
    cfg = Alg1Config(n=oracle.num_vars, oracle=oracle,
                     stretch=StretchMap(theta0=1.4, eta=0.7, lam=0.8), max_applications=40,
                     max_trials=1, noise_sigma=1e-4, seed=2)
    argv = [command] + ALG1_FLAGS
    if command == "solve":
        argv += ["--algorithm", "alg1", "--threshold", "0.3", "--max-applications", "22"]
        cfg = replace(cfg, decision_threshold=0.3, max_applications=22)
        want = run_algorithm1(cfg).to_dict()
        # the threshold and the application budget both show in the report
        assert want != run_algorithm1(replace(cfg, decision_threshold=0.5)).to_dict()
        assert want != run_algorithm1(replace(cfg, max_applications=96)).to_dict()
    elif command == "count":
        argv += ["--algorithm", "alg1", "--max-applications", "40"]
        want = run_algorithm1_count(cfg).to_dict()
        assert want != run_algorithm1_count(replace(cfg, max_trials=None)).to_dict()
    else:
        argv += ["--max-applications", "40"]
        want = run_algorithm1(cfg).to_dict()
    code, out, _ = run_cli(capsys, *argv)
    assert code == (0 if want["succeeded"] else 2)
    if command == "separation":
        rows = [f"{k}\t{sep:.17g}" for k, sep in want["separation_trajectory"]]
        assert out.splitlines() == ["k\tbloch_separation"] + rows
    else:
        assert json.loads(out)["report"] == json.loads(json.dumps(want))


def test_alg1_count_failure_reports_keep_the_work_done(capsys):
    # four rounds run before the fifth runs out of trials, and the first
    # round runs out of applications when it is given five
    for extra, note in ([["--max-applications", "40"], "trial budget exhausted in round 5"],
                        [["--max-trials", "16", "--max-applications", "5"],
                         "application budget exhausted in round 1"]):
        code, out, _ = run_cli(capsys, "count", "--algorithm", "alg1", *ALG1_FLAGS, *extra)
        assert code == 2
        report = json.loads(out)["report"]
        assert report["notes"] == [note] and not report["succeeded"]
        traj = report["separation_trajectory"]
        assert report["applications_used"] == len(traj) > 0
        assert traj[-1][0] == len(traj)
        assert report["oracle_calls"] == report["trials_used"] > 0
