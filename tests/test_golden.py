"""Golden CLI reports: every subcommand on the fixtures, at fixed seeds.

The files in tests/golden/ were written by the reference commit that
preceded the strided kernel layer; the config objects of the solve and
count reports were later extended by the budget and gate-realization
echo, and then cut to `algorithm`, the flags each run reads and
`gate_realization`, with every kept value and every report field
unchanged.  A run must reproduce them
structurally: exit code and stderr exactly, every non-float field of a
JSON report or table exactly, and every float within 1e-8 relative.
Every float in these outputs is an O(1) quantity (an amplitude, angle,
probability or fidelity of a unit-norm state), so a value below 1e-15 is
rounding residue, such as the near-zero eigenvalue reported as
entanglement_residue; there only the absolute difference means anything,
and it must stay below 1e-15.

Regenerate (only when a change of results is intended and explained):

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
REL_TOL = 1e-8
ABS_TOL = 1e-15  # rounding residue of O(1) quantities


def fx(name):
    return os.path.join("tests", "fixtures", name)


CASES = {
    "solve_alg1_one_solution": ["solve", "--algorithm", "alg1", "--truth-table", fx("one_solution.json"), "--seed", "5"],
    "solve_alg1_no_solutions": ["solve", "--algorithm", "alg1", "--truth-table", fx("no_solutions.json"), "--seed", "3"],
    "solve_alg1_two_solutions": ["solve", "--algorithm", "alg1", "--truth-table", fx("two_solutions.json"), "--seed", "11"],
    "solve_alg1_singleton_cnf": ["solve", "--algorithm", "alg1", "--input", fx("singleton.cnf"), "--seed", "7"],
    "solve_alg1_or_notx2_cnf": ["solve", "--algorithm", "alg1", "--input", fx("or_notx2.cnf"), "--seed", "2"],
    "solve_alg1_n5_noisy": ["solve", "--algorithm", "alg1", "--truth-table", fx("one_solution_n5.json"), "--seed", "4", "--noise-sigma", "1e-4"],
    "solve_alg2_empty_cnf": ["solve", "--algorithm", "alg2", "--input", fx("empty.cnf"), "--seed", "3"],
    "solve_alg2_singleton_cnf": ["solve", "--algorithm", "alg2", "--input", fx("singleton.cnf"), "--seed", "7"],
    "solve_alg2_one_solution": ["solve", "--algorithm", "alg2", "--truth-table", fx("one_solution.json"), "--seed", "5"],
    "solve_alg2_no_solutions": ["solve", "--algorithm", "alg2", "--truth-table", fx("no_solutions.json"), "--seed", "1"],
    "solve_alg2_n5_eps": ["solve", "--algorithm", "alg2", "--truth-table", fx("one_solution_n5.json"), "--seed", "4", "--eps", "1e-3"],
    "solve_alg2_n5_noisy": ["solve", "--algorithm", "alg2", "--truth-table", fx("one_solution_n5.json"), "--seed", "6", "--noise-sigma", "1e-3"],
    "solve_malformed": ["solve", "--algorithm", "alg2", "--input", fx("malformed.cnf")],
    "count_alg1_one_solution": ["count", "--algorithm", "alg1", "--truth-table", fx("one_solution.json"), "--seed", "5"],
    "count_alg1_two_solutions": ["count", "--algorithm", "alg1", "--truth-table", fx("two_solutions.json"), "--seed", "3"],
    "count_alg1_or_notx2_cnf": ["count", "--algorithm", "alg1", "--input", fx("or_notx2.cnf"), "--seed", "9"],
    "count_alg1_empty_cnf": ["count", "--algorithm", "alg1", "--input", fx("empty.cnf")],
    "count_alg2_two_solutions": ["count", "--algorithm", "alg2", "--truth-table", fx("two_solutions.json"), "--seed", "3"],
    "count_alg2_or_notx2_cnf": ["count", "--algorithm", "alg2", "--input", fx("or_notx2.cnf"), "--seed", "9"],
    "count_alg2_n5": ["count", "--algorithm", "alg2", "--truth-table", fx("one_solution_n5.json"), "--seed", "1"],
    "count_alg2_overflow": ["count", "--algorithm", "alg2", "--truth-table", fx("two_solutions.json"), "--counter-width", "1"],
    "separation_one_solution": ["separation", "--truth-table", fx("one_solution.json"), "--seed", "8"],
    "separation_n5": ["separation", "--truth-table", fx("one_solution_n5.json"), "--seed", "2"],
    "separation_no_solutions": ["separation", "--truth-table", fx("no_solutions.json")],
    "separation_two_solutions_cnf": ["separation", "--input", fx("or_notx2.cnf"), "--seed", "4"],
    "ngate_verify_1e-3": ["ngate-verify", "--eps", "1e-3"],
    "ngate_verify_1e-6": ["ngate-verify", "--eps", "1e-6"],
    "ngate_verify_unattainable": ["ngate-verify", "--eps", "1e-16"],
    "dynamics_default": ["dynamics"],
    "dynamics_linear": ["dynamics", "--hbar", "0,1.5", "--t-max", "5", "--points", "11"],
    "dynamics_cubic": ["dynamics", "--hbar", "0.1,-0.4,0.3,0.2", "--t-max", "3", "--points", "7", "--dt", "2e-3"],
}


def run_case(argv):
    """Run one CLI call from the repository root; returns the recorded fields."""
    from nlqsim.cli import main

    root = os.path.dirname(HERE)
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + ["--out", out_path])
        finally:
            os.chdir(cwd)
        out = ""
        if os.path.exists(out_path):
            with open(out_path) as fh:
                out = fh.read()
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "out": out}


def _parse(text: str):
    """A JSON document, or a tab-separated table as rows of tokens."""
    try:
        return json.loads(text)
    except ValueError:
        rows = []
        for line in text.splitlines():
            row = []
            for token in line.split("\t"):
                try:
                    row.append(int(token))
                except ValueError:
                    try:
                        row.append(float(token))
                    except ValueError:
                        row.append(token)
            rows.append(row)
        return rows


def assert_same(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{path}: {got!r} vs golden {want!r}")
        return
    assert type(got) is type(want), f"{path}: {type(got).__name__} vs golden {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} vs golden {sorted(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} vs golden {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} vs golden {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        want = json.load(fh)
    got = run_case(CASES[name])
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    for field in ("stdout", "out"):
        assert_same(_parse(got[field]), _parse(want[field]), field)


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with open(os.path.join(GOLDEN, f"{name}.json"), "w") as fh:
            json.dump(run_case(argv), fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    regenerate()
