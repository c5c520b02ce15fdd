"""Tests of the benchmark itself: generator, evaluator and checker."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import Outcome, closed_form, cnf_truth, contraction_latitude, hbar_omegas, judge  # noqa: E402
from gen import WORKLOADS, Generator, Op, no_solution_cubic  # noqa: E402
from nlqsim.oracle import CnfFormula, count_solutions_bruteforce, evaluate  # noqa: E402


def _snapshot(workload, seed, workdir):
    """Argument lists and input-file contents of block 0, with paths made relative."""
    ops = Generator(workload, seed, str(workdir)).block(0)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name)) as fh:
            files[name] = fh.read()
    argvs = [[a.replace(str(workdir), "<dir>") for a in op.argv] for op in ops]
    return argvs, [op.truth for op in ops], files


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _snapshot(workload, 7, tmp_path / "a")
    assert first == _snapshot(workload, 7, tmp_path / "b")
    assert first != _snapshot(workload, 8, tmp_path / "c")


def test_generated_cnfs_have_their_planted_solutions(tmp_path):
    ops = Generator("decide", 3, str(tmp_path)).block(1)
    cnf_ops = [op for op in ops if op.variant == "cnf"]
    assert cnf_ops
    for op in cnf_ops:
        with open(op.argv[op.argv.index("--input") + 1]) as fh:
            lines = [ln.split() for ln in fh if ln[0] not in "cp"]
        clauses = [[int(x) for x in ln[:-1]] for ln in lines]
        assert all(len(c) == 3 for c in clauses)
        assert int(np.count_nonzero(cnf_truth(op.truth["n"], clauses))) == op.truth["s"]


def test_evaluator_agrees_with_nlqsim_on_random_cnfs():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        clauses = []
        for _ in range(int(rng.integers(0, 4 * n + 1))):
            width = int(rng.integers(1, min(3, n) + 1))
            var = rng.choice(n, size=width, replace=False) + 1
            clauses.append([int(v) if rng.integers(0, 2) else -int(v) for v in var])
        truth = cnf_truth(n, clauses)
        formula = CnfFormula(n, tuple(tuple(c) for c in clauses))
        assert [bool(evaluate(formula, i)) for i in range(1 << n)] == truth.tolist()
        assert count_solutions_bruteforce(formula) == int(np.count_nonzero(truth))


def test_no_solution_cubic_has_equal_frequencies_at_the_contraction_latitude():
    rng = np.random.default_rng(5)
    for eps in (0.01, 0.03, 0.1):
        coefs = no_solution_cubic(eps, rng)
        w1, w2 = hbar_omegas(coefs, contraction_latitude(eps))
        assert abs(w1 - w2) < 1e-12


def _solve_report(decision, oracle_calls=1, succeeded=True):
    report = {"decision": decision, "count": None, "oracle_calls": oracle_calls,
              "succeeded": succeeded}
    return json.dumps({"command": "solve", "report": report}).encode()


def _verdict(op, rc, out, stdout="", stderr="", exc=None):
    return judge(op, exc, rc, out, stdout, stderr)[0]


def test_checker_accepts_correct_reports():
    alg2 = Op("solve_alg2", "tt", [], {"s": 1})
    assert _verdict(alg2, 0, _solve_report("solution-exists")) == Outcome.OK
    alg1 = Op("solve_alg1", "tt", [], {"s": 0})
    assert _verdict(alg1, 0, _solve_report("no-solution")) == Outcome.OK


def test_checker_rejects_doctored_reports():
    alg2 = Op("solve_alg2", "tt", [], {"s": 1})
    assert _verdict(alg2, 0, _solve_report("no-solution")) == Outcome.FAILED
    assert _verdict(alg2, 0, _solve_report("solution-exists", oracle_calls=2)) == Outcome.FAILED
    alg1 = Op("solve_alg1", "cnf", [], {"s": 3})
    assert _verdict(alg1, 0, _solve_report("no-solution", succeeded=True)) == Outcome.FAILED
    assert _verdict(alg1, 2, _solve_report("solution-exists")) == Outcome.FAILED
    count = Op("count_alg1", "n10", [], {"s": 4})
    doc = {"command": "count", "report": {"count": 5, "succeeded": True}}
    assert _verdict(count, 0, json.dumps(doc).encode()) == Outcome.FAILED


def test_checker_rules_for_gates_and_tables():
    cubic = Op("ngate_verify", "cubic", [], {"eps": 0.05, "solvable": False})
    assert _verdict(cubic, 2, b"", stderr="synthesis failed: no phase\n") == Outcome.OK
    doc = {"command": "ngate-verify", "report": {"case_fidelities": [1.0, 1.0, 1.0]}}
    assert _verdict(cubic, 0, json.dumps(doc).encode()) == Outcome.FAILED
    aligned = Op("ngate_verify", "aligned", [], {"eps": 1e-6, "solvable": True})
    doc["report"]["case_fidelities"] = [1.0, 1.0 - 1e-5, 1.0]
    assert _verdict(aligned, 0, json.dumps(doc).encode()) == Outcome.FAILED

    truth = {"hbar": [0.0, 0.0, 1.0], "initial": [0.6, 0.0, 0.8, 0.0], "t_max": 2.0, "points": 3}
    dyn = Op("dynamics", "degree2", [], truth)
    rows = ["t\tre_c1\tim_c1\tre_c2\tim_c2\tresidual"]
    for t in (0.0, 1.0, 2.0):
        e1, e2 = closed_form(0.6, 0.8, truth["hbar"], t)
        rows.append("\t".join(repr(x) for x in (t, e1.real, e1.imag, e2.real, e2.imag, 1e-13)))
    table = "\n".join(rows) + "\n"
    assert _verdict(dyn, 0, table.encode()) == Outcome.OK
    doctored = table.replace(rows[2].split("\t")[1], repr(float(rows[2].split("\t")[1]) + 1e-6))
    assert _verdict(dyn, 0, doctored.encode()) == Outcome.FAILED


def test_at_limit_refusals_are_not_failures():
    planted = Op("solve_alg2", "tt", [], {"s": 2}, at_limit=True)
    refusal = ValueError("decision variant requires at most one solution")
    assert judge(planted, refusal, None, b"", "", "")[0] == Outcome.REFUSED
    assert _verdict(planted, 1, b"", stderr="error: at most one solution\n") == Outcome.REFUSED
    assert _verdict(planted, 0, _solve_report("solution-exists")) == Outcome.OK
    ordinary = Op("solve_alg2", "tt", [], {"s": 1})
    assert judge(ordinary, refusal, None, b"", "", "")[0] == Outcome.FAILED
