"""The one size policy: every limit runs at its largest n and refuses n + 1.

Each limit is derived from the array its caller allocates, checked against
the bytes of one dense 20-qubit complex128 register.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest

from nlqsim.algorithms import (
    Alg1Config,
    Alg2Config,
    run_algorithm1,
    run_algorithm2,
    run_algorithm2_count,
)
from nlqsim.cli import main
from nlqsim.oracle import (
    CnfFormula,
    OracleSpec,
    TruthTableOracle,
    count_solutions_bruteforce,
    truth_vector,
)
from nlqsim.statevector import ARRAY_BUDGET_BYTES, StateVector, new_basis_state


def test_budget_is_one_20_qubit_register():
    assert ARRAY_BUDGET_BYTES == 16 * 2**20 == np.dtype(np.complex128).itemsize << 20


def test_register_runs_at_20_and_refuses_21():
    amps = np.zeros(1 << 20, dtype=np.complex128)
    amps[3] = 1.0
    assert StateVector(20, amps).dim == 1 << 20
    with pytest.raises(ValueError, match="registers are capped at n = 20"):
        StateVector(21, np.zeros(1, dtype=np.complex128))
    with pytest.raises(ValueError, match="registers are capped at n = 20"):
        new_basis_state(21, 0)


def test_cnf_truth_table_runs_at_24_and_refuses_25():
    # 3/4 of the inputs have x1 -> x24, and 3/4 of those x2 or x3
    cnf = CnfFormula(24, ((-1, 24), (2, 3)))
    table = truth_vector(cnf)
    assert table.shape == (1 << 24,) and table.dtype == bool
    assert count_solutions_bruteforce(cnf) == int(np.count_nonzero(table)) == 9 << 20
    wide = CnfFormula(25, ((-1, 25),))
    for fn in (truth_vector, count_solutions_bruteforce):
        with pytest.raises(ValueError, match="truth tables are capped at n = 24"):
            fn(wide)


def test_truth_table_brute_force_allocates_nothing_and_has_no_limit():
    assert count_solutions_bruteforce(TruthTableOracle(64, (3, 1 << 40))) == 2


def test_a_huge_truth_table_is_refused_without_a_2_to_the_n_integer(capsys, tmp_path):
    # the range check must not build 1 << num_vars (125 MB at num_vars = 10**9)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"num_vars": 10**9, "solutions": [1]}))
    tracemalloc.start()
    try:
        assert TruthTableOracle(10**9, (1,)).solutions == (1,)
        code = main(["count", "--algorithm", "alg2", "--truth-table", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "capped at n = 24:" in captured.err


@pytest.mark.parametrize("s", [0, 1])
def test_flag_amplification_runs_at_19(s):
    sols = (123_456,) if s else ()
    report = run_algorithm1(Alg1Config(n=19, oracle=OracleSpec(TruthTableOracle(19, sols))))
    assert report.succeeded
    assert report.decision == ("solution-exists" if s else "no-solution")


def test_pair_merge_runs_at_19():
    report = run_algorithm2(Alg2Config(n=19, oracle=OracleSpec(TruthTableOracle(19, (77,)))))
    assert report.succeeded and report.decision == "solution-exists"
    assert report.oracle_calls == 1


def test_counting_cascade_runs_at_24():
    # the largest array is the query's 2**24 booleans: no amplitude register
    sols = (0, 5, 1 << 23, (1 << 24) - 1)
    cfg = Alg2Config(n=24, oracle=OracleSpec(TruthTableOracle(24, sols)), counting=True)
    start = time.perf_counter()
    report = run_algorithm2_count(cfg)
    assert time.perf_counter() - start < 0.5
    assert report.succeeded and report.count == 4
    assert report.oracle_calls == report.trials_used == 1
    assert report.applications_used == 24


@pytest.mark.parametrize("command, n, cap", [
    (["solve", "--algorithm", "alg1"], 20, 19),
    (["count", "--algorithm", "alg1"], 20, 19),
    (["separation"], 20, 19),
    (["solve", "--algorithm", "alg2"], 20, 19),
    (["count", "--algorithm", "alg2"], 25, 24),
])
def test_drivers_refuse_one_above_their_cap_on_the_cli(capsys, tmp_path, command, n, cap):
    path = tmp_path / f"tt{n}.json"
    path.write_text(json.dumps({"num_vars": n, "solutions": [1]}))
    code = main(command + ["--truth-table", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"capped at n = {cap}:" in captured.err
