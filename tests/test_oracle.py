import numpy as np
import pytest

from nlqsim.statevector import (
    StateVector,
    apply_1q_unitary,
    make_rng,
    new_basis_state,
)
from nlqsim.gates import H_GATE
from nlqsim.oracle import (
    CnfFormula,
    DimacsError,
    OracleSpec,
    TruthTableOracle,
    apply_oracle,
    count_solutions_bruteforce,
    evaluate,
    load_truth_table,
    parse_dimacs,
    random_oracle,
)


def test_parse_basic():
    cnf = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert cnf.num_vars == 2
    assert cnf.clauses == ((1, -2),)


def test_parse_with_comment_and_two_clauses():
    cnf = parse_dimacs("c x\np cnf 1 2\n1 0\n-1 0\n")
    assert cnf.num_vars == 1
    assert cnf.clauses == ((1,), (-1,))


def test_parse_literal_out_of_range_reports_line():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 1\n3 0\n")
    assert err.value.line == 2


def test_parse_missing_header():
    with pytest.raises(DimacsError):
        parse_dimacs("1 -2 0\n")


def test_parse_unterminated_clause():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 2 2\n1 0\n1 -2\n")
    assert "unterminated" in str(err.value)


@pytest.mark.parametrize("text, line, words", [
    ("p cnf 2 1\np cnf 2 1\n1 0\n", 2, "duplicate 'p cnf' header"),
    ("p cnf 2\n1 0\n", 1, "malformed header"),
    ("p dnf 2 1\n1 0\n", 1, "malformed header"),
    ("p cnf two 1\n1 0\n", 1, "malformed header"),
    ("p cnf 0 1\n", 1, "malformed header"),
    ("p cnf 2 1\n1 x 0\n", 2, "bad literal 'x'"),
    ("c a comment only\n\n", 2, "missing 'p cnf' header"),
])
def test_parse_refusals_name_the_line(text, line, words):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert err.value.line == line
    assert words in str(err.value)


def test_parse_stops_at_the_percent_end_marker():
    # SATLIB files end with '%' and a stray '0'; an open clause there is kept out
    cnf = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n%\n0\n")
    assert cnf.clauses == ((1, -2), (2,))
    assert parse_dimacs("p cnf 2 1\n1 0\n-2\n%\n").clauses == ((1,),)


def test_parse_accepts_bytes():
    cnf = parse_dimacs(b"p cnf 2 1\n1 2 0\n")
    assert cnf.num_vars == 2


@pytest.mark.parametrize("make, words", [
    (lambda: CnfFormula(0, ()), "num_vars"),
    (lambda: CnfFormula(2, ((1,), ())), "empty clause"),
    (lambda: CnfFormula(2, ((1, 0),)), "literal 0"),
    (lambda: CnfFormula(2, ((-3,),)), "literal -3"),
    (lambda: TruthTableOracle(0, ()), "num_vars"),
    (lambda: TruthTableOracle(2, (1, 1)), "strictly sorted"),
    (lambda: TruthTableOracle(2, (2, 1)), "strictly sorted"),
    (lambda: TruthTableOracle(2, (-1,)), "out of range"),
    (lambda: TruthTableOracle(2, (4,)), "out of range"),
])
def test_oracle_constructors_refuse_bad_fields(make, words):
    with pytest.raises(ValueError, match=words):
        make()


def test_truth_table_document_roundtrip():
    tt = load_truth_table('{"num_vars": 3, "solutions": [5, 1]}')
    assert tt.num_vars == 3
    assert tt.solutions == (1, 5)
    with pytest.raises(ValueError):
        load_truth_table('{"num_vars": 3}')


def test_evaluate_truth_table():
    tt = TruthTableOracle(3, (5,))
    assert evaluate(tt, 5) == 1
    assert evaluate(tt, 4) == 0
    with pytest.raises(ValueError):
        evaluate(tt, 8)


def test_evaluate_cnf_exhaustive():
    # (x1 or not x2): variable 1 is the most significant input bit, so the
    # only failing input is x1=0, x2=1, i.e. i=1
    cnf = CnfFormula(2, ((1, -2),))
    values = [evaluate(cnf, i) for i in range(4)]
    assert values == [1, 0, 1, 1]


def test_evaluate_agrees_with_membership_exhaustively():
    rng = make_rng(9)
    for n in range(1, 5):
        tt = random_oracle(n, int(rng.integers(0, (1 << n) + 1)), rng)
        for i in range(1 << n):
            assert evaluate(tt, i) == (1 if i in tt.solutions else 0)


def test_counter_untouched_by_classical_evaluate():
    spec = OracleSpec(TruthTableOracle(2, (1,)))
    evaluate(spec, 1)
    assert spec.call_counter == 0


def test_apply_oracle_empty_is_identity_and_counts_once():
    spec = OracleSpec(TruthTableOracle(2, ()))
    sv = new_basis_state(3, 0)
    for q in range(2):
        sv = apply_1q_unitary(sv, q, H_GATE)
    out = apply_oracle(sv, [0, 1], 2, spec)
    assert np.allclose(out.amplitudes, sv.amplitudes)
    assert spec.call_counter == 1


def test_apply_oracle_basis_action():
    spec = OracleSpec(TruthTableOracle(3, (5,)))
    sv = new_basis_state(4, 5 << 1)  # |101>|0>
    out = apply_oracle(sv, [0, 1, 2], 3, spec)
    assert out.amplitudes[(5 << 1) | 1] == pytest.approx(1.0)


def test_apply_oracle_on_uniform_superposition():
    spec = OracleSpec(TruthTableOracle(2, (3,)))
    sv = new_basis_state(3, 0)
    for q in range(2):
        sv = apply_1q_unitary(sv, q, H_GATE)
    out = apply_oracle(sv, [0, 1], 2, spec)
    expected = np.zeros(8)
    expected[[0, 2, 4]] = 0.5  # |0,0>, |1,0>, |2,0>
    expected[7] = 0.5          # |3,1>
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_apply_oracle_is_involution():
    rng = make_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    sv = StateVector(4, amps / np.linalg.norm(amps))
    spec = OracleSpec(TruthTableOracle(3, (1, 4, 6)))
    twice = apply_oracle(apply_oracle(sv, [0, 1, 2], 3, spec), [0, 1, 2], 3, spec)
    assert np.allclose(twice.amplitudes, sv.amplitudes, atol=1e-12)
    assert spec.call_counter == 2


def test_apply_oracle_commutes_with_outside_unitary():
    rng = make_rng(4)
    for _ in range(5):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        sv = StateVector(4, amps / np.linalg.norm(amps))
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        spec = OracleSpec(TruthTableOracle(2, (2,)))
        a = apply_1q_unitary(apply_oracle(sv, [0, 1], 3, spec), 2, u)
        b = apply_oracle(apply_1q_unitary(sv, 2, u), [0, 1], 3, spec)
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-10)


def test_apply_oracle_validates_indices():
    spec = OracleSpec(TruthTableOracle(2, ()))
    sv = new_basis_state(3, 0)
    with pytest.raises(ValueError):
        apply_oracle(sv, [0, 0], 2, spec)
    with pytest.raises(ValueError):
        apply_oracle(sv, [0, 2], 2, spec)


@pytest.mark.parametrize("oracle, inputs, flag, words", [
    (TruthTableOracle(2, ()), [0, 1], 2, "needs an OracleSpec"),
    (OracleSpec(TruthTableOracle(2, ())), [0], 2, "2 variables but 1 input qubits"),
    (OracleSpec(TruthTableOracle(2, ())), [1, 1], 2, "distinct"),
    (OracleSpec(TruthTableOracle(2, ())), [0, 2], 2, "distinct"),  # flag collides
    (OracleSpec(TruthTableOracle(2, ())), [0, 3], 2, "out of range"),
    (OracleSpec(TruthTableOracle(2, ())), [0, 1], -1, "out of range"),
])
def test_apply_oracle_refusals(oracle, inputs, flag, words):
    with pytest.raises((TypeError, ValueError), match=words):
        apply_oracle(new_basis_state(3, 0), inputs, flag, oracle)
    assert getattr(oracle, "call_counter", 0) == 0  # a refused query is not counted


def test_oracle_spec_refuses_an_unsupported_variant():
    with pytest.raises(TypeError, match="unsupported oracle variant"):
        OracleSpec({"num_vars": 2, "solutions": [1]})


def test_query_returns_f_on_every_input_and_ticks_once():
    spec = OracleSpec(CnfFormula(2, ((2,),)))
    assert spec.query().tolist() == [False, True, False, True]
    assert spec.call_counter == 1


@pytest.mark.parametrize("doc, field", [
    ('{"num_vars": 3, "solutions": "57"}', "'solutions'"),  # was solutions (5, 7)
    ('{"num_vars": 3.9, "solutions": [1.7, 2]}', "'num_vars'"),  # was (3, (1, 2))
    ('{"num_vars": 3, "solutions": [1.7, 2]}', "'solutions'"),
    ('{"num_vars": true, "solutions": []}', "'num_vars'"),
    ('{"num_vars": "3", "solutions": [1]}', "'num_vars'"),
    ('{"num_vars": 3, "solutions": {"1": 0}}', "'solutions'"),
    ('{"num_vars": 3, "solutions": [true]}', "'solutions'"),
    ('{"num_vars": 3, "solutions": null}', "'solutions'"),
])
def test_truth_table_documents_of_the_wrong_types_are_refused(doc, field):
    with pytest.raises(ValueError, match=field):
        load_truth_table(doc)


def test_truth_table_document_keeps_accepting_repeated_solutions():
    assert load_truth_table('{"num_vars": 3, "solutions": [5, 1, 5]}').solutions == (1, 5)


def test_count_bruteforce():
    assert count_solutions_bruteforce(TruthTableOracle(3, ())) == 0
    assert count_solutions_bruteforce(TruthTableOracle(3, (1, 2, 7))) == 3
    assert count_solutions_bruteforce(CnfFormula(2, ((1, -2),))) == 3
    # (x1 or not x2) over 3 variables leaves 6 of 8 assignments satisfying
    assert count_solutions_bruteforce(CnfFormula(3, ((1, -2),))) == 6


def test_random_oracle_edges_and_determinism():
    rng = make_rng(0)
    assert random_oracle(3, 0, rng).solutions == ()
    assert random_oracle(3, 8, rng).solutions == tuple(range(8))
    a = random_oracle(4, 2, make_rng(42))
    b = random_oracle(4, 2, make_rng(42))
    assert a == b
    with pytest.raises(ValueError):
        random_oracle(3, 9, rng)
