"""Differential tests: every fast register path against a slow, obvious one.

The references below build dense matrices, evaluate the oracle one input
at a time and apply the merge gate stage by stage; none of them shares
code with the strided kernels, the oracle table or the row-batched sweep.
"""

import itertools

import numpy as np
import pytest

from nlqsim.algorithms import NoiseModel
from nlqsim.gates import build_N, ideal_merge_gate
from nlqsim.oracle import (
    CnfFormula,
    OracleSpec,
    TruthTableOracle,
    apply_oracle,
    count_solutions_bruteforce,
    evaluate,
    truth_vector,
)
from nlqsim.statevector import (
    StateVector,
    apply_1q_unitary,
    apply_2q_unitary,
    make_rng,
)
from nlqsim.weinberg import apply_conditional_nonlinear


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def haar_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def bit(i, n, q):
    return (i >> (n - 1 - q)) & 1


def dense_1q(n, q, u):
    """I (x) ... (x) u (x) ... (x) I with u in slot q (qubit 0 leftmost)."""
    return np.kron(np.kron(np.eye(1 << q), u), np.eye(1 << (n - 1 - q)))


def dense_2q(n, q1, q2, u):
    """Full matrix of u on |b_q1 b_q2>, identity on every other bit, entry by entry."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    mask = (1 << (n - 1 - q1)) | (1 << (n - 1 - q2))
    for row in range(dim):
        for col in range(dim):
            if row & ~mask == col & ~mask:
                r = 2 * bit(row, n, q1) + bit(row, n, q2)
                c = 2 * bit(col, n, q1) + bit(col, n, q2)
                out[row, col] = u[r, c]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_1q_kernel_matches_dense_kronecker(n):
    rng = make_rng(100 + n)
    for q in range(n):
        sv = random_state(rng, n)
        u = haar_unitary(rng, 2)
        want = dense_1q(n, q, u) @ sv.amplitudes
        got = apply_1q_unitary(sv, q, u).amplitudes
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_2q_kernel_matches_dense_matrix_in_both_orders(n):
    rng = make_rng(200 + n)
    for q1, q2 in itertools.permutations(range(n), 2):
        sv = random_state(rng, n)
        u = haar_unitary(rng, 4)
        want = dense_2q(n, q1, q2, u) @ sv.amplitudes
        got = apply_2q_unitary(sv, q1, q2, u).amplitudes
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_2q_kernel_on_eight_qubits():
    rng = make_rng(208)
    for q1, q2 in ((0, 7), (7, 0), (3, 4), (5, 2)):
        sv = random_state(rng, 8)
        u = haar_unitary(rng, 4)
        want = dense_2q(8, q1, q2, u) @ sv.amplitudes
        assert np.allclose(apply_2q_unitary(sv, q1, q2, u).amplitudes, want, rtol=0, atol=1e-12)


def random_cnf(rng, n):
    """Clauses of 1-4 literals, with repeated literals and x-or-not-x clauses mixed in."""
    clauses = []
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        lits = [int(v) * (1 if rng.random() < 0.5 else -1)
                for v in rng.integers(1, n + 1, size=int(rng.integers(1, 5)))]
        kind = rng.random()
        if kind < 0.15:
            lits.append(lits[0])  # repeated literal
        elif kind < 0.3:
            lits.append(-lits[0])  # tautology
        clauses.append(tuple(lits))
    return CnfFormula(n, tuple(clauses))


def test_oracle_table_matches_scalar_evaluate_on_random_cnfs():
    rng = make_rng(31)
    for trial in range(60):
        n = int(rng.integers(1, 8))
        cnf = random_cnf(rng, n)
        want = [evaluate(cnf, i) for i in range(1 << n)]
        assert truth_vector(cnf).astype(int).tolist() == want, cnf
        assert count_solutions_bruteforce(cnf) == sum(want)


def test_oracle_table_special_clauses():
    # (x1 or x1) and (x2 or not x2): only x1 matters
    cnf = CnfFormula(2, ((1, 1), (2, -2)))
    assert truth_vector(cnf).tolist() == [False, False, True, True]
    assert truth_vector(CnfFormula(3, ())).all()
    assert count_solutions_bruteforce(CnfFormula(2, ((1,), (-1,)))) == 0


def reference_query(state, inputs, flag, oracle):
    """|i, b> -> |i, b xor f(i)> one basis index at a time."""
    n = state.num_qubits
    out = np.zeros_like(state.amplitudes)
    for idx in range(state.dim):
        i = 0
        for q in inputs:
            i = (i << 1) | bit(idx, n, q)
        out[idx ^ (evaluate(oracle, i) << (n - 1 - flag))] = state.amplitudes[idx]
    return out


@pytest.mark.parametrize("n_reg, inputs, flag", [
    (4, [0, 1, 2], 3),      # default placement
    (4, [1, 2, 3], 0),      # flag first
    (5, [3, 0, 4], 2),      # inputs permuted, flag inside
    (6, [5, 1, 3], 4),      # spectator qubits 0 and 2
    (5, [2, 4, 1, 0], 3),
])
def test_apply_oracle_matches_reference_at_any_placement(n_reg, inputs, flag):
    rng = make_rng(41 + n_reg + flag)
    for variant in (random_cnf(rng, len(inputs)),
                    TruthTableOracle(len(inputs), (1, 2, (1 << len(inputs)) - 1))):
        spec = OracleSpec(variant)
        sv = random_state(rng, n_reg)
        got = apply_oracle(sv, inputs, flag, spec).amplitudes
        assert np.array_equal(got, reference_query(sv, inputs, flag, variant))
        assert spec.call_counter == 1


def stage_by_stage(gate, state, index_q, flag_q, noise):
    """The merge gate one register operation per stage."""
    for kind, payload in gate.stages:
        if kind == "unitary2q":
            state = apply_2q_unitary(state, index_q, flag_q, payload)
        elif kind == "flag_map":
            state = apply_conditional_nonlinear(
                state, flag_q, lambda rows, m=payload: m.apply_batch(rows, noise=noise))
        elif kind == "flag_unitary":
            state = apply_1q_unitary(state, flag_q, payload)
        elif kind == "index_unitary":
            state = apply_1q_unitary(state, index_q, payload)
        elif kind == "flag_phase":
            ang = payload if noise is None else noise.perturb(payload)
            state = apply_1q_unitary(state, flag_q, np.diag([np.exp(1j * ang), 1.0]))
        else:
            raise ValueError(kind)
    return state


@pytest.mark.parametrize("gate_kind", ["synthesized", "table"])
@pytest.mark.parametrize("index_q, flag_q", [(0, 4), (3, 4), (4, 1), (2, 0)])
def test_row_batched_sweep_matches_stage_by_stage(gate_kind, index_q, flag_q):
    gate = build_N(None, 1e-3) if gate_kind == "synthesized" else ideal_merge_gate()
    rng = make_rng(7 + index_q + 5 * flag_q)
    state = random_state(rng, 5)
    state.amplitudes[rng.random(32) < 0.25] = 0.0  # some empty branches
    state = StateVector(5, state.amplitudes / np.linalg.norm(state.amplitudes))
    noise_fast = NoiseModel(1e-3, make_rng(99))
    noise_ref = NoiseModel(1e-3, make_rng(99))
    for _ in range(3):
        # each sweep starts from the same state: the synthesized gate's phase
        # shear amplifies ulp-level differences by ~1e6 per chained sweep
        fast = gate.apply_to_register(state, index_q, flag_q, noise=noise_fast)
        state = stage_by_stage(gate, state, index_q, flag_q, noise_ref)
        assert np.allclose(fast.amplitudes, state.amplitudes, rtol=0, atol=1e-12)
    # the same number of jitter samples was drawn
    assert noise_fast.rng.bit_generator.state == noise_ref.rng.bit_generator.state


def test_sweep_on_a_pair_is_the_m_equals_one_case():
    gate = ideal_merge_gate()
    rng = make_rng(5)
    for _ in range(5):
        vec = random_state(rng, 2).amplitudes
        ref = stage_by_stage(gate, StateVector(2, vec), 0, 1, None).amplitudes
        assert np.allclose(gate.apply_to_pair(vec), ref, rtol=0, atol=1e-12)
