import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlqsim.statevector import (
    StateVector,
    apply_1q_unitary,
    apply_2q_unitary,
    collapse_onto_pattern,
    conditional_qubit_state,
    make_rng,
    measure_qubits,
    new_basis_state,
    probability_of_pattern,
)
from nlqsim.gates import H_GATE, rotation
from nlqsim.oracle import OracleSpec, TruthTableOracle, apply_oracle

SQ2 = math.sqrt(2.0)


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def haar_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_state_vector_refuses_bad_registers():
    with pytest.raises(ValueError, match="state norm\\^2 deviates from 1 by 2.000e-10"):
        StateVector(1, np.array([math.sqrt(1.0 + 2e-10), 0.0]))
    StateVector(1, np.array([math.sqrt(1.0 + 5e-11), 0.0]))  # within 1e-10
    with pytest.raises(ValueError, match="expected 4 amplitudes, got shape \\(3,\\)"):
        StateVector(2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="num_qubits must be >= 1, got 0"):
        StateVector(0, np.array([1.0]))


def test_new_basis_state_examples():
    assert np.allclose(new_basis_state(1, 0).amplitudes, [1, 0])
    sv = new_basis_state(3, 5)  # |101>
    assert sv.amplitudes[5] == 1.0
    assert np.sum(np.abs(sv.amplitudes)) == 1.0
    with pytest.raises(ValueError):
        new_basis_state(2, 4)


def test_hadamard_on_zero():
    sv = apply_1q_unitary(new_basis_state(1, 0), 0, H_GATE)
    assert np.allclose(sv.amplitudes, [1 / SQ2, 1 / SQ2])


def test_rotation_convention():
    phi = 0.37
    sv = apply_1q_unitary(new_basis_state(1, 0), 0, rotation(phi))
    assert np.allclose(sv.amplitudes, [math.cos(phi), -math.sin(phi)], atol=1e-15)
    sv1 = apply_1q_unitary(new_basis_state(1, 1), 0, rotation(phi))
    assert np.allclose(sv1.amplitudes, [math.sin(phi), math.cos(phi)], atol=1e-15)


def test_identity_leaves_state_unchanged():
    rng = make_rng(5)
    sv = random_state(rng, 3)
    out = apply_1q_unitary(sv, 1, np.eye(2))
    assert np.allclose(out.amplitudes, sv.amplitudes)


def test_non_unitary_rejected():
    sv = new_basis_state(1, 0)
    with pytest.raises(ValueError):
        apply_1q_unitary(sv, 0, np.array([[1, 0], [0, 2.0]]))
    with pytest.raises(ValueError):
        apply_2q_unitary(new_basis_state(2, 0), 0, 1, np.ones((4, 4)))


def test_2q_same_qubit_rejected():
    with pytest.raises(ValueError):
        apply_2q_unitary(new_basis_state(2, 0), 1, 1, np.eye(4))


# the fold matrix, written out independently of the gates module
FOLD = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=complex
) / SQ2


def test_fold_unitary_pair_cases():
    mirrored = StateVector(2, np.array([1, 0, 0, 1]) / SQ2)
    out = apply_2q_unitary(mirrored, 0, 1, FOLD)
    assert np.allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)

    anti = StateVector(2, np.array([0, 1, 1, 0]) / SQ2)
    out = apply_2q_unitary(anti, 0, 1, FOLD)
    assert np.allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-12)

    clear = StateVector(2, np.array([1, 0, 1, 0]) / SQ2)
    out = apply_2q_unitary(clear, 0, 1, FOLD)
    assert np.allclose(out.amplitudes, [0.5, 0.5, -0.5, 0.5], atol=1e-12)


def test_fold_matrix_is_unitary_tightly():
    assert np.allclose(FOLD @ FOLD.conj().T, np.eye(4), atol=1e-12)


def test_unitary_round_trip_100_random():
    rng = make_rng(11)
    for _ in range(100):
        sv = random_state(rng, 2)
        u = haar_unitary(rng, 2)
        back = apply_1q_unitary(apply_1q_unitary(sv, 1, u), 1, u.conj().T)
        assert np.allclose(back.amplitudes, sv.amplitudes, atol=1e-9)


def test_measure_basis_state_is_certain():
    rng = make_rng(0)
    record, post = measure_qubits(new_basis_state(3, 5), [0, 1, 2], rng)
    assert record.outcome_bits == 5
    assert record.outcome_probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post.amplitudes, new_basis_state(3, 5).amplitudes)


def _prepared_state(n, solutions):
    """Superpose, query, and undo the input rotations (pre-measurement)."""
    oracle = OracleSpec(TruthTableOracle(n, solutions))
    sv = new_basis_state(n + 1, 0)
    for q in range(n):
        sv = apply_1q_unitary(sv, q, H_GATE)
    sv = apply_oracle(sv, range(n), n, oracle)
    for q in range(n):
        sv = apply_1q_unitary(sv, q, H_GATE)
    return sv


def test_empty_oracle_premeasurement_is_zero_pattern():
    sv = _prepared_state(3, ())
    # f == 0 collapses the whole chain to the identity on |0...0>|0>
    assert probability_of_pattern(sv, [0, 1, 2], 0) == pytest.approx(1.0, abs=1e-12)
    rng = make_rng(1)
    record, _ = measure_qubits(sv, [0, 1, 2], rng)
    assert record.outcome_bits == 0


def test_single_solution_zero_pattern_probability():
    # closed form ((2^n - s)^2 + s^2) / 2^(2n) with n=3, s=1 gives 50/64
    sv = _prepared_state(3, (6,))
    p = probability_of_pattern(sv, [0, 1, 2], 0)
    assert p == pytest.approx(50 / 64, abs=1e-10)


def test_pattern_probability_three_solutions():
    # n=4, s=3: ((16-3)^2 + 3^2)/256 = 178/256
    sv = _prepared_state(4, (2, 7, 11))
    p = probability_of_pattern(sv, [0, 1, 2, 3], 0)
    assert p == pytest.approx(178 / 256, abs=1e-10)


def test_probability_of_pattern_simple():
    assert probability_of_pattern(new_basis_state(1, 0), [0], 0) == pytest.approx(1.0)
    plus = apply_1q_unitary(new_basis_state(1, 0), 0, H_GATE)
    assert probability_of_pattern(plus, [0], 1) == pytest.approx(0.5, abs=1e-12)


def test_born_consistency_seeded_sampling():
    rng = make_rng(2024)
    sv = random_state(rng, 3)
    n_samples = 100_000
    samples = np.array([measure_qubits(sv, [0, 2], rng)[0].outcome_bits
                        for _ in range(n_samples)])
    for bits in range(4):
        p = probability_of_pattern(sv, [0, 2], bits)
        freq = np.count_nonzero(samples == bits) / n_samples
        sigma = math.sqrt(p * (1 - p) / n_samples)
        assert abs(freq - p) <= 3 * sigma + 1e-12


def test_conditional_state_product():
    plus = apply_1q_unitary(new_basis_state(2, 0), 1, H_GATE)  # |0> x |+>
    weight, c0, c1 = conditional_qubit_state(plus, 1, 0)
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert c0 == pytest.approx(1 / SQ2)
    assert c1 == pytest.approx(1 / SQ2)


def test_conditional_state_of_an_empty_branch_is_zero():
    assert conditional_qubit_state(new_basis_state(2, 0), 1, 1) == (0.0, 0j, 0j)


def test_conditional_state_bell_branches():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / SQ2)
    w0, c0, c1 = conditional_qubit_state(bell, 1, 0)
    assert w0 == pytest.approx(0.5, abs=1e-12)
    assert (c0, c1) == (pytest.approx(1.0), pytest.approx(0.0))
    w1, c0, c1 = conditional_qubit_state(bell, 1, 1)
    assert w1 == pytest.approx(0.5, abs=1e-12)
    assert (c0, c1) == (pytest.approx(0.0), pytest.approx(1.0))


def test_conditional_reconstruction():
    rng = make_rng(7)
    sv = random_state(rng, 4)
    target = 2
    rebuilt = np.zeros(sv.dim, dtype=complex)
    n = sv.num_qubits
    others = [q for q in range(n) if q != target]
    for b in range(1 << (n - 1)):
        weight, c0, c1 = conditional_qubit_state(sv, target, b)
        base = 0
        for j, q in enumerate(others):
            base |= ((b >> (len(others) - 1 - j)) & 1) << (n - 1 - q)
        rebuilt[base] += math.sqrt(weight) * c0
        rebuilt[base | (1 << (n - 1 - target))] += math.sqrt(weight) * c1
    assert np.allclose(rebuilt, sv.amplitudes, atol=1e-10)


def test_collapse_onto_pattern_matches_probability():
    rng = make_rng(3)
    sv = random_state(rng, 3)
    p_direct = probability_of_pattern(sv, [0, 1], 2)
    prob, post = collapse_onto_pattern(sv, [0, 1], 2)
    assert prob == pytest.approx(p_direct, abs=1e-12)
    assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_collapse_onto_a_zero_probability_outcome_is_refused():
    with pytest.raises(ValueError, match="zero-probability"):
        collapse_onto_pattern(new_basis_state(2, 0), [0], 1)


def test_repeated_qubits_are_refused_by_every_pattern_call():
    sv = random_state(make_rng(5), 3)
    with pytest.raises(ValueError, match="distinct"):
        measure_qubits(sv, [0, 0], make_rng(0))
    with pytest.raises(ValueError, match="distinct"):
        probability_of_pattern(sv, [2, 1, 2], 0)
    with pytest.raises(ValueError, match="distinct"):
        collapse_onto_pattern(sv, [1, 1], 0)


@pytest.mark.parametrize("amps", [[math.nan, 0.0], [1.0, math.inf], [complex(0, math.nan), 1.0]])
def test_state_vector_refuses_non_finite_amplitudes(amps):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        StateVector(1, np.array(amps))


def test_gates_of_the_wrong_shape_are_refused():
    with pytest.raises(ValueError, match="expected 2x2 matrix, got \\(4, 4\\)"):
        apply_1q_unitary(new_basis_state(2, 0), 0, np.eye(4))
    with pytest.raises(ValueError, match="expected 4x4 matrix, got \\(2, 2\\)"):
        apply_2q_unitary(new_basis_state(2, 0), 0, 1, np.eye(2))


def test_an_empty_qubit_set_is_refused():
    sv = random_state(make_rng(6), 2)
    with pytest.raises(ValueError, match="empty qubit set"):
        probability_of_pattern(sv, [], 0)
    with pytest.raises(ValueError, match="empty qubit set"):
        measure_qubits(sv, [], make_rng(0))


@pytest.mark.parametrize("call", [
    lambda sv: probability_of_pattern(sv, [0, 2], 4),
    lambda sv: probability_of_pattern(sv, [1], -1),
    lambda sv: collapse_onto_pattern(sv, [1], 2),
    lambda sv: conditional_qubit_state(sv, 1, 4),
    lambda sv: conditional_qubit_state(sv, 0, -1),
])
def test_bit_patterns_out_of_range_are_refused(call):
    with pytest.raises(ValueError, match="out of range"):
        call(random_state(make_rng(7), 3))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_norm_preserved_under_random_circuits(seed):
    rng = make_rng(seed)
    sv = random_state(rng, 3)
    for _ in range(4):
        q = int(rng.integers(0, 3))
        sv = apply_1q_unitary(sv, q, haar_unitary(rng, 2))
    assert abs(np.sum(np.abs(sv.amplitudes) ** 2) - 1.0) <= 1e-10


def test_rng_determinism():
    a = make_rng(42).normal(size=5)
    b = make_rng(42).normal(size=5)
    assert np.array_equal(a, b)
