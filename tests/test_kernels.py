"""Differential tests: every fast path against a slow, obvious one.

The references below build dense matrices, apply H one qubit at a time,
lift branches through a boolean mask, measure by gathering the rows
twice, evaluate the oracle one input at a time, apply the merge gate
stage by stage, integrate on Python complex numbers and scan every point
of the phase-search grid, on the half-angle residual (bitwise) and on
the exp-form residual it replaced (to 1e-15); none of them shares code
with the strided kernels, the Walsh-Hadamard layer, the lift's fast
paths, the oracle table, the row-batched sweep, the real-arithmetic RK4
or the branch and bound.  The polar-angle maps, the merge-gate assembly
and the sandwich passes' phase searches are checked against the bodies
they replaced, kept here verbatim.
"""

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from nlqsim.algorithms import NoiseModel, _stretch_pair
from nlqsim.gates import (
    FOLD_UNITARY,
    H_GATE,
    PAIR_CASE_INPUTS,
    PAIR_CASE_TARGETS,
    X_GATE,
    CompositeNGate,
    ExpandTableMap,
    MergeTableMap,
    NonlinearMap,
    StretchMap,
    SynthesisError,
    _assemble_merge_gate,
    _pinning_unitary,
    build_N,
    build_n_minus,
    build_n_plus,
    ideal_merge_gate,
)
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
    apply_hadamard_layer,
    collapse_onto_pattern,
    make_rng,
    measure_qubits,
    probability_of_pattern,
)
from nlqsim import weinberg
from nlqsim.weinberg import (
    HbarFunction,
    PhaseAlignedHbar,
    PhaseAlignmentError,
    PhaseTargetSolution,
    apply_conditional_nonlinear,
    evolve_integrated,
    find_phase_time,
    lift_pairs,
    omega12,
    phase_aligned_hbar,
)


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


def hadamard_loop(state, qubits):
    """H one qubit at a time through the 2x2 kernel."""
    for q in qubits:
        state = apply_1q_unitary(state, q, H_GATE)
    return state


def max_abs_diff(a, b):
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hadamard_layer_matches_the_gate_loop_on_every_qubit_subset(n):
    # every subset: contiguous runs, gaps, spectators before, between and after
    rng = make_rng(300 + n)
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            sv = random_state(rng, n)
            want = hadamard_loop(sv, subset)
            assert max_abs_diff(apply_hadamard_layer(sv, subset), want) <= 1e-15
            assert max_abs_diff(apply_hadamard_layer(sv, subset[::-1]), want) <= 1e-15


def test_hadamard_layer_matches_the_gate_loop_in_the_alg1_shape():
    rng = make_rng(316)
    sv = random_state(rng, 17)  # inputs 0..15, flag 16
    got = apply_hadamard_layer(sv, range(16))
    assert max_abs_diff(got, hadamard_loop(sv, range(16))) <= 1e-15
    basis = StateVector(17, np.eye(1, 1 << 17, 0, dtype=complex)[0])
    uniform = apply_hadamard_layer(basis, range(16))
    assert max_abs_diff(uniform, hadamard_loop(basis, range(16))) <= 1e-15


@pytest.mark.parametrize("n, qubits", [
    (3, (1,)), (6, range(6)), (7, (0, 2, 3, 6)), (9, (1, 2, 3, 4, 5, 6, 7)), (12, range(11)),
])
def test_hadamard_layer_twice_is_the_identity(n, qubits):
    sv = random_state(make_rng(320 + n), n)
    twice = apply_hadamard_layer(apply_hadamard_layer(sv, qubits), qubits)
    assert max_abs_diff(twice, sv) <= 1e-15


@pytest.mark.parametrize("qubits", [(0, 0), (1, 2, 1), (4,), (0, 5), (-1,)])
def test_hadamard_layer_rejects_duplicate_or_out_of_range_qubits(qubits):
    with pytest.raises(ValueError):
        apply_hadamard_layer(random_state(make_rng(330), 4), qubits)


def test_hadamard_layer_returns_a_new_state():
    sv = random_state(make_rng(331), 3)
    before = sv.amplitudes.copy()
    for qubits in ((), (0, 1, 2)):
        out = apply_hadamard_layer(sv, qubits)
        out.amplitudes[0] = 0.0
        assert np.array_equal(sv.amplitudes, before)


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


# -- branch lift: fast paths against the boolean-mask gather and scatter -----

def call_map(nl_map, normalized):
    if hasattr(nl_map, "apply_batch"):
        return nl_map.apply_batch(normalized)
    return nl_map(normalized)


def boolean_mask_lift(pairs, nl_map):
    """The lift with a pairs[mask] gather and scatter for every call."""
    probs = np.abs(pairs) ** 2
    weights = probs[:, 0] + probs[:, 1]
    mask = weights >= 1e-14
    if np.any(mask):
        scale = np.sqrt(weights[mask])[:, None]
        mapped = call_map(nl_map, pairs[mask] / scale)
        pairs[mask] = np.asarray(mapped, dtype=np.complex128) * scale
    return pairs


def lift_case(kind, rng, m=64):
    pairs = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    pairs *= rng.uniform(0.01, 1.0, size=(m, 1)) / np.linalg.norm(pairs, axis=1, keepdims=True)
    if kind == "half-zero":
        pairs[::2] = 0.0
    elif kind == "none-mapped":
        pairs *= 1e-9  # weights at most 1e-18
        pairs[::3] = 0.0
    elif kind in ("just-above", "straddle"):
        target = np.full(m, 1e-14 * (1 + 1e-9))
        if kind == "straddle":
            target[1::2] = 1e-14 * (1 - 1e-9)
        pairs *= np.sqrt(target / np.sum(np.abs(pairs) ** 2, axis=1))[:, None]
    return pairs


LIFT_U = haar_unitary(make_rng(340), 2)
LIFT_MAPS = {
    "merge-table": MergeTableMap(),
    "expand-table": ExpandTableMap(zeta=0.3),
    "stretch": StretchMap(),
    "callable": lambda p: p @ LIFT_U.T,
}


@pytest.mark.parametrize("kind", ["all-mapped", "half-zero", "none-mapped", "just-above", "straddle"])
@pytest.mark.parametrize("map_name", sorted(LIFT_MAPS))
def test_lift_pairs_is_bitwise_the_boolean_mask_lift(kind, map_name):
    rng = make_rng(341)
    pairs = lift_case(kind, rng)
    weights = np.sum(np.abs(pairs) ** 2, axis=1)
    expected_mapped = {"all-mapped": 64, "half-zero": 32, "none-mapped": 0,
                       "just-above": 64, "straddle": 32}[kind]
    assert np.count_nonzero(weights >= 1e-14) == expected_mapped
    calls = {"fast": [], "ref": []}

    def recording(tag):
        nl_map = LIFT_MAPS[map_name]

        def call(normalized):
            calls[tag].append(normalized.shape)
            return call_map(nl_map, normalized)
        return call

    fast_in, ref_in = pairs.copy(), pairs.copy()
    fast = lift_pairs(fast_in, recording("fast"))
    ref = boolean_mask_lift(ref_in, recording("ref"))
    assert fast is fast_in and ref is ref_in
    assert fast.tobytes() == ref.tobytes()
    assert calls["fast"] == calls["ref"]
    if expected_mapped < 64:
        unmapped = weights < 1e-14
        assert fast[unmapped].tobytes() == pairs[unmapped].tobytes()
    # the map objects themselves, not wrapped: the apply_batch route
    fast = lift_pairs(pairs.copy(), LIFT_MAPS[map_name])
    assert fast.tobytes() == boolean_mask_lift(pairs.copy(), LIFT_MAPS[map_name]).tobytes()


def test_lift_pairs_writes_through_a_row_view():
    rng = make_rng(342)
    rows = lift_case("half-zero", rng, m=16).reshape(-1, 4)
    want = boolean_mask_lift(rows.copy().reshape(-1, 2), StretchMap())
    lift_pairs(rows.reshape(-1, 2), StretchMap())
    assert rows.reshape(-1, 2).tobytes() == want.tobytes()


def test_stretch_pair_is_bitwise_the_one_qubit_register_lift():
    rng = make_rng(343)
    noise = NoiseModel(1e-3, make_rng(344))
    pairs = [(1 + 0j, 0j), (0j, 1 + 0j), (0j, -1j)]
    pairs += [tuple(random_state(rng, 1).amplitudes) for _ in range(40)]
    for pair in pairs:
        for m in (StretchMap(), StretchMap().jittered(noise)):
            sv = apply_conditional_nonlinear(StateVector(1, np.array(pair)), 0, m)
            want = (complex(sv.amplitudes[0]), complex(sv.amplitudes[1]))
            got = _stretch_pair(pair, m)
            assert all(type(c) is complex for c in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n, qs", [(1, [0]), (4, [0, 1, 2]), (5, [4, 1]), (6, [2]), (7, range(7))])
def test_measure_qubits_is_bitwise_the_two_gather_measurement(n, qs):
    rng = make_rng(350 + n)
    for _ in range(6):
        sv = random_state(rng, n)
        ref_rng, fast_rng = make_rng(n), make_rng(n)
        probs = np.array([probability_of_pattern(sv, qs, b) for b in range(1 << len(qs))])
        outcome = int(ref_rng.choice(len(probs), p=probs / probs.sum()))
        prob, post = collapse_onto_pattern(sv, qs, outcome)
        record, fast_post = measure_qubits(sv, qs, fast_rng)
        assert record.measured_qubits == tuple(sorted(qs))
        assert record.outcome_bits == outcome
        assert record.outcome_probability == prob
        assert fast_post.amplitudes.tobytes() == post.amplitudes.tobytes()
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


# -- RK4 integrator: real-arithmetic steps against complex arithmetic --------

def complex_rk4(c1, c2, h, t, dt):
    """The integrator written on Python complex numbers, Horner inline."""
    coefs = h.coefficients

    def rhs(y1, y2):
        n = (y1.real**2 + y1.imag**2) + (y2.real**2 + y2.imag**2)
        a = (y2.real**2 + y2.imag**2) / n
        hb = coefs[-1]
        for c in reversed(coefs[:-1]):
            hb = hb * a + c
        hp = 0.0
        if len(coefs) > 1:
            hp = (len(coefs) - 1) * coefs[-1]
            for k in range(len(coefs) - 2, 0, -1):
                hp = hp * a + k * coefs[k]
        d1 = hb * y1 + n * hp * (-(a / n) * y1)
        d2 = hb * y2 + n * hp * ((1.0 - a) / n * y2)
        return -1j * d1, -1j * d2

    def step(y1, y2, hs):
        k1a, k1b = rhs(y1, y2)
        k2a, k2b = rhs(y1 + 0.5 * hs * k1a, y2 + 0.5 * hs * k1b)
        k3a, k3b = rhs(y1 + 0.5 * hs * k2a, y2 + 0.5 * hs * k2b)
        k4a, k4b = rhs(y1 + hs * k3a, y2 + hs * k3b)
        return (y1 + hs / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a),
                y2 + hs / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b))

    y1, y2 = complex(c1), complex(c2)
    nsteps = int(t / dt)
    for _ in range(nsteps):
        y1, y2 = step(y1, y2, dt)
    if t - nsteps * dt > 1e-15:
        y1, y2 = step(y1, y2, t - nsteps * dt)
    return y1, y2


def bits(y1, y2):
    """Every float of a result as hex, so a signed zero counts."""
    return [float.hex(x) for x in (y1.real, y1.imag, y2.real, y2.imag)]


def random_pair(rng):
    z = rng.normal(size=4)
    z /= np.linalg.norm(z)
    return complex(z[0], z[1]), complex(z[2], z[3])


@pytest.mark.parametrize("coefs", [(0.0, 0.0, 1.0), (0.25, -0.5, 0.3, 0.8), (0.5, 1.5)])
def test_rk4_bitwise_equals_complex_form_on_dynamics_profiles(coefs):
    # 10k steps: a square written as x*x instead of x**2 shows up only in
    # long runs
    h = HbarFunction(coefs)
    c1, c2 = random_pair(make_rng(len(coefs)))
    assert bits(*evolve_integrated(c1, c2, h, 10.0, 1e-3)) == bits(*complex_rk4(c1, c2, h, 10.0, 1e-3))


@pytest.mark.parametrize("w, z", [(math.sin(math.pi / 8) ** 2, math.cos(math.pi / 8) ** 2),
                                  (0.3, 0.7), (0.7, 0.3), (0.05, 0.5)])
def test_rk4_bitwise_equals_complex_form_on_phase_aligned_profiles(w, z):
    h = phase_aligned_hbar(w, z)
    rng = make_rng(int(1000 * w))
    for c1, c2 in [random_pair(rng), (math.sqrt(1 - w), math.sqrt(w))]:
        assert bits(*evolve_integrated(c1, c2, h, 1.5, 1e-3)) == bits(*complex_rk4(c1, c2, h, 1.5, 1e-3))


@pytest.mark.parametrize("c", [-1.5, 0.0, 2.0])
def test_rk4_bitwise_equals_complex_form_on_constant_profiles(c):
    h = HbarFunction((c,))
    assert h.value_and_derivative(0.3)[1].hex() == "0x0.0p+0"  # 0.0, not 0 * c
    for c1, c2 in [random_pair(make_rng(5)), (0.6, 0.8), (0.6j, 0.8)]:
        assert bits(*evolve_integrated(c1, c2, h, 0.5, 1e-3)) == bits(*complex_rk4(c1, c2, h, 0.5, 1e-3))


# -- profile evaluation: one Horner evaluator against numpy's polynomials --

def reference_value_and_derivative(h, a):
    """npoly.polyval and polyder for a plain profile; the factored form
    (a - z)**2 * q(a) for a phase-aligned one."""
    a = np.asarray(a, dtype=float)
    if isinstance(h, PhaseAlignedHbar):
        az = a - h.z
        q = h.q_at_w + (a - h.w) * h.q_slope
        return az**2 * q, 2.0 * az * q + az**2 * h.q_slope
    return npoly.polyval(a, h.coefficients), npoly.polyval(a, npoly.polyder(h.coefficients))


def test_profile_evaluator_equals_numpy_polynomials_bitwise():
    rng = make_rng(606)
    profiles = [HbarFunction(tuple(rng.normal(size=int(rng.integers(1, 8)))))
                for _ in range(2000)]
    profiles += [phase_aligned_hbar(*rng.uniform(0.0, 1.0, size=2)) for _ in range(500)]
    for h in profiles:
        a = rng.uniform(0.0, 1.0, size=64)
        got, want = h.value_and_derivative(a), reference_value_and_derivative(h, a)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert h.value(a).tobytes() == got[0].tobytes()
        assert h.derivative(a).tobytes() == got[1].tobytes()
        for i in range(3):  # the float path, as the integrator calls it
            assert h.value_and_derivative(float(a[i])) == (got[0][i], got[1][i])


def test_constant_profile_evaluates_to_arrays_on_arrays():
    h = HbarFunction((1.5,))
    a = np.linspace(0.0, 1.0, 5)
    value, slope = h.value_and_derivative(a)
    assert value.shape == slope.shape == a.shape
    assert np.all(value == 1.5) and not np.any(slope)
    assert h.derivative(0.3) == 0.0 and h.value(0.3) == 1.5


@pytest.mark.parametrize("c1, c2", [(0.0, 0.6 + 0.8j), (0.6 - 0.8j, 0.0), (0.0j, 1.0), (0.8, 0.6j)])
def test_rk4_bitwise_equals_complex_form_with_zero_parts_and_a_remainder_step(c1, c2):
    for coefs in [(0.0, 0.0, 1.0), (0.3, -1.2), (-0.7,), (0.1, -0.4, 0.3, 0.2)]:
        h = HbarFunction(coefs)
        for t, dt in [(0.5037, 1e-3), (0.0004, 1e-3), (0.0, 1e-3)]:
            assert bits(*evolve_integrated(c1, c2, h, t, dt)) == bits(*complex_rk4(c1, c2, h, t, dt))


def test_rk4_bitwise_equals_complex_form_on_random_profiles_pairs_and_remainders():
    rng = make_rng(1313)
    for case in range(60):
        if case % 6 == 5:
            h = phase_aligned_hbar(*rng.uniform(0.05, 0.95, size=2))
        else:
            h = HbarFunction(tuple(rng.normal(size=int(rng.integers(1, 8)))))
        parts = rng.normal(size=4) * 10.0 ** rng.uniform(-2.0, 2.0)
        parts[rng.permutation(4)[:int(rng.integers(0, 4))]] = 0.0  # up to three zero parts
        c1, c2 = complex(parts[0], parts[1]), complex(parts[2], parts[3])
        dt = 10.0 ** rng.uniform(-4.0, -2.0)
        t = dt * (int(rng.integers(0, 300)) + rng.uniform(0.1, 0.9))
        assert t - int(t / dt) * dt > 1e-15  # a remainder step is taken
        assert bits(*evolve_integrated(c1, c2, h, t, dt)) == bits(*complex_rk4(c1, c2, h, t, dt))


# -- phase-time search: branch and bound against the dense scan ------------

def exp_residual(w1u, w2u, w1v, w2v):
    """The residual in its exp form, |exp(-i w t) -+ 1| through complex
    numpy exp, as find_phase_time evaluated it before its half-angle form."""

    def residual(t):
        t = np.asarray(t, dtype=float)
        r = np.abs(np.exp(-1j * w1u * t) - 1.0)
        r = np.maximum(r, np.abs(np.exp(-1j * w2u * t) + 1.0))
        r = np.maximum(r, np.abs(np.exp(-1j * w1v * t) - 1.0))
        return np.maximum(r, np.abs(np.exp(-1j * w2v * t) - 1.0))

    return residual


def half_angle_residual(w1u, w2u, w1v, w2v):
    """2 max(|sin(w1u t/2)|, |cos(w2u t/2)|, |sin(w1v t/2)|, |sin(w2v t/2)|),
    numpy on floats and arrays alike, without in-place buffers."""
    h1u, h2u, h1v, h2v = 0.5 * w1u, 0.5 * w2u, 0.5 * w1v, 0.5 * w2v

    def residual(t):
        t = np.asarray(t, dtype=float)
        r = np.maximum(np.abs(np.sin(h1u * t)), np.abs(np.cos(h2u * t)))
        r = np.maximum(r, np.abs(np.sin(h1v * t)))
        return 2.0 * np.maximum(r, np.abs(np.sin(h2v * t)))

    return residual


def dense_phase_search(h, phi, eps, t_max, form=half_angle_residual):
    """find_phase_time with every grid point evaluated (same grid, same
    tie rule, same golden-section refinement), on the residual `form`."""
    u, v = math.sin(phi) ** 2, math.cos(phi) ** 2
    w1u, w2u = omega12(h, u)
    w1v, w2v = omega12(h, v)
    residual = form(w1u, w2u, w1v, w2v)

    def solution(t):
        return PhaseTargetSolution(float(t), float(residual(t)), float(phi))

    if float(residual(0.0)) <= eps:
        return solution(0.0)
    best_t, best_r = 0.0, float(residual(0.0))
    if w2u != 0.0:
        t_c = math.pi / abs(w2u)
        if t_c <= t_max and float(residual(t_c)) <= eps:
            return solution(t_c)
        if t_c <= t_max and float(residual(t_c)) < best_r:
            best_t, best_r = t_c, float(residual(t_c))
    omega_span = max(abs(w1u), abs(w2u), abs(w1v), abs(w2v))
    if omega_span == 0.0:
        raise PhaseAlignmentError(t_max, best_r)
    step = eps / (10.0 * omega_span)
    npoints = int(t_max / step) + 1
    if npoints > weinberg.GRID_POINT_CAP:
        step = t_max / weinberg.GRID_POINT_CAP
        npoints = weinberg.GRID_POINT_CAP + 1
    for start in range(0, npoints, 1 << 20):
        ts = (start + np.arange(min(1 << 20, npoints - start))) * step
        rs = residual(ts)
        i = int(np.argmin(rs))
        if rs[i] < best_r:
            best_r, best_t = float(rs[i]), float(ts[i])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = max(0.0, best_t - step), min(t_max, best_t + step)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = float(residual(c)), float(residual(d))
    for _ in range(200):
        if b - a < 1e-15 * max(1.0, b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(residual(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(residual(d))
    t_ref = c if fc < fd else d
    if float(residual(t_ref)) < best_r:
        best_t, best_r = float(t_ref), float(residual(t_ref))
    if best_r <= eps:
        return solution(best_t)
    raise PhaseAlignmentError(t_max, best_r)


def search_outcome(search, *args):
    try:
        sol = search(*args)
    except PhaseAlignmentError as exc:
        return ("no solution", exc.best_residual.hex(), str(exc))
    return ("solution", sol.t_star.hex(), sol.residual.hex())


def assert_search_matches_dense_scan(h, phi, eps, t_max):
    want = search_outcome(dense_phase_search, h, phi, eps, t_max)
    assert search_outcome(find_phase_time, h, phi, eps, t_max) == want
    return want[0]


def assert_search_agrees_with_exp_form(h, phi, eps, t_max):
    """Same kind, t_star and message as the exp-form dense scan, and the best
    residual within 1e-15: the two forms round differently (the exp form
    computes cos(x) - 1 with cancellation), so bits may differ."""
    def outcome(search, *form):
        try:
            sol = search(h, phi, eps, t_max, *form)
        except PhaseAlignmentError as exc:
            return "no solution", None, str(exc), exc.best_residual
        return "solution", sol.t_star, None, sol.residual

    want = outcome(dense_phase_search, exp_residual)
    got = outcome(find_phase_time)
    assert got[:3] == want[:3]
    assert abs(got[3] - want[3]) <= 1e-15
    return got[0]


def no_solution_cubic(eps, rng):
    """Cubic with hbar'(u) = 0 at the contraction latitude u of `ngate-verify
    --eps eps`: there w1(u) = w2(u), so no time aligns the phases.  Scaled to
    a largest operating frequency of 0.5, as the synth benchmark draws them."""
    u = math.sin((math.pi - min(math.sqrt(eps) / 2.0, 0.5)) / 4.0) ** 2
    c0 = float(rng.uniform(0.2, 1.0)) * (1 if rng.integers(0, 2) else -1)
    c2, c3 = (float(x) for x in rng.uniform(-1.0, 1.0, size=2))
    h = HbarFunction((c0, -(2.0 * c2 * u + 3.0 * c3 * u * u), c2, c3))
    span = max(abs(w) for a in (u, 1.0 - u) for w in omega12(h, a))
    return HbarFunction(tuple(c * 0.5 / span for c in h.coefficients))


def contraction_search(eps, h=None):
    """The phase search of `ngate-verify --eps eps`'s contraction pass: its
    rotation angle, profile (phase-aligned when h is None) and tolerance."""
    offset = min(math.sqrt(eps) / 2.0, 0.5)
    phi = (math.pi - offset) / 4.0
    if h is None:
        h = phase_aligned_hbar(math.sin(phi) ** 2, math.cos(phi) ** 2)
    return h, phi, max(offset / 10.0, 1e-12)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_phase_search_matches_dense_scan_on_no_solution_cubics(seed):
    rng = make_rng(seed)
    eps = 10.0 ** -(1.0 + rng.uniform())
    h, phi, search_eps = contraction_search(eps, no_solution_cubic(eps, rng))
    assert assert_search_matches_dense_scan(h, phi, search_eps, 2000.0) == "no solution"
    assert assert_search_agrees_with_exp_form(h, phi, search_eps, 2000.0) == "no solution"


@pytest.mark.parametrize("coefs, eps, t_max, kind", [
    ((0.0, 0.0, 1.0), 1e-2, 500.0, "no solution"),
    ((0.0, 0.0, 1.0), 0.3, 2000.0, "no solution"),
    ((0.3, -0.7, 1.1, 0.4), 0.5, 2000.0, "solution"),
    ((0.3, -0.7, 1.1, 0.4), 0.05, 2000.0, "no solution"),
    ((0.1, -0.4, 0.3, 0.2), 1e-3, 300.0, "no solution"),
])
def test_phase_search_matches_dense_scan(coefs, eps, t_max, kind):
    assert assert_search_matches_dense_scan(HbarFunction(coefs), math.pi / 8, eps, t_max) == kind


# -- the half-angle residual against the exp form it replaced ---------------

def test_phase_search_agrees_with_the_exp_form_on_benchmark_draws():
    # ngate-verify's draws, as the synth benchmark makes them: no-solution
    # cubics at eps 10^-(1..2) and aligned profiles at eps 10^-(3..9), plus
    # generic profiles.  The cubics and generic profiles get horizons of
    # 100-300, not 2000, so that the exp-form dense scan stays cheap.
    rng = make_rng(4242)
    kinds = []
    for case in range(40):
        if case % 5 < 3:
            eps = 10.0 ** -(1.0 + rng.uniform())
            h, phi, search_eps = contraction_search(eps, no_solution_cubic(eps, rng))
            t_max = float(rng.uniform(100.0, 300.0))
        elif case % 5 == 3:
            h, phi, search_eps = contraction_search(10.0 ** -(3.0 + 6.0 * rng.uniform()))
            t_max = 4.0 * math.pi / h.omega0
        else:
            h = HbarFunction(tuple(rng.normal(size=int(rng.integers(2, 5)))))
            phi = float(rng.uniform(0.05, math.pi / 4 - 0.05))
            search_eps = 10.0 ** float(rng.uniform(-1.5, -0.3))
            t_max = float(rng.uniform(100.0, 300.0))
        kinds.append(assert_search_agrees_with_exp_form(h, phi, search_eps, t_max))
    assert kinds.count("solution") >= 8 and kinds.count("no solution") >= 24


def test_half_angle_residual_agrees_with_the_exp_form_at_zero_and_at_each_term_zero():
    rng = make_rng(77)
    a = float(rng.uniform(0.1, 2.0))
    for w, commensurate in [(tuple(rng.normal(size=4)), False), ((0.5, 0.5, 0.2, -0.3), False),
                            ((0.0, 1.3, 0.0, 0.7), False), ((2.0 * a, a, 4.0 * a, 0.0), True)]:
        # |exp(-i w t) - 1| vanishes at |w| t = 2 pi k, |exp(-i w t) + 1| at 2 pi k + pi
        shifts = (0.0, math.pi, 0.0, 0.0)
        zeros = [(2.0 * math.pi * k + shift) / abs(wk) for wk, shift in zip(w, shifts) if wk
                 for k in range(int(300.0 * abs(wk) / (2.0 * math.pi)) + 1)]
        ts = np.concatenate([[0.0], zeros, np.linspace(0.0, 300.0, 3001)])
        got = weinberg._phase_residual(tuple(0.5 * wk for wk in w), ts)
        assert np.max(np.abs(got - exp_residual(*w)(ts))) <= 1e-15
        if commensurate:  # every term vanishes at t = (2k + 1) pi / a
            assert np.min(got) < 1e-13


def test_phase_residual_float_path_is_bitwise_its_array_path():
    rng = make_rng(78)
    for _ in range(10):
        halves = tuple(float(x) for x in 0.5 * rng.normal(size=4) * 10.0 ** rng.uniform(-3.0, 1.0))
        ts = np.concatenate([[0.0], rng.uniform(0.0, 2000.0, size=999)])
        array = weinberg._phase_residual(halves, ts)
        floats = [weinberg._phase_residual(halves, float(t)) for t in ts]
        assert all(type(r) is float for r in floats)
        assert np.array_equal(array.view(np.uint64), np.array(floats).view(np.uint64))


@dataclass(frozen=True)
class TwoLevelHbar(HbarFunction):
    """Flat at each latitude: w1 = w2 = c below a = 1/2 and 2c above."""

    def value_and_derivative(self, a):
        return self.coefficients[0] * (1.0 if a < 0.5 else 2.0), 0.0


def test_phase_search_keeps_the_first_of_two_equal_grid_minima():
    # Frequencies (1, 1, 2, 2), half-frequencies (1/2, 1/2, 1, 1): t_2i is
    # 2 t_i exactly, so |sin(t_2i / 2)| at index 2i is |sin t_i| bit for
    # bit.  Just past phase pi/3 the residual at i and at 2i is that same
    # 2|sin t_i|, the grid minimum.  The solvable case refines the first
    # one, next to pi/3; the second would refine to 2 pi/3.
    h, phi, t_max = TwoLevelHbar((1.0,)), math.pi / 8, 2.5
    assert omega12(h, math.sin(phi) ** 2) == (1.0, 1.0)
    assert omega12(h, math.cos(phi) ** 2) == (2.0, 2.0)
    for eps, ties, kind in [(0.05, [419, 838], "no solution"), (1.75, [12, 24], "solution")]:
        step = eps / 20.0  # eps / (10 * largest frequency)
        r = weinberg._phase_residual((0.5, 0.5, 1.0, 1.0), np.arange(int(t_max / step) + 1) * step)
        assert list(np.flatnonzero(r == r.min())) == ties
        assert assert_search_matches_dense_scan(h, phi, eps, t_max) == kind
    assert abs(find_phase_time(h, phi, 1.75, t_max).t_star - math.pi / 3) < 1e-9


def test_phase_search_matches_dense_scan_on_a_capped_grid(monkeypatch):
    monkeypatch.setattr(weinberg, "GRID_POINT_CAP", 50_000)
    h = HbarFunction((0.3, -0.7, 1.1, 0.4))
    for eps, kind in [(1e-3, "no solution"), (0.5, "solution")]:
        assert assert_search_matches_dense_scan(h, math.pi / 8, eps, 2000.0) == kind


# -- polar-angle maps and merge-gate assembly: against the bodies they replaced

def stretch_apply_batch_before(self, pairs, noise=None):
    pairs = np.asarray(pairs, dtype=np.complex128)
    mag0, mag1 = np.abs(pairs[:, 0]), np.abs(pairs[:, 1])
    theta = 2.0 * np.arctan2(mag1, mag0)
    theta_new = self.polar_map(theta)
    phase0 = np.where(mag0 > 0, pairs[:, 0] / np.where(mag0 > 0, mag0, 1.0), 1.0)
    phase1 = np.where(mag1 > 0, pairs[:, 1] / np.where(mag1 > 0, mag1, 1.0), 1.0)
    out = np.empty_like(pairs)
    out[:, 0] = np.cos(theta_new / 2.0) * phase0
    out[:, 1] = np.sin(theta_new / 2.0) * phase1
    return out


def merge_apply_batch_before(self, pairs, noise=None):
    pairs = np.asarray(pairs, dtype=np.complex128)
    norms = np.sqrt(np.sum(np.abs(pairs) ** 2, axis=1))
    use_upper = np.abs(pairs[:, 1]) >= np.abs(pairs[:, 0]) - 0.5 * norms
    carrier = np.where(use_upper, pairs[:, 1], pairs[:, 0])
    mags = np.abs(carrier)
    phases = np.where(mags > 0, carrier / np.where(mags > 0, mags, 1.0), 1.0)
    out = np.zeros_like(pairs)
    out[:, 0] = phases * norms
    return out


def expand_apply_batch_before(self, pairs, noise=None):
    out = np.array(pairs, dtype=np.complex128, copy=True)
    out[:, 1] *= np.exp(1j * self.zeta)
    mag0, mag1 = np.abs(out[:, 0]), np.abs(out[:, 1])
    theta = np.minimum(2.0 * (2.0 * np.arctan2(mag1, mag0)), math.pi)
    norms = np.sqrt(mag0**2 + mag1**2)
    phase0 = np.where(mag0 > 0, out[:, 0] / np.where(mag0 > 0, mag0, 1.0), 1.0)
    phase1 = np.where(mag1 > 0, out[:, 1] / np.where(mag1 > 0, mag1, 1.0), 1.0)
    out[:, 0] = norms * np.cos(theta / 2.0) * phase0
    out[:, 1] = norms * np.sin(theta / 2.0) * phase1
    out[theta == math.pi, 0] = 0.0  # the clamped image is exactly |1>
    return out


POLAR_MAPS = [
    (StretchMap(), stretch_apply_batch_before),
    (StretchMap(theta0=1.2, eta=0.5, lam=0.9), stretch_apply_batch_before),
    (MergeTableMap(), merge_apply_batch_before),
    (ExpandTableMap(), expand_apply_batch_before),
    (ExpandTableMap(zeta=0.7), expand_apply_batch_before),
    (ExpandTableMap(zeta=-2.1), expand_apply_batch_before),
]


def polar_map_rows(rng):
    """Zero components, signed zeros, poles, tiny and unnormalized rows."""
    special = np.array([
        [0, 0], [1, 0], [0, 1], [-1, 0], [0, -1j], [3, 0], [0, 0.25j],
        [complex(-0.0, 0.0), 0.6], [0.8, complex(0.0, -0.0)],
        [complex(-0.0, -0.0), complex(-0.0, -0.0)], [complex(-0.6, -0.0), complex(-0.0, 0.8)],
        [0.6, 0.8], [0.8, 0.6], [1e-160, 1e-160j], [2.5 - 1j, -4j],
    ], dtype=np.complex128)
    rand = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
    rand *= rng.uniform(0.05, 20.0, size=(64, 1))
    return np.concatenate([special, rand])


@pytest.mark.parametrize("index", range(len(POLAR_MAPS)))
def test_polar_maps_are_bitwise_their_pre_refactor_bodies(index):
    nl_map, before = POLAR_MAPS[index]
    rows = polar_map_rows(make_rng(360 + index))
    mags = np.abs(rows)
    # rows past the equator: the expansion table clamps them at pi
    assert np.any(4.0 * np.arctan2(mags[:, 1], mags[:, 0]) > math.pi)
    assert nl_map.apply_batch(rows.copy()).tobytes() == before(nl_map, rows.copy()).tobytes()
    if isinstance(nl_map, StretchMap):
        return  # no single-pair form
    for c1, c2 in rows[:20]:
        got = nl_map.apply(c1, c2)
        want = before(nl_map, np.array([[c1, c2]]))[0]
        assert np.array(got).tobytes() == want.tobytes()


def test_traced_gate_names_stay_where_bench_tracer_wraps_them():
    from nlqsim import gates

    for name in ("build_N", "build_n_minus", "build_n_plus", "ideal_merge_gate"):
        assert callable(vars(gates)[name])
    for cls in (NonlinearMap, StretchMap, MergeTableMap, ExpandTableMap):
        assert "apply_batch" in cls.__dict__  # defined in the class body, not inherited


def ideal_merge_gate_before(eps=1e-9):
    n_minus = MergeTableMap()
    leftover = CompositeNGate([("unitary2q", FOLD_UNITARY), ("flag_map", n_minus)],
                              eps).apply_to_pair(PAIR_CASE_INPUTS[2])
    correct = _pinning_unitary(leftover)
    pinned = correct @ leftover
    x, y = complex(pinned[0]), complex(pinned[1])
    zeta = float(np.angle(x) - np.angle(y)) if abs(y) > 0 else 0.0
    n_plus = ExpandTableMap(zeta=zeta)

    stages = [
        ("unitary2q", FOLD_UNITARY),
        ("flag_map", n_minus),
        ("unitary2q", correct),
        ("flag_map", n_plus),
        ("flag_unitary", X_GATE),
        ("index_unitary", H_GATE),
    ]
    partial = CompositeNGate(stages=stages, tolerance=eps)
    out_c = partial.apply_to_pair(PAIR_CASE_INPUTS[2])
    mu = float(np.angle(np.vdot(PAIR_CASE_TARGETS[2], out_c)))
    stages = stages + [("flag_phase", -mu)]

    gate = CompositeNGate(stages=stages, tolerance=eps,
                          notes=("explicit pair-action tables",))
    fids = []
    for case_in, case_target in zip(PAIR_CASE_INPUTS, PAIR_CASE_TARGETS):
        out = gate.apply_to_pair(case_in)
        fids.append(float(abs(np.vdot(case_target, out)) ** 2))
    gate.case_fidelities = tuple(fids)
    if gate.fidelity < 1.0 - eps:
        raise SynthesisError(
            "table merge gate fidelities "
            + ", ".join(f"{f:.15f}" for f in fids)
            + f" fall below 1 - eps = {1.0 - eps:.15f}"
        )
    return gate


def build_N_before(h, eps):
    budget = math.sqrt(eps)
    n_minus = build_n_minus(h, budget)
    leftover = CompositeNGate([("unitary2q", FOLD_UNITARY), ("flag_map", n_minus)],
                              eps).apply_to_pair(PAIR_CASE_INPUTS[2])
    correct = _pinning_unitary(leftover)
    pinned = correct @ leftover
    stray = math.hypot(abs(pinned[2]), abs(pinned[3]))
    notes = []
    if stray > 1e-9:
        notes.append(f"pinning left {stray:.3g} outside the flag axis")
    n_plus = build_n_plus(complex(pinned[0]), complex(pinned[1]), budget / 2.0)

    stages = [
        ("unitary2q", FOLD_UNITARY),
        ("flag_map", n_minus),
        ("unitary2q", correct),
        ("flag_map", n_plus),
        ("flag_unitary", X_GATE),
        ("index_unitary", H_GATE),
    ]
    partial = CompositeNGate(stages=stages, tolerance=eps)
    out_c = partial.apply_to_pair(PAIR_CASE_INPUTS[2])
    mu = float(np.angle(np.vdot(PAIR_CASE_TARGETS[2], out_c)))
    stages = stages + [("flag_phase", -mu)]

    gate = CompositeNGate(stages=stages, tolerance=eps,
                          notes=tuple(notes))
    fids = []
    for case_in, case_target in zip(PAIR_CASE_INPUTS, PAIR_CASE_TARGETS):
        out = gate.apply_to_pair(case_in)
        fids.append(float(abs(np.vdot(case_target, out)) ** 2))
    gate.case_fidelities = tuple(fids)
    return gate


def audit_json(gate):
    """The audit with every float in repr form, so -0.0 and the last ulp count."""
    return json.dumps(gate.audit(), sort_keys=True)


# Recorded from ideal_merge_gate before its assembly was shared with build_N;
# the audits differ only in their tolerance field.
TABLE_GATE_FIDELITIES = (0.9999999999999993, 0.9999999999999993, 0.9999999999999991)
TABLE_GATE_AUDIT_SHA256 = {
    1e-9: "2bb81608d45ed4618c9e8f62ef7050a4839126914b8d00cf7d2ffe404f0e2cfb",
    1e-6: "1af5bd4a6bf9db00dc597d414d230f410e4e121117f8a151ac2446e5a17b6165",
    1e-3: "dddcc77faddaae20c986d88d9951a2d54b78d0098352f14a727a5d8315c705fb",
}


@pytest.mark.parametrize("eps", sorted(TABLE_GATE_AUDIT_SHA256))
def test_table_merge_gate_is_pinned_and_matches_its_pre_refactor_assembly(eps):
    gate = ideal_merge_gate(eps)
    assert gate.case_fidelities == TABLE_GATE_FIDELITIES
    assert gate.fidelity == min(TABLE_GATE_FIDELITIES)
    assert gate.notes == ("explicit pair-action tables",)
    kind, angle = gate.stages[-1]
    assert kind == "flag_phase" and float.hex(angle) == "-0x0.0p+0"
    assert hashlib.sha256(audit_json(gate).encode()).hexdigest() == TABLE_GATE_AUDIT_SHA256[eps]
    ref = ideal_merge_gate_before(eps)
    assert audit_json(gate) == audit_json(ref)
    assert gate.case_fidelities == ref.case_fidelities


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_synthesized_merge_gate_matches_its_pre_refactor_assembly(eps):
    gate, ref = build_N(None, eps), build_N_before(None, eps)
    assert audit_json(gate) == audit_json(ref)
    assert gate.case_fidelities == ref.case_fidelities
    assert gate.notes == ref.notes


def test_merge_gate_failures_keep_both_message_forms(monkeypatch):
    with pytest.raises(SynthesisError) as table_exc:
        ideal_merge_gate(1e-16)
    with pytest.raises(SynthesisError) as ref_exc:
        ideal_merge_gate_before(1e-16)
    assert str(table_exc.value) == str(ref_exc.value) == (
        "table merge gate fidelities 0.999999999999999, 0.999999999999999, "
        "0.999999999999999 fall below 1 - eps = 1.000000000000000")
    # the synthesized form: twelve digits, "merge gate" without "table"
    with pytest.raises(SynthesisError, match=r"^merge gate fidelities 1\.000000000000, .* "
                                             r"fall below 1 - eps = 1\.000000000000$"):
        _assemble_merge_gate(MergeTableMap(), lambda x, y: ExpandTableMap(), 1e-16,
                             "merge gate", 12)

    def failing_n_plus(*args):
        raise SynthesisError("calibration state is degenerate with |0>")

    from nlqsim import gates
    monkeypatch.setattr(gates, "build_n_plus", failing_n_plus)
    with pytest.raises(SynthesisError, match=r"^expansion stage failed: calibration state is "
                                             r"degenerate with \|0>$"):
        build_N(None, 1e-3)


def alignment_horizon_before(h, fallback=2000.0):
    if isinstance(h, PhaseAlignedHbar):
        return 4.0 * math.pi / h.omega0
    return fallback


def n_minus_search_before(h, eps):
    """build_n_minus's profile, horizon and phase search as written inline."""
    offset = min(eps / 2.0, 0.5)
    phi = (math.pi - offset) / 4.0
    h_use = h if h is not None else phase_aligned_hbar(math.sin(phi) ** 2, math.cos(phi) ** 2)
    t_max = alignment_horizon_before(h_use)
    try:
        sol = find_phase_time(h_use, phi, eps=max(offset / 10.0, 1e-12), t_max=t_max)
    except PhaseAlignmentError as exc:
        raise SynthesisError(
            f"contraction pass at phi={phi:.6g} found no phase solution: {exc}"
        ) from exc
    return h_use, sol.t_star


def n_plus_search_before(h, x, y, eps):
    """build_n_plus's profile, horizon and phase search as written inline."""
    norm = math.hypot(abs(x), abs(y))
    x, y = complex(x) / norm, complex(y) / norm
    chi = math.acos(min(1.0, abs(x)))
    phi = math.pi / 4.0 - chi / 2.0
    h_use = h if h is not None else phase_aligned_hbar(math.sin(phi) ** 2, math.cos(phi) ** 2)
    t_max = alignment_horizon_before(h_use)
    try:
        sol = find_phase_time(h_use, phi, eps=max(eps / 10.0, 1e-12), t_max=t_max)
    except PhaseAlignmentError as exc:
        raise SynthesisError(
            f"expansion pass at phi={phi:.6g} found no phase solution: {exc}"
        ) from exc
    return h_use, sol.t_star


def search_or_error(fn, *args):
    try:
        return fn(*args)
    except SynthesisError as exc:
        return str(exc)


def evolve_stage_or_error(build, *args):
    try:
        gate = build(*args)
    except SynthesisError as exc:
        return str(exc)
    (payload,) = [p for kind, p in gate.stages if kind == "evolve"]
    return payload


# The ids keep the names these cases had when the search horizon was a
# third parameter; None there meant the default horizon, the only one left.
@pytest.mark.parametrize("h, eps", [
    pytest.param(None, 1e-3, id="None-0.001-None"),
    pytest.param(None, 0.3, id="None-0.3-None"),
    pytest.param(phase_aligned_hbar(0.3, 0.7), 0.3, id="h2-0.3-None"),
    pytest.param(HbarFunction((0.3, -0.7, 1.1, 0.4)), 0.3, id="h4-0.3-None"),
    pytest.param(HbarFunction((0.5, 1.5)), 0.6, id="h5-0.6-None"),
])
def test_sandwich_passes_search_as_their_inline_blocks_did(h, eps):
    # a failed search names its best residual, which moves with the grid
    # step eps / 20, so the tolerance each pass passes on is observable
    want = search_or_error(n_minus_search_before, h, eps)
    assert evolve_stage_or_error(build_n_minus, h, eps) == want
    want = search_or_error(n_plus_search_before, None, 0.6, 0.8j, eps)
    assert evolve_stage_or_error(build_n_plus, 0.6, 0.8j, eps) == want
