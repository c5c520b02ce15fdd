import math

import numpy as np
import pytest

from nlqsim.algorithms import NoiseModel
from nlqsim.statevector import make_rng
from nlqsim.weinberg import (
    HbarFunction,
    PhaseTargetSolution,
    evolve_integrated,
    find_phase_time,
    phase_aligned_hbar,
)
from nlqsim.gates import (
    BlochAngle,
    CompositeNGate,
    ExpandTableMap,
    FOLD_UNITARY,
    MergeTableMap,
    NonlinearMap,
    PAIR_CASE_INPUTS,
    PAIR_CASE_TARGETS,
    StretchMap,
    SynthesisError,
    bloch_distance,
    build_N,
    build_n_minus,
    build_n_plus,
    H_GATE,
    X_GATE,
    _pinning_unitary,
    ideal_merge_gate,
    n_minus_single_pass,
    rotation,
    state_angle,
    state_bloch,
)

SQ2 = math.sqrt(2.0)
ZERO = BlochAngle(0.0, 0.0)
ONE = BlochAngle(math.pi, 0.0)


def test_bloch_distance_examples():
    assert bloch_distance(ZERO, ZERO) == 0.0
    assert bloch_distance(ZERO, ONE) == pytest.approx(math.pi)
    plus = state_bloch(1 / SQ2, 1 / SQ2)
    assert bloch_distance(ZERO, plus) == pytest.approx(math.pi / 2)


def test_state_angle_is_half_the_bloch_angle():
    rng = make_rng(1)
    for _ in range(10):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        d_bloch = bloch_distance(state_bloch(*a), state_bloch(*b))
        assert 2 * state_angle(a, b) == pytest.approx(d_bloch, abs=1e-9)


def aligned_for(phi):
    return phase_aligned_hbar(math.sin(phi) ** 2, math.cos(phi) ** 2)


def test_single_pass_small_angle_is_near_identity():
    phi = 1e-6
    h = aligned_for(phi)
    sol = find_phase_time(h, phi, eps=1e-9, t_max=8 * math.pi / h.omega0)
    img0 = n_minus_single_pass(1.0, 0.0, phi, h, sol)
    img1 = n_minus_single_pass(0.0, 1.0, phi, h, sol)
    assert bloch_distance(state_bloch(*img0), ZERO) < 1e-5
    assert bloch_distance(state_bloch(*img1), ONE) < 1e-5


def test_single_pass_basis_images():
    phi = math.pi / 8
    h = aligned_for(phi)
    sol = find_phase_time(h, phi, eps=1e-9)
    img1 = n_minus_single_pass(0.0, 1.0, phi, h, sol)
    assert abs(img1[0]) < 10 * sol.residual + 1e-12
    assert abs(img1[1] - 1.0) < 10 * sol.residual + 1e-12
    img0 = n_minus_single_pass(1.0, 0.0, phi, h, sol)
    assert abs(img0[0] - math.cos(2 * phi)) < 10 * sol.residual + 1e-12
    assert abs(img0[1] - math.sin(2 * phi)) < 10 * sol.residual + 1e-12


def test_single_pass_cross_checked_against_integrator():
    # rebuild the pass with the independent RK4 evolution and compare
    phi = math.pi / 8
    h = aligned_for(phi)
    sol = find_phase_time(h, phi, eps=1e-9)
    img = n_minus_single_pass(1.0, 0.0, phi, h, sol)

    r = rotation(phi)
    c1, c2 = r[0, 0], r[1, 0]
    # keep the integrator cost bounded: dt scaled to the alignment time
    dt = sol.t_star / 200_000
    e1, e2 = evolve_integrated(complex(c1), complex(c2), h, sol.t_star, dt)
    rb = rotation(-phi)
    ref = (rb[0, 0] * e1 + rb[0, 1] * e2, rb[1, 0] * e1 + rb[1, 1] * e2)
    assert abs(img[0] - ref[0]) < 1e-6
    assert abs(img[1] - ref[1]) < 1e-6


@pytest.mark.parametrize("phi", [math.pi / 16, math.pi / 12, math.pi / 8])
def test_single_pass_angle_contraction(phi):
    h = aligned_for(phi)
    sol = find_phase_time(h, phi, eps=1e-9)
    img0 = np.array(n_minus_single_pass(1.0, 0.0, phi, h, sol))
    img1 = np.array(n_minus_single_pass(0.0, 1.0, phi, h, sol))
    # the pair angle shrinks by exactly 2 phi (pi/2 -> pi/2 - 2 phi), i.e.
    # the Bloch-sphere separation shrinks by 4 phi
    angle = state_angle(img0, img1)
    tol = 10 * sol.residual + 1e-9
    assert abs((math.pi / 2 - angle) - 2 * phi) < tol
    sep = bloch_distance(state_bloch(*img0), state_bloch(*img1))
    assert abs((math.pi - sep) - 4 * phi) < 2 * tol


def test_single_pass_rejects_stale_solution():
    phi = math.pi / 8
    h = aligned_for(phi)
    sol = find_phase_time(h, phi, eps=1e-9)
    n_minus_single_pass(1.0, 0.0, phi, h, sol)
    stale = PhaseTargetSolution(sol.t_star, 2e-3, phi)
    with pytest.raises(ValueError, match=r"^stale phase solution: residual 0\.002 > tolerance 0\.001$"):
        n_minus_single_pass(1.0, 0.0, phi, h, stale)


def test_build_n_minus_lands_both_images():
    gate = build_n_minus(None, 1e-3)
    for basis in ((1.0, 0.0), (0.0, 1.0)):
        img = gate.apply(*basis)
        assert bloch_distance(state_bloch(*img), ZERO) <= 1e-3


def test_build_n_minus_fails_for_square_profile():
    with pytest.raises(SynthesisError):
        build_n_minus(HbarFunction((0.0, 0.0, 1.0)), 1e-3)


def test_build_n_plus_contract():
    gate = build_n_plus(0.6, 0.8j, 1e-6)
    img = gate.apply(0.6, 0.8j)
    assert bloch_distance(state_bloch(*img), ONE) <= 1e-6
    img0 = gate.apply(1.0, 0.0)
    assert bloch_distance(state_bloch(*img0), ZERO) <= 1e-6
    # a third state has no pinned image, only norm preservation
    c1, c2 = gate.apply(0.8, 0.6)
    assert abs(c1) ** 2 + abs(c2) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_build_n_plus_rejects_degenerate_input():
    with pytest.raises(SynthesisError):
        build_n_plus(1.0, 1e-9, 1e-6)


def merge_gate_cases(gate):
    fids = []
    for case_in, case_target in zip(PAIR_CASE_INPUTS, PAIR_CASE_TARGETS):
        out = gate.apply_to_pair(case_in)
        fids.append(abs(np.vdot(case_target, out)) ** 2)
    return fids


def test_build_N_reproduces_pair_table():
    gate = build_N(None, 1e-3)
    fids = merge_gate_cases(gate)
    assert min(fids) >= 1 - 1e-3
    assert gate.fidelity == pytest.approx(min(fids))


@pytest.mark.parametrize("make", [lambda: build_N(None, 1e-3), ideal_merge_gate])
def test_merge_gate_fidelity_is_its_worst_pair_case(make):
    gate = make()
    assert gate.fidelity == min(gate.case_fidelities) == gate.audit()["fidelity"]
    assert gate.case_fidelities == tuple(float(f) for f in merge_gate_cases(gate))


def test_build_N_flag_clear_case_returns_in_phase():
    gate = build_N(None, 1e-3)
    out = gate.apply_to_pair(PAIR_CASE_INPUTS[2])
    # not just fidelity: the flag-clear case comes back with phase +1
    assert np.linalg.norm(out - PAIR_CASE_TARGETS[2]) <= math.sqrt(2e-3)


def test_build_N_audit_contains_stages():
    gate = build_N(None, 1e-3)
    audit = gate.audit()
    kinds = [s["stage"] for s in audit["stages"]]
    assert kinds[0] == "unitary2q" and "flag_map" in kinds and kinds[-1] == "flag_phase"
    assert audit["fidelity"] >= 1 - 1e-3


def test_build_N_unattainable_tolerance_fails():
    with pytest.raises(SynthesisError):
        build_N(None, 1e-16)


@pytest.mark.parametrize("kind, matrix", [("unitary2q", FOLD_UNITARY),
                                          ("flag_unitary", X_GATE), ("index_unitary", H_GATE)])
def test_non_unitary_stage_raises_when_the_gate_is_built(kind, matrix):
    stages = [("unitary2q", FOLD_UNITARY), (kind, 1.001 * matrix)]
    with pytest.raises(ValueError, match="not unitary"):
        CompositeNGate(stages, 1e-3)
    gate = CompositeNGate(stages[:1] + [(kind, matrix)], 1e-3)
    assert isinstance(gate.stages, tuple)  # no stage can be swapped in unchecked
    with pytest.raises(TypeError):
        gate.stages[1] = (kind, 1.001 * matrix)


def test_ideal_merge_gate_is_exact():
    gate = ideal_merge_gate()
    fids = merge_gate_cases(gate)
    assert min(fids) >= 1 - 1e-12
    for case_in, case_target in zip(PAIR_CASE_INPUTS, PAIR_CASE_TARGETS):
        out = gate.apply_to_pair(case_in)
        assert np.allclose(out, case_target, atol=1e-12)


def test_merge_table_map_basis_and_ties():
    m = MergeTableMap()
    assert m.apply(1.0, 0.0) == (pytest.approx(1.0), 0.0)
    assert m.apply(0.0, 1.0) == (pytest.approx(1.0), 0.0)
    c1, c2 = m.apply(-1 / SQ2, 1 / SQ2)
    assert c1 == pytest.approx(1.0)  # phase taken from the upper component


def test_expand_table_map_doubles_polar_angle():
    m = ExpandTableMap()
    c1, c2 = m.apply(1 / SQ2, 1 / SQ2)
    assert abs(c2) == pytest.approx(1.0, abs=1e-12)
    c1, c2 = m.apply(1.0, 0.0)
    assert abs(c1) == pytest.approx(1.0)


def test_every_map_preserves_single_qubit_norm():
    rng = make_rng(9)
    maps = [
        build_n_minus(None, 1e-2),
        build_n_plus(0.6, 0.8, 1e-6),
        MergeTableMap(),
        ExpandTableMap(zeta=0.3),
        StretchMap(),
    ]
    for m in maps:
        pairs = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
        pairs /= np.linalg.norm(pairs, axis=1)[:, None]
        out = m.apply_batch(pairs)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-10)


def test_stretch_map_center_fixed_and_exponential():
    m = StretchMap()
    assert m.polar_map(m.theta0) == pytest.approx(m.theta0)
    delta = 0.01
    out = m.polar_map(m.theta0 + delta)
    assert out == pytest.approx(m.theta0 + math.exp(m.lam) * delta, abs=1e-12)


def test_stretch_map_derivative_in_region():
    m = StretchMap()
    lo, hi = m.region
    for theta in np.linspace(lo + 1e-4, hi - 1e-4, 20):
        step = 1e-7
        deriv = (m.polar_map(theta + step) - m.polar_map(theta - step)) / (2 * step)
        assert deriv == pytest.approx(math.exp(m.lam), abs=1e-6)


def test_stretch_map_monotone_and_fixes_poles():
    m = StretchMap()
    grid = np.linspace(0.0, math.pi, 10_000)
    vals = m.polar_map(grid)
    assert np.all(np.diff(vals) > 0)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(math.pi)


def test_stretch_map_validation():
    with pytest.raises(ValueError):
        StretchMap(theta0=0.1, eta=0.5)
    with pytest.raises(ValueError):
        StretchMap(lam=3.0)  # stretched image would leave (0, pi)


def test_stretch_map_jitter_at_sigma_zero_is_the_map_itself():
    m, rng = StretchMap(), make_rng(5)
    state = rng.bit_generator.state
    assert m.jittered(NoiseModel(0.0, rng)) is m
    assert rng.bit_generator.state == state  # nothing drawn


@pytest.mark.parametrize("sigma", [1e-3, 10.0])
@pytest.mark.parametrize("m", [StretchMap(), StretchMap(theta0=2.0, eta=0.5, lam=0.3)])
def test_stretch_map_jitter_draws_one_normal_and_clamps_the_exponent(m, sigma):
    # the largest exponent whose stretched region stays 1e-6 inside (0, pi)
    bound = math.log(min(m.theta0 - 1e-6, math.pi - m.theta0 - 1e-6) / (m.eta / 2.0))
    clamped = 0
    for seed in range(20):
        noise, ref = NoiseModel(sigma, make_rng(seed)), make_rng(seed)
        jit = m.jittered(noise)
        assert jit.lam == min(m.lam + ref.normal(0.0, sigma), bound)
        assert noise.rng.bit_generator.state == ref.bit_generator.state  # one normal drawn
        assert (jit.theta0, jit.eta) == (m.theta0, m.eta)
        lo, hi = jit.polar_map(np.array(jit.region))
        assert 0.0 < lo < hi < math.pi  # a valid map, also at the bound
        clamped += jit.lam == bound
    assert (clamped > 0) == (sigma == 10.0)


@pytest.mark.parametrize("a_state", [
    [1.0, 0.0, 0.0, 0.0],  # already |00>: the identity
    [0.6, 0.8j, 0.0, 0.0],  # residual already along |01>: a phase only
])
def test_pinning_unitary_edge_inputs(a_state):
    a_state = np.array(a_state, dtype=complex)
    u = _pinning_unitary(a_state)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    assert np.allclose(u[:, 0], [1, 0, 0, 0], atol=1e-12)  # |00> is fixed
    x = a_state[0]
    assert np.allclose(u @ a_state, [x, math.sqrt(1 - abs(x) ** 2), 0, 0], atol=1e-12)


def test_unknown_stage_kinds_are_refused():
    twisted = NonlinearMap(stages=(("twist", 0.1),), tolerance=0.0, descriptor="twisted")
    with pytest.raises(ValueError, match="unknown stage kind 'twist'"):
        twisted.apply(1.0, 0.0)
    with pytest.raises(ValueError, match="unknown stage kind 'twist'"):
        CompositeNGate((("twist", 0.1),), 0.0)


def test_single_pass_refuses_a_solution_for_another_angle():
    sol = PhaseTargetSolution(t_star=1.0, residual=0.0, phi=math.pi / 8)
    with pytest.raises(ValueError, match="different rotation angle"):
        n_minus_single_pass(1.0, 0.0, math.pi / 12, HbarFunction((0.0, 0.0, 1.0)), sol)


@pytest.mark.parametrize("build", [
    lambda eps: build_n_minus(None, eps),
    lambda eps: build_n_plus(0.6, 0.8, eps),
])
@pytest.mark.parametrize("eps", [0.0, -1e-3])
def test_sandwich_builders_refuse_a_nonpositive_eps(build, eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        build(eps)


def test_build_n_plus_refuses_a_zero_calibration_state():
    with pytest.raises(SynthesisError, match="zero calibration state"):
        build_n_plus(0.0, 0.0, 1e-3)


def test_only_table_gates_are_exact():
    assert ideal_merge_gate().exact
    assert not build_N(None, 1e-3).exact


def test_expansion_table_clamp_leaves_no_zero_component():
    # past the equator the doubled angle is clamped at pi: the image is
    # exactly |1> with the row's phase, not cos(pi / 2) = 6.1e-17 of |0>
    rows = np.array([[0.6, 0.8j], [1 / SQ2, -1 / SQ2], [0.0, 1.0], [0.8, 0.6]])
    out = ExpandTableMap().apply_batch(rows)
    assert out[:3, 0].tolist() == [0.0, 0.0, 0.0]
    assert np.allclose(out[:3, 1], [1j, -1.0, 1.0], rtol=0.0, atol=1e-15)
    assert out[3, 0] != 0.0


def test_fold_unitary_matches_module_constant():
    expected = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=complex
    ) / SQ2
    assert np.allclose(FOLD_UNITARY, expected)
    assert np.allclose(FOLD_UNITARY @ FOLD_UNITARY.conj().T, np.eye(4), atol=1e-12)


def test_contraction_pass_searches_at_a_tenth_of_its_design_offset():
    # A phase-aligned profile built for a latitude 0.02 above the pass's own
    # has no exact alignment time; its best residual lies between offset/10
    # and offset, so the contraction pass (searching at offset/10) refuses it
    # although a search at the offset itself would accept it.
    eps = 0.5
    offset = eps / 2.0
    phi = (math.pi - offset) / 4.0
    h = phase_aligned_hbar(math.sin(phi) ** 2 + 0.02, math.cos(phi) ** 2)
    with pytest.raises(SynthesisError, match="contraction pass at .* found no phase solution") as info:
        build_n_minus(h, eps)
    best = info.value.__cause__.best_residual
    assert offset / 10.0 < best <= offset
    assert find_phase_time(h, phi, offset, t_max=4.0 * math.pi / h.omega0).residual <= offset
