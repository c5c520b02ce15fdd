import cmath
import math

import numpy as np
import pytest

from nlqsim import weinberg
from nlqsim.statevector import StateVector, apply_1q_unitary, make_rng, new_basis_state
from nlqsim.weinberg import (
    HbarFunction,
    PhaseAlignmentError,
    apply_conditional_nonlinear,
    evolve_closed_form,
    evolve_integrated,
    find_phase_time,
    omega12,
    phase_aligned_hbar,
    trajectory,
)

SQUARE = HbarFunction((0.0, 0.0, 1.0))  # hbar(a) = a^2


def hamiltonian_value(h, c1, c2):
    """h(psi, psi*) = n * hbar(a) for the pair (c1, c2)."""
    n = abs(c1) ** 2 + abs(c2) ** 2
    return n * h.value(abs(c2) ** 2 / n)


def homogeneity_check(h, c1, c2, scale, hamiltonian=None):
    """|h(scale*psi) - scale^2 * h(psi)|; 0 for a degree-one homogeneous h.

    `hamiltonian` overrides the evaluated function (defaults to n*hbar(a));
    pass a corrupted one to exercise the negative control.
    """
    if hamiltonian is None:
        hamiltonian = lambda a, b: hamiltonian_value(h, a, b)
    return abs(hamiltonian(scale * c1, scale * c2) - scale**2 * hamiltonian(c1, c2))


def finite_difference(h, a, step=1e-6):
    return (h.value(a + step) - h.value(a - step)) / (2 * step)


def random_pair(rng):
    c = rng.normal(size=2) + 1j * rng.normal(size=2)
    c /= np.linalg.norm(c)
    return complex(c[0]), complex(c[1])


def test_omega12_linear_profile():
    kappa = 1.7
    h = HbarFunction((0.0, kappa))
    for a in (0.0, 0.3, 1.0):
        w1, w2 = omega12(h, a)
        assert w1 == pytest.approx(0.0, abs=1e-14)
        assert w2 == pytest.approx(kappa)


def test_omega12_at_zero_is_value_and_slope():
    h = HbarFunction((0.4, -1.2, 0.3))
    w1, w2 = omega12(h, 0.0)
    assert w1 == pytest.approx(h.value(0.0))
    assert w2 == pytest.approx(h.value(0.0) + h.derivative(0.0))


def test_omega12_square_profile_against_finite_differences():
    for a in (0.1, 0.42, 0.9):
        # independent derivative check first, then the frequency formulas
        assert SQUARE.derivative(a) == pytest.approx(finite_difference(SQUARE, a), abs=1e-8)
        w1, w2 = omega12(SQUARE, a)
        assert w1 == pytest.approx(-a * a, abs=1e-12)
        assert w2 == pytest.approx(2 * a - a * a, abs=1e-12)


def test_evolve_closed_form_identity_at_t0():
    c1, c2 = evolve_closed_form(0.6, 0.8j, SQUARE, 0.0)
    assert c1 == pytest.approx(0.6)
    assert c2 == pytest.approx(0.8j)


def test_evolve_closed_form_pole_state_is_phase_only():
    h = HbarFunction((0.7, -0.2, 1.1))
    c1, c2 = evolve_closed_form(1.0, 0.0, h, 2.5)
    assert c1 == pytest.approx(cmath.exp(-1j * h.value(0.0) * 2.5))
    assert c2 == 0.0


def test_evolve_closed_form_square_profile_phases():
    # a = 0.5: w1 = -0.25, w2 = 0.75, so at t = pi the phases are
    # exp(+i pi/4) and exp(-i 3 pi/4)
    c1, c2 = evolve_closed_form(1 / math.sqrt(2), 1 / math.sqrt(2), SQUARE, math.pi)
    assert c1 == pytest.approx(cmath.exp(1j * math.pi / 4) / math.sqrt(2), abs=1e-12)
    assert c2 == pytest.approx(cmath.exp(-3j * math.pi / 4) / math.sqrt(2), abs=1e-12)
    i1, i2 = evolve_integrated(1 / math.sqrt(2), 1 / math.sqrt(2), SQUARE, math.pi, 1e-3)
    assert abs(c1 - i1) < 1e-8 and abs(c2 - i2) < 1e-8


def test_integrator_matches_linear_unitary():
    kappa = 1.3
    h = HbarFunction((0.0, kappa))
    rng = make_rng(1)
    for _ in range(5):
        c1, c2 = random_pair(rng)
        t = float(rng.uniform(0.0, 8.0))
        i1, i2 = evolve_integrated(c1, c2, h, t, 1e-3)
        assert abs(i1 - c1) < 1e-8
        assert abs(i2 - c2 * cmath.exp(-1j * kappa * t)) < 1e-8


def test_integrator_agrees_with_closed_form_random():
    rng = make_rng(2)
    for _ in range(20):
        coefs = rng.uniform(-1, 1, size=int(rng.integers(1, 5)))
        h = HbarFunction(tuple(coefs))
        c1, c2 = random_pair(rng)
        t = float(rng.uniform(0.0, 20.0))
        e1, e2 = evolve_closed_form(c1, c2, h, t)
        i1, i2 = evolve_integrated(c1, c2, h, t, 1e-3)
        assert abs(e1 - i1) < 1e-8
        assert abs(e2 - i2) < 1e-8


def test_integrator_conserves_norm_and_latitude_long_run():
    c1, c2 = 0.6 + 0.2j, -0.5 + 0.5916079783099616j
    i1, i2 = evolve_integrated(c1, c2, SQUARE, 100.0, 1e-3)
    n0 = abs(c1) ** 2 + abs(c2) ** 2
    n1 = abs(i1) ** 2 + abs(i2) ** 2
    assert abs(n1 - n0) < 1e-8
    assert abs(abs(i2) ** 2 / n1 - abs(c2) ** 2 / n0) < 1e-8


def test_magnitudes_exactly_conserved_by_closed_form():
    rng = make_rng(8)
    for _ in range(10):
        c1, c2 = random_pair(rng)
        e1, e2 = evolve_closed_form(c1, c2, SQUARE, float(rng.uniform(0, 50)))
        assert abs(e1) == pytest.approx(abs(c1), abs=1e-14)
        assert abs(e2) == pytest.approx(abs(c2), abs=1e-14)


def test_zero_norm_rejected():
    with pytest.raises(ValueError):
        evolve_closed_form(0.0, 0.0, SQUARE, 1.0)


@pytest.mark.parametrize("t, dt", [(1.0, math.inf), (1.0, math.nan), (1.0, 0.0),
                                   (math.nan, 1e-3), (math.inf, 1e-3), (-1.0, 1e-3)])
def test_integrator_refuses_bad_times(t, dt):
    # dt = inf used to take no step at all and return the input unchanged
    with pytest.raises(ValueError, match="must be"):
        evolve_integrated(0.6, 0.8, SQUARE, t, dt)


@pytest.mark.parametrize("c1, c2", [(0.0, 0.0), (math.nan, 0.8), (math.inf, 0.0)])
def test_integrator_refuses_pairs_without_a_finite_norm(c1, c2):
    with pytest.raises(ValueError, match="zero-norm"):
        evolve_integrated(c1, c2, SQUARE, 1.0, 1e-3)


def test_integrator_overflow_is_a_value_error():
    # h * omega = 1e7 per step: every RK4 step multiplies the state by ~1e26
    with pytest.raises(ValueError, match="overflowed"):
        evolve_integrated(0.6, 0.8, HbarFunction((1e10,)), 1.0, 1e-3)


def test_homogeneity_examples():
    rng = make_rng(3)
    c1, c2 = random_pair(rng)
    assert homogeneity_check(SQUARE, c1, c2, 1.0) == 0.0
    assert homogeneity_check(SQUARE, c1, c2, 2.0) <= 1e-10
    # corrupted hamiltonian n^2 * hbar(a) breaks degree-one homogeneity
    def corrupted(a, b):
        n = abs(a) ** 2 + abs(b) ** 2
        return n * n * SQUARE.value(abs(b) ** 2 / n)
    assert homogeneity_check(SQUARE, c1, c2, 2.0, hamiltonian=corrupted) > 1e-3


def test_hamiltonian_value_scales_quadratically():
    assert hamiltonian_value(SQUARE, 1.0, 1.0) == pytest.approx(2 * 0.25)


def test_conditional_on_product_state():
    # |b> x |psi> -> |b> x map(|psi>)
    sv = new_basis_state(3, 4)  # |10>|0>
    sv = apply_1q_unitary(sv, 2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    flip = lambda rows: rows[:, ::-1].copy()
    out = apply_conditional_nonlinear(sv, 2, flip)
    expected = np.zeros(8, dtype=complex)
    expected[4] = 1 / math.sqrt(2)
    expected[5] = 1 / math.sqrt(2)
    assert np.allclose(out.amplitudes, expected)


def test_conditional_unitary_map_equals_global_unitary():
    rng = make_rng(4)
    u = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    for _ in range(5):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        sv = StateVector(4, amps / np.linalg.norm(amps))
        via_map = apply_conditional_nonlinear(sv, 2, lambda rows: rows @ u.T)
        via_gate = apply_1q_unitary(sv, 2, u)
        assert np.allclose(via_map.amplitudes, via_gate.amplitudes, atol=1e-10)


def test_conditional_merge_on_bell_state():
    bell = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    def both_to_zero(rows):
        out = np.zeros_like(rows)
        out[:, 0] = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))
        return out
    out = apply_conditional_nonlinear(bell, 1, both_to_zero)
    expected = np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2)
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_linear_limit_recovers_superposition_principle():
    kappa, t = 0.9, 3.7
    h = HbarFunction((0.0, kappa))
    diag = np.diag([1.0, cmath.exp(-1j * kappa * t)])
    rng = make_rng(5)
    for _ in range(5):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        sv = StateVector(4, amps / np.linalg.norm(amps))
        evolve = lambda rows: np.stack(
            [np.asarray(x) for x in _evolve_rows(rows, h, t)], axis=1
        )
        via_map = apply_conditional_nonlinear(sv, 1, evolve)
        via_gate = apply_1q_unitary(sv, 1, diag)
        assert np.allclose(via_map.amplitudes, via_gate.amplitudes, atol=1e-9)


def _evolve_rows(rows, h, t):
    outs = [evolve_closed_form(complex(r[0]), complex(r[1]), h, t) for r in rows]
    return [o[0] for o in outs], [o[1] for o in outs]


def test_conditional_preserves_total_norm():
    rng = make_rng(6)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    sv = StateVector(5, amps / np.linalg.norm(amps))
    out = apply_conditional_nonlinear(
        sv, 3, lambda rows: rows * np.exp(1j * np.abs(rows[:, 1:2]) ** 2)
    )
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-10


def test_phase_time_linear_profile_unsatisfiable():
    # both latitudes share the same nonzero frequency, so the flip and the
    # hold targets cannot be met together: best residual is sqrt(2)
    h = HbarFunction((0.0, 2.0))
    with pytest.raises(PhaseAlignmentError) as err:
        find_phase_time(h, math.pi / 8, eps=0.99, t_max=200.0)
    assert err.value.best_residual >= 1.2


def test_phase_time_vacuous_tolerance():
    sol = find_phase_time(SQUARE, math.pi / 8, eps=2.0)
    assert sol.t_star == 0.0
    assert sol.residual == pytest.approx(2.0)


def test_phase_time_square_profile_is_rationally_blocked():
    # with hbar = a^2 the four frequencies obey two integer relations that
    # force t = 0 and t = pi (mod 2 pi) at once: the residual never drops
    # below 2 sin(pi/8) ~ 0.765 no matter the horizon
    with pytest.raises(PhaseAlignmentError) as err:
        find_phase_time(SQUARE, math.pi / 8, eps=1e-2, t_max=500.0)
    assert 0.7 <= err.value.best_residual <= 1.0


def test_phase_time_aligned_profile_regression():
    phi = math.pi / 8
    h = phase_aligned_hbar(math.sin(phi) ** 2, math.cos(phi) ** 2)
    sol = find_phase_time(h, phi, eps=1e-9)
    assert sol.residual <= 1e-9
    # exact alignment time for the constructed profile
    assert sol.t_star == pytest.approx(math.pi / h.omega0, rel=1e-9)


def test_phase_time_residual_monotone_in_horizon():
    h = HbarFunction((0.0, 0.0, 1.0, 0.4))
    best = []
    for t_max in (20.0, 60.0, 180.0):
        try:
            sol = find_phase_time(h, math.pi / 8, eps=1e-6, t_max=t_max)
            best.append(sol.residual)
        except PhaseAlignmentError as err:
            best.append(err.best_residual)
    # non-increasing up to refinement rounding
    assert best[0] >= best[1] - 1e-12 >= best[2] - 2e-12


def test_phase_time_validates_inputs():
    with pytest.raises(ValueError):
        find_phase_time(SQUARE, 1.0, eps=1e-3)
    with pytest.raises(ValueError):
        find_phase_time(SQUARE, math.pi / 8, eps=-1.0)
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_max must be positive"):
            find_phase_time(SQUARE, math.pi / 8, eps=1e-3, t_max=t_max)


def test_phase_search_refuses_frequencies_that_overflow_before_any_residual(monkeypatch):
    def no_residual(*args):
        raise AssertionError("a residual was evaluated")

    monkeypatch.setattr(weinberg, "_phase_residual", no_residual)
    huge = HbarFunction((1e306, 1e306))
    with pytest.raises(ValueError, match=r"^phase frequencies \(1e\+306, 2e\+306, 1e\+306, "
                                         r"2e\+306\) overflow over the horizon t_max=2000$"):
        find_phase_time(huge, math.pi / 8, eps=0.05)
    with pytest.raises(ValueError, match=r"overflow over the horizon t_max=inf$"):
        find_phase_time(SQUARE, math.pi / 8, eps=0.05, t_max=math.inf)


def test_phase_search_takes_the_capped_grid_when_the_step_underflows(monkeypatch):
    monkeypatch.setattr(weinberg, "GRID_POINT_CAP", 1000)
    h = HbarFunction((1e297, 1e297))
    # eps 1e-12: t_max / step overflows to inf; eps 5e-324: the step itself is 0
    for eps in (1e-12, 5e-324):
        with pytest.raises(PhaseAlignmentError, match="up to t_max=2000 "):
            find_phase_time(h, math.pi / 8, eps=eps)


def test_aligned_profile_frequencies():
    h = phase_aligned_hbar(0.2, 0.7)
    w1w, w2w = omega12(h, 0.2)
    w1z, w2z = omega12(h, 0.7)
    assert abs(w1w) < 1e-12 * h.omega0 + 1e-15
    assert abs(w1z) < 1e-15 and abs(w2z) < 1e-15
    assert w2w == pytest.approx(h.omega0, rel=1e-9)
    # the factored evaluation matches the expanded coefficients
    plain = HbarFunction(h.coefficients)
    for a in np.linspace(0, 1, 7):
        assert h.value(a) == pytest.approx(plain.value(a), abs=1e-12)


def test_closed_form_on_arrays_is_the_closed_form_of_each_pair():
    rng = make_rng(21)
    pairs = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
    h = HbarFunction((0.1, -0.4, 0.3, 0.2))
    e1, e2 = evolve_closed_form(pairs[:, 0], pairs[:, 1], h, 2.5)
    for k, (c1, c2) in enumerate(pairs):
        want = evolve_closed_form(complex(c1), complex(c2), h, 2.5)
        assert np.allclose([e1[k], e2[k]], want, rtol=1e-14, atol=0.0)
    pairs[3] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        evolve_closed_form(pairs[:, 0], pairs[:, 1], h, 2.5)


@pytest.mark.parametrize("coefficients, words", [
    ((), "at least one coefficient"),
    ((0.0, math.nan), "finite"),
    ((math.inf,), "finite"),
])
def test_hbar_function_refuses_bad_coefficients(coefficients, words):
    with pytest.raises(ValueError, match=words):
        HbarFunction(coefficients)


@pytest.mark.parametrize("w, z, words", [
    (-0.1, 0.5, "must lie in \\[0, 1\\]"),
    (0.2, 1.5, "must lie in \\[0, 1\\]"),
    (0.3, 0.3, "degenerate"),
    (0.3, 0.3 + 1e-15, "degenerate"),
])
def test_phase_aligned_hbar_refuses_bad_latitudes(w, z, words):
    with pytest.raises(ValueError, match=words):
        phase_aligned_hbar(w, z)


def test_integrator_step_guard_is_its_own():
    with pytest.raises(ValueError, match="exceeds the step-count guard"):
        evolve_integrated(0.6, 0.8, SQUARE, 1e5, 1e-3)


def test_trajectory_refuses_negative_times():
    with pytest.raises(ValueError, match="times must be nonnegative"):
        trajectory(0.6, 0.8, SQUARE, [0.5, -1e-3], dt=1e-3)


def test_phase_time_of_a_constant_zero_profile_has_no_solution():
    # every frequency is 0, so the phase of the second latitude never turns
    with pytest.raises(PhaseAlignmentError, match="no alignment time"):
        find_phase_time(HbarFunction((0.0,)), math.pi / 8, eps=1e-3)


def test_trajectory_rows():
    rows = trajectory(1 / math.sqrt(2), 1 / math.sqrt(2), SQUARE, [0.0, 0.5, 1.0], dt=1e-3)
    assert rows[0][0] == 0.0
    assert rows[0][1] == pytest.approx(1 / math.sqrt(2))
    assert all(r[5] < 1e-8 for r in rows)
