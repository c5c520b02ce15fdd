import math

import numpy as np
import pytest

from nlqsim.algorithms import (
    Alg1Config,
    Alg2Config,
    NoiseModel,
    flag_theta,
    run_algorithm1,
    run_algorithm1_count,
    run_algorithm2,
    run_algorithm2_count,
)
from nlqsim.gates import H_GATE, StretchMap, build_N
from nlqsim.oracle import (
    OracleSpec,
    TruthTableOracle,
    apply_oracle,
    count_solutions_bruteforce,
    random_oracle,
)
from nlqsim.statevector import (
    apply_1q_unitary,
    make_rng,
    new_basis_state,
    probability_of_pattern,
)


def spec_for(n, solutions):
    return OracleSpec(TruthTableOracle(n, tuple(sorted(solutions))))


def zero_pattern_probability(n, solutions):
    sv = new_basis_state(n + 1, 0)
    for q in range(n):
        sv = apply_1q_unitary(sv, q, H_GATE)
    sv = apply_oracle(sv, range(n), n, spec_for(n, solutions))
    for q in range(n):
        sv = apply_1q_unitary(sv, q, H_GATE)
    return sv


def test_step3_probability_matches_closed_form_and_quarter_bound():
    rng = make_rng(17)
    for n in range(1, 8):
        for _ in range(4):
            s = int(rng.integers(0, (1 << n) + 1))
            tt = random_oracle(n, s, rng)
            sv = zero_pattern_probability(n, tt.solutions)
            p = probability_of_pattern(sv, range(n), 0)
            expected = (((1 << n) - s) ** 2 + s**2) / (1 << (2 * n)) ** 1
            assert p == pytest.approx(expected, abs=1e-10)
            assert p >= 0.25


def test_flag_state_proportional_to_counts():
    from nlqsim.statevector import collapse_onto_pattern, conditional_qubit_state

    for n, s in ((3, 1), (4, 5), (5, 9)):
        rng = make_rng(n * 100 + s)
        tt = random_oracle(n, s, rng)
        sv = zero_pattern_probability(n, tt.solutions)
        _, sv0 = collapse_onto_pattern(sv, range(n), 0)
        _, c0, c1 = conditional_qubit_state(sv0, n, 0)
        norm = math.hypot((1 << n) - s, s)
        assert abs(c0 - ((1 << n) - s) / norm) < 1e-10
        assert abs(c1 - s / norm) < 1e-10


def test_algorithm1_empty_oracle_is_certain():
    report = run_algorithm1(Alg1Config(n=3, oracle=spec_for(3, ()), seed=0))
    assert report.succeeded
    assert report.decision == "no-solution"
    assert report.post_measurement_flag_amplitude == pytest.approx(0.0)
    # rounding dust is doubled by the stretch, so "identically zero" means
    # zero up to amplified machine epsilon
    assert all(sep < 1e-6 for _, sep in report.separation_trajectory)


def test_algorithm1_single_solution_run():
    report = run_algorithm1(Alg1Config(n=3, oracle=spec_for(3, (5,)), seed=7))
    assert report.succeeded
    assert report.decision == "solution-exists"
    assert report.post_measurement_flag_amplitude == pytest.approx(1 / math.sqrt(50), abs=1e-10)
    # starting separation is the flag angle 2 atan(1/7); it doubles while
    # the state is inside the stretch region
    seps = dict(report.separation_trajectory)
    theta0 = 2 * math.atan(1 / 7)
    assert seps[0] == pytest.approx(theta0, abs=1e-10)
    assert seps[1] == pytest.approx(2 * theta0, abs=1e-9)
    k = report.applications_to_threshold
    assert k is not None
    bound = math.ceil((3 * math.log(2) + math.log(1)) / math.log(2)) + 3
    assert k <= bound


def test_algorithm1_trajectory_monotone_until_saturation():
    report = run_algorithm1(Alg1Config(n=5, oracle=spec_for(5, (11,)), seed=3))
    seps = [s for _, s in report.separation_trajectory]
    assert all(b >= a - 1e-9 for a, b in zip(seps, seps[1:]))
    assert all(s <= math.pi + 1e-12 for s in seps)


def test_algorithm1_single_call_on_clean_trials():
    report = run_algorithm1(Alg1Config(n=4, oracle=spec_for(4, ()), seed=1))
    assert report.trials_used == 1
    assert report.oracle_calls == 1


def test_algorithm1_decisions_match_bruteforce_over_seeds():
    for n, sols in ((2, ()), (2, (1,)), (4, (3, 9)), (5, (17, 18, 19, 20))):
        truth = "solution-exists" if sols else "no-solution"
        for seed in range(5):
            report = run_algorithm1(Alg1Config(n=n, oracle=spec_for(n, sols), seed=seed))
            assert report.succeeded
            assert report.decision == truth


def test_algorithm1_degrades_under_heavy_noise():
    # jitter far above the flag angle scale s / 2^n wrecks the discrimination
    hits = 0
    runs = 200
    for seed in range(runs):
        report = run_algorithm1(
            Alg1Config(n=3, oracle=spec_for(3, (5,)), noise_sigma=0.5, seed=seed)
        )
        hits += report.succeeded and report.decision == "solution-exists"
    assert hits / runs < 0.9


def test_algorithm1_count_examples():
    assert run_algorithm1_count(Alg1Config(n=3, oracle=spec_for(3, ()), seed=0)).count == 0
    assert run_algorithm1_count(Alg1Config(n=3, oracle=spec_for(3, (2, 5, 6)), seed=1)).count == 3
    full = run_algorithm1_count(Alg1Config(n=4, oracle=spec_for(4, range(16)), seed=2))
    assert full.count == 16


def test_algorithm1_count_random_oracles():
    rng = make_rng(99)
    for i in range(10):
        n = int(rng.integers(1, 7))
        tt = random_oracle(n, int(rng.integers(0, (1 << n) + 1)), rng)
        report = run_algorithm1_count(Alg1Config(n=n, oracle=OracleSpec(tt), seed=i))
        assert report.count == count_solutions_bruteforce(tt)


def test_algorithm2_empty_oracle():
    report = run_algorithm2(Alg2Config(n=3, oracle=spec_for(3, ()), seed=5))
    assert report.decision == "no-solution"
    assert report.post_measurement_flag_amplitude == pytest.approx(0.0, abs=1e-9)
    assert report.oracle_calls == 1
    assert report.flag_one_census == [0, 0, 0]


def test_algorithm2_singleton_oracle():
    report = run_algorithm2(Alg2Config(n=3, oracle=spec_for(3, (5,)), seed=6))
    assert report.decision == "solution-exists"
    assert report.post_measurement_flag_amplitude == pytest.approx(1.0, abs=1e-9)
    assert report.oracle_calls == 1
    # the flag-one component count doubles every iteration
    assert report.flag_one_census == [2, 4, 8]


def test_algorithm2_exhaustive_n3():
    for sols in [()] + [(i,) for i in range(8)]:
        report = run_algorithm2(Alg2Config(n=3, oracle=spec_for(3, sols), seed=11))
        want = "solution-exists" if sols else "no-solution"
        assert report.decision == want
        assert report.oracle_calls == 1
        expected_census = [2, 4, 8] if sols else [0, 0, 0]
        assert report.flag_one_census == expected_census
        assert report.entanglement_residue <= 1e-9


def test_algorithm2_rejects_multiple_solutions_when_deciding():
    with pytest.raises(ValueError):
        run_algorithm2(Alg2Config(n=3, oracle=spec_for(3, (1, 2)), seed=0))


def test_algorithm2_with_synthesized_gate_single_iteration():
    # the sandwich-built gate drives a full run at n = 1, where its inputs
    # are exactly its calibration states
    gate = build_N(None, 1e-6)
    for sols, want in (((), "no-solution"), ((1,), "solution-exists")):
        report = run_algorithm2(Alg2Config(n=1, oracle=spec_for(1, sols), gate=gate, seed=3))
        assert report.decision == want
        assert report.oracle_calls == 1


def test_algorithm2_count_examples():
    assert run_algorithm2_count(
        Alg2Config(n=3, oracle=spec_for(3, ()), counting=True, seed=0)
    ).count == 0
    assert run_algorithm2_count(
        Alg2Config(n=3, oracle=spec_for(3, (1, 4, 6)), counting=True, seed=1)
    ).count == 3
    full = run_algorithm2_count(
        Alg2Config(n=3, oracle=spec_for(3, range(8)), counting=True, counter_width=4, seed=2)
    )
    assert full.count == 8


def test_algorithm2_count_overflow_is_reported():
    report = run_algorithm2_count(
        Alg2Config(n=2, oracle=spec_for(2, (0, 1)), counting=True, counter_width=1, seed=0)
    )
    assert not report.succeeded
    assert any("overflow" in note for note in report.notes)


def test_algorithm2_count_random_oracles():
    rng = make_rng(55)
    for i in range(20):
        n = int(rng.integers(1, 8))
        tt = random_oracle(n, int(rng.integers(0, (1 << n) + 1)), rng)
        report = run_algorithm2_count(Alg2Config(n=n, oracle=OracleSpec(tt), counting=True, seed=i))
        assert report.count == count_solutions_bruteforce(tt)
        assert report.oracle_calls == 1


def test_perturb_contract():
    noise = NoiseModel(0.0, make_rng(1))
    assert noise.perturb(0.7) == 0.7
    a = NoiseModel(0.1, make_rng(7))
    b = NoiseModel(0.1, make_rng(7))
    seq_a = [a.perturb(1.0) for _ in range(10)]
    seq_b = [b.perturb(1.0) for _ in range(10)]
    assert seq_a == seq_b
    big = NoiseModel(1.0, make_rng(3))
    draws = np.array([big.perturb(0.0) for _ in range(100_000)])
    assert abs(draws.mean()) <= 5 / math.sqrt(100_000)


def test_noise_monotonic_degradation_algorithm2():
    rates = []
    for sigma in (1e-3, 1e-1):
        ok = 0
        for seed in range(200):
            report = run_algorithm2(
                Alg2Config(n=4, oracle=spec_for(4, (9,)), noise_sigma=sigma, seed=seed)
            )
            ok += report.decision == "solution-exists"
        rates.append(ok / 200)
    assert rates[0] >= rates[1]


def test_flag_theta_examples():
    assert flag_theta(3, 0) == 0.0
    assert flag_theta(3, 8) == pytest.approx(math.pi)
    assert flag_theta(3, 1) == pytest.approx(2 * math.atan(1 / 7))


def test_config_validation():
    with pytest.raises(ValueError):
        run_algorithm1(Alg1Config(n=4, oracle=spec_for(3, ()), seed=0))
    with pytest.raises(ValueError):
        run_algorithm2(Alg2Config(n=2, oracle=spec_for(3, ()), seed=0))


def test_trial_budget_default_follows_region_extent():
    cfg = Alg1Config(n=3, oracle=spec_for(3, ()), stretch=StretchMap())
    assert cfg.trial_budget() >= math.ceil((math.pi / cfg.stretch.eta) ** 2)


def test_algorithm1_application_budget_is_not_success():
    # n = 15, s = 1 needs more than three stretch applications to resolve
    report = run_algorithm1(Alg1Config(n=15, oracle=spec_for(15, (1,)), max_applications=3))
    assert not report.succeeded
    assert report.decision is None
    assert report.applications_used == 3
    assert "application budget exhausted before full resolution" in report.notes


def test_algorithm1_budgets_must_be_positive():
    with pytest.raises(ValueError, match="max_applications"):
        Alg1Config(n=3, oracle=spec_for(3, (5,)), max_applications=-1)
    with pytest.raises(ValueError, match="max_trials"):
        Alg1Config(n=3, oracle=spec_for(3, (5,)), max_trials=0)
    # zero applications is a valid budget: it fails honestly instead
    report = run_algorithm1(Alg1Config(n=3, oracle=spec_for(3, (5,)), max_applications=0))
    assert not report.succeeded and report.decision is None
