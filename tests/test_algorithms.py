import math
from dataclasses import replace

import numpy as np
import pytest

from nlqsim import algorithms
from nlqsim.algorithms import (
    Alg1Config,
    Alg2Config,
    CounterOverflowError,
    NoiseModel,
    RunReport,
    flag_theta,
    run_algorithm1,
    run_algorithm1_count,
    run_algorithm2,
    run_algorithm2_count,
    table_merge_gate,
)
from nlqsim.gates import H_GATE, StretchMap, build_N
from nlqsim.oracle import (
    OracleSpec,
    TruthTableOracle,
    apply_oracle,
    count_solutions_bruteforce,
    random_oracle,
    truth_vector,
)
from nlqsim.statevector import (
    StateVector,
    apply_1q_unitary,
    apply_hadamard_layer,
    block_rows,
    make_rng,
    measure_qubits,
    new_basis_state,
    probability_of_pattern,
)
from nlqsim.weinberg import apply_conditional_subspace_map


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


def test_algorithm2_refuses_counting_configs():
    # the decision cascade would skip its s <= 1 guard and read two
    # solutions as "no-solution" with a flag amplitude of 6e-17
    cfg = Alg2Config(n=3, oracle=OracleSpec(TruthTableOracle(3, (1, 5))), counting=True)
    with pytest.raises(ValueError, match="run_algorithm2_count"):
        run_algorithm2(cfg)
    assert cfg.oracle.call_counter == 0
    assert run_algorithm2_count(cfg).count == 2


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


def test_algorithm2_count_refuses_a_zero_width_counter():
    with pytest.raises(ValueError, match="counter_width must be >= 1"):
        run_algorithm2_count(
            Alg2Config(n=2, oracle=spec_for(2, (0,)), counting=True, counter_width=0))


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


# -- shrinking cascades against full-register references --------------------
#
# The references below run alg2 on full registers: the decision keeps every
# swept index qubit in its (n + 1)-qubit register, and counting holds the
# counter as a width-qubit register next to the n index qubits, merged by a
# branch-table subspace map.


def dense_census(state, n):
    rows = state.amplitudes.reshape(-1, 2)
    return int(np.count_nonzero(np.abs(rows[:, 1]) > 0.5 / math.sqrt(1 << n)))


def dense_algorithm2(cfg):
    """The decision cascade on the full register; returns (report, rng)."""
    oracle = cfg.oracle
    gate = cfg.gate if cfg.gate is not None else table_merge_gate()
    rng = make_rng(cfg.seed)
    noise = NoiseModel(cfg.noise_sigma, rng)
    report = RunReport()
    calls_before = oracle.call_counter

    flag = cfg.n
    state = apply_hadamard_layer(new_basis_state(cfg.n + 1, 0), range(cfg.n))
    state = apply_oracle(state, range(cfg.n), flag, oracle)
    census = []
    for k in range(cfg.n):
        state = gate.apply_to_register(state, k, flag, noise=noise)
        census.append(dense_census(state, cfg.n))

    rows = block_rows(state, [flag])
    residue = float(max(0.0, np.linalg.eigvalsh(rows.T @ rows.conj())[0].real))
    report.entanglement_residue = residue
    if residue > 10.0 * gate.tolerance:
        report.notes.append(
            f"flag entanglement residue {residue:.3g} above 10 x gate tolerance"
        )
    report.post_measurement_flag_amplitude = math.sqrt(probability_of_pattern(state, [flag], 1))
    record, _ = measure_qubits(state, [flag], rng)
    report.decision = "solution-exists" if record.outcome_bits == 1 else "no-solution"
    report.oracle_calls = oracle.call_counter - calls_before
    report.trials_used = 1
    report.applications_used = cfg.n
    report.flag_one_census = census
    report.succeeded = True
    return report, rng


def _dense_merge_counters(rows, width):
    m = rows.shape[0]
    blocks = rows.reshape(m, 2, 1 << width)
    c0 = np.argmax(np.abs(blocks[:, 0, :]) ** 2, axis=1)
    c1 = np.argmax(np.abs(blocks[:, 1, :]) ** 2, axis=1)
    sel = np.arange(m)
    a0 = blocks[sel, 0, c0]
    a1 = blocks[sel, 1, c1]
    kept = np.abs(a0) ** 2 + np.abs(a1) ** 2
    total = np.sum(np.abs(blocks) ** 2, axis=(1, 2))
    if np.any(kept < total * (1.0 - 1e-9)):
        raise CounterOverflowError("pair branches are not concentrated on single counts")
    csum = c0 + c1
    if np.any(csum >= (1 << width)):
        raise CounterOverflowError(
            f"count {int(csum.max())} does not fit in {width} counter qubits"
        )
    out = np.zeros_like(blocks)
    out[sel, 0, csum] = a0
    out[sel, 1, csum] = a1
    return out.reshape(m, 2 << width)


def dense_algorithm2_count(cfg):
    """Counting on an (n + width)-qubit register; returns the report."""
    oracle = cfg.oracle
    width = cfg.counter_width if cfg.counter_width is not None else cfg.n + 1
    rng = make_rng(cfg.seed)
    report = RunReport()
    calls_before = oracle.call_counter

    state = apply_hadamard_layer(new_basis_state(cfg.n + width, 0), range(cfg.n))
    # coherent |i, c> -> |i, c + f(i) mod 2**width>
    fvec = truth_vector(oracle).astype(np.int64)
    idx = np.arange(state.dim)
    i_part, c_part = idx >> width, idx & ((1 << width) - 1)
    src = (i_part << width) | ((c_part - fvec[i_part]) % (1 << width))
    oracle.call_counter += 1
    report.trials_used = 1
    state = StateVector(state.num_qubits, state.amplitudes[src])
    counter_qubits = list(range(cfg.n, cfg.n + width))
    try:
        for k in range(cfg.n):
            state = apply_conditional_subspace_map(
                state, [k] + counter_qubits, lambda rows: _dense_merge_counters(rows, width)
            )
            report.applications_used += 1
    except CounterOverflowError as exc:
        report.oracle_calls = oracle.call_counter - calls_before
        report.notes.append(f"counter overflow: {exc}")
        return report

    record, _ = measure_qubits(state, counter_qubits, rng)
    report.count = record.outcome_bits
    if record.outcome_probability < 1.0 - 1e-9:
        report.notes.append(
            f"counter readout probability {record.outcome_probability:.12f} below 1"
        )
    report.oracle_calls = oracle.call_counter - calls_before
    report.succeeded = True
    return report


def shrunk_algorithm2(monkeypatch, cfg):
    """run_algorithm2 with its random source kept: returns (report, rng)."""
    made = []

    def keep(seed):
        made.append(make_rng(seed))
        return made[-1]

    monkeypatch.setattr(algorithms, "make_rng", keep)
    return run_algorithm2(cfg), made[0]


def decision_cases():
    for n in range(1, 7):
        for sols in [()] + [(i,) for i in range(1 << n)]:
            yield n, sols
    rng = make_rng(88)
    for i in range(8):
        yield 8, () if i % 4 == 0 else (int(rng.integers(1 << 8)),)


@pytest.mark.parametrize("sigma", [0.0, 1e-3, 1e-1])
def test_shrinking_decision_matches_dense_register(monkeypatch, sigma):
    for i, (n, sols) in enumerate(decision_cases()):
        cfg = Alg2Config(n=n, oracle=spec_for(n, sols), noise_sigma=sigma, seed=i)
        got, got_rng = shrunk_algorithm2(monkeypatch, cfg)
        want, want_rng = dense_algorithm2(replace(cfg, oracle=spec_for(n, sols)))
        assert got.decision == want.decision, (n, sols)
        assert got.flag_one_census == want.flag_one_census, (n, sols)
        assert got.oracle_calls == want.oracle_calls == 1
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, (n, sols)
        p_got = got.post_measurement_flag_amplitude ** 2
        p_want = want.post_measurement_flag_amplitude ** 2
        assert abs(p_got - p_want) <= 1e-12, (n, sols, p_got, p_want)


def recorded_sweeps(monkeypatch, gate, cfg):
    """run_algorithm2 with the register size of each sweep recorded."""
    sizes = []
    sweep = gate.apply_to_register

    def recording(state, index_q, flag_q, noise=None):
        sizes.append(state.num_qubits)
        return sweep(state, index_q, flag_q, noise=noise)

    monkeypatch.setattr(gate, "apply_to_register", recording)
    report, rng = shrunk_algorithm2(monkeypatch, replace(cfg, gate=gate))
    monkeypatch.undo()
    return report, rng, sizes


@pytest.mark.parametrize("n", [2, 3])
def test_synthesized_gate_keeps_its_qubits_and_matches_dense_bitwise(monkeypatch, n):
    # the sandwich flag maps are not exact tables, so every sweep of a
    # build_N run sees the whole register and repeats the dense run exactly
    gate = build_N(None, 1e-6)
    for sols in [()] + [(i,) for i in range(1 << n)]:
        cfg = Alg2Config(n=n, oracle=spec_for(n, sols), gate=gate, seed=len(sols))
        want, want_rng = dense_algorithm2(cfg)
        got, got_rng, sizes = recorded_sweeps(monkeypatch, gate,
                                              replace(cfg, oracle=spec_for(n, sols)))
        assert sizes == [n + 1] * n, sols
        assert got.to_dict() == want.to_dict(), sols
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_table_gate_drops_each_plus_qubit_and_keeps_a_noisy_one(monkeypatch):
    gate = table_merge_gate()
    residues = []
    drop = algorithms._drop_plus_qubit

    def recording(amps, pos):
        out = drop(amps, pos)
        residues.append(out[1])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_drop_plus_qubit", recording)
        report, _, sizes = recorded_sweeps(monkeypatch, gate,
                                           Alg2Config(n=6, oracle=spec_for(6, (37,))))
    assert sizes == [7, 6, 5, 4, 3, 2]
    assert report.flag_one_census == [2, 4, 8, 16, 32, 64]
    # rounding residue of the six drops; the flag left alone is pure
    assert 0.0 < sum(residues) <= 6e-22
    assert report.entanglement_residue == pytest.approx(sum(residues), rel=1e-12, abs=0.0)
    # at sigma = 1e-3 this run's sweep of qubit 1 leaves it 6e-15 off |+>:
    # the qubit stays, so sweeps 2..7 run on one qubit more
    cfg = Alg2Config(n=8, oracle=spec_for(8, (78,)), noise_sigma=1e-3, seed=7)
    report, _, sizes = recorded_sweeps(monkeypatch, gate, cfg)
    assert sizes == [9, 8, 8, 7, 6, 5, 4, 3]
    want, _ = dense_algorithm2(replace(cfg, oracle=spec_for(8, (78,))))
    assert report.post_measurement_flag_amplitude ** 2 == pytest.approx(
        want.post_measurement_flag_amplitude ** 2, abs=1e-15)


def test_census_of_a_shrunk_register_counts_the_dense_components():
    # random registers put flag-one amplitudes on both sides of the threshold
    rng = make_rng(5)
    for n, dropped in ((3, 1), (4, 2), (6, 3), (5, 5)):
        for _ in range(20):
            rest = rng.normal(size=2 << (n - dropped)) + 1j * rng.normal(size=2 << (n - dropped))
            rest /= np.linalg.norm(rest)
            dense = StateVector(n + 1, np.kron(np.full(1 << dropped, 2.0 ** (-dropped / 2)), rest))
            shrunk = StateVector(n - dropped + 1, rest)
            assert algorithms._flag_one_census(shrunk, n, dropped) == dense_census(dense, n)


def test_labelled_counting_matches_dense_counter_register():
    rng = make_rng(808)
    widths = []
    for i in range(50):
        n = int(rng.integers(1, 9))
        tt = random_oracle(n, int(rng.integers(0, (1 << n) + 1)), rng)
        # every fifth run overflows a 1-qubit counter unless s < 2
        width = 1 if i % 5 == 0 else (None if i % 5 == 1 else int(rng.integers(1, n + 2)))
        widths.append(width)
        cfg = Alg2Config(n=n, oracle=OracleSpec(tt), counting=True, counter_width=width, seed=i)
        got = run_algorithm2_count(cfg)
        want = dense_algorithm2_count(replace(cfg, oracle=OracleSpec(tt)))
        assert got.to_dict() == want.to_dict(), (i, n, width)
    # the overflow note itself, on the fixture the CLI's exit-2 case uses
    cfg = Alg2Config(n=2, oracle=spec_for(2, (0, 1)), counting=True, counter_width=1)
    got = run_algorithm2_count(cfg)
    assert got.to_dict() == dense_algorithm2_count(replace(cfg, oracle=spec_for(2, (0, 1)))).to_dict()
    assert got.notes == ["counter overflow: count 2 does not fit in 1 counter qubits"]
    # the query ran and the first merge completed before the second overflowed
    assert (got.trials_used, got.applications_used) == (1, 1)


def test_labelled_counting_reaches_n14():
    rng = make_rng(1414)
    for s in (0, 1, 2, 777, 1 << 14):
        tt = random_oracle(14, s, rng)
        report = run_algorithm2_count(Alg2Config(n=14, oracle=OracleSpec(tt), counting=True))
        assert report.succeeded
        assert report.count == count_solutions_bruteforce(tt) == s
        assert report.oracle_calls == 1
    with pytest.raises(ValueError, match="capped at n = 20"):
        run_algorithm2_count(Alg2Config(n=21, oracle=spec_for(21, ()), counting=True))


def test_labelled_counting_refuses_a_swept_qubit_off_plus(monkeypatch):
    # the cascade drops a swept qubit only as an exact |+>; unequal branch
    # amplitudes stop the run instead of being folded away
    def tilted(state, qubits):
        amps = np.linspace(1.0, 2.0, state.dim)
        return StateVector(state.num_qubits, amps / np.linalg.norm(amps))

    monkeypatch.setattr(algorithms, "apply_hadamard_layer", tilted)
    report = run_algorithm2_count(Alg2Config(n=3, oracle=spec_for(3, (1,)), counting=True))
    assert not report.succeeded and report.count is None
    assert report.oracle_calls == report.trials_used == 1
    assert report.applications_used == 0  # stopped before the first merge
    assert len(report.notes) == 1 and report.notes[0].startswith("index qubit 0 left |+> by residue")
