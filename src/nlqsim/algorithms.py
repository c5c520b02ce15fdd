"""End-to-end drivers for the oracle decision and counting algorithms.

Both algorithms prepare a uniform superposition over the n-bit inputs,
query the oracle coherently once, and then use nonlinear dynamics to make
the answer macroscopically visible.

Flag-amplification route (`run_algorithm1`): undoing the input-register
rotations concentrates amplitude on the all-zeros input pattern; after a
successful measurement of that pattern the flag qubit holds
(N - s)|0> + s|1> up to normalization, with N = 2**n and s the solution
count.  The empty-oracle hypothesis is rotated onto the lower edge of the
stretch map's active region; each application of the map doubles the
offset of the true state from that classically tracked reference (the
reference is re-centered by a rigid rotation after every application).
Once the offset clears the region center, further applications let the
unstable fixed point push the two hypotheses to opposite poles, where a
single flag measurement decides.  The counting variant binary-searches s
by re-preparing the flag state each round and centering the current
estimate boundary on the unstable fixed point.

Pair-merge route (`run_algorithm2`): for each input qubit in turn, the
synthesized merge gate is applied to (that qubit, flag) across all basis
patterns of the remaining qubits, doubling the number of flag-one
components per iteration; after n iterations the flag is disentangled and
carries the decision.  The counting variant replaces the flag by a
counter register and the merge gate by an exact branch-table map that
adds the two counters of every pair.

Noise model: every runtime rotation angle and every stretch-map exponent
is jittered by Gaussian(0, sigma) per invocation.  Fixed matrices (the
Hadamards, NOT, fold and corrective unitaries) carry no angle parameter
and are left alone; the merge gate's internal rotate/phase angles are
jittered on every application.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gates import (
    BlochAngle,
    CompositeNGate,
    StretchMap,
    bloch_distance,
    ideal_merge_gate,
    rotation,
    state_bloch,
)
from .oracle import OracleSpec, apply_oracle, count_solutions_bruteforce, truth_vector
from .statevector import (
    StateVector,
    apply_hadamard_layer,
    block_rows,
    conditional_qubit_state,
    make_rng,
    measure_qubits,
    new_basis_state,
    probability_of_pattern,
)
from .weinberg import apply_conditional_subspace_map, lift_pairs

DEFAULT_GATE_EPS = 1e-6
RESOLVE_MARGIN = 1e-3  # polar distance from a pole considered resolved


@functools.lru_cache(maxsize=8)
def table_merge_gate(eps: float = 1e-9) -> CompositeNGate:
    """Table-realized merge gate, built once per tolerance and shared by runs."""
    return ideal_merge_gate(eps)


@dataclass
class NoiseModel:
    """Gaussian jitter source for gate parameters; sigma = 0 draws nothing."""

    sigma: float
    rng: np.random.Generator

    def perturb(self, value: float) -> float:
        """Jitter one gate parameter (rotation angle or stretch exponent)."""
        if self.sigma == 0.0:
            return value
        return float(value + self.rng.normal(0.0, self.sigma))


@dataclass
class RunReport:
    """Outcome and bookkeeping of one algorithm run."""

    decision: str | None = None
    count: int | None = None
    oracle_calls: int = 0
    trials_used: int = 0
    applications_used: int = 0
    applications_to_threshold: int | None = None
    separation_trajectory: list = field(default_factory=list)
    post_measurement_flag_amplitude: float | None = None
    succeeded: bool = False
    entanglement_residue: float | None = None
    flag_one_census: list | None = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "count": self.count,
            "oracle_calls": self.oracle_calls,
            "trials_used": self.trials_used,
            "applications_used": self.applications_used,
            "applications_to_threshold": self.applications_to_threshold,
            "separation_trajectory": [[int(k), float(s)] for k, s in self.separation_trajectory],
            "post_measurement_flag_amplitude": self.post_measurement_flag_amplitude,
            "succeeded": self.succeeded,
            "entanglement_residue": self.entanglement_residue,
            "flag_one_census": self.flag_one_census,
            "notes": list(self.notes),
        }


@dataclass
class Alg1Config:
    n: int
    oracle: OracleSpec
    stretch: StretchMap = field(default_factory=StretchMap)
    max_applications: int = 96
    max_trials: int | None = None
    noise_sigma: float = 0.0
    seed: int = 0
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.max_applications < 0:
            raise ValueError(f"max_applications must be >= 0, got {self.max_applications}")
        if self.max_trials is not None and self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")

    def trial_budget(self) -> int:
        if self.max_trials is not None:
            return self.max_trials
        return max(16, math.ceil((math.pi / self.stretch.eta) ** 2))


@dataclass
class Alg2Config:
    n: int
    oracle: OracleSpec
    gate: CompositeNGate | None = None
    counting: bool = False
    counter_width: int | None = None
    noise_sigma: float = 0.0
    seed: int = 0


def _checked_oracle(cfg, cap: int, kind: str) -> OracleSpec:
    """The config's oracle, once cfg.n matches it and is within the run's cap."""
    if cfg.n != cfg.oracle.num_vars:
        raise ValueError(f"config n={cfg.n} does not match oracle ({cfg.oracle.num_vars} vars)")
    if cfg.n > cap:
        raise ValueError(f"{kind} runs are capped at n = {cap}")
    return cfg.oracle


def flag_theta(n: int, s: int) -> float:
    """Bloch polar angle of the post-selected flag state for s solutions."""
    return 2.0 * math.atan2(s, (1 << n) - s)


def _rotate_pair(pair, bloch_delta: float, noise: NoiseModel | None = None):
    """Rigid rotation moving polar angles up by bloch_delta along the meridian."""
    ang = bloch_delta / 2.0
    if noise is not None:
        ang = noise.perturb(ang)
    r = rotation(-ang)
    c1, c2 = pair
    return (r[0, 0] * c1 + r[0, 1] * c2, r[1, 0] * c1 + r[1, 1] * c2)


def _stretch_pair(pair, m: StretchMap):
    """Stretch-map application through the preferred-basis prescription."""
    row = lift_pairs(np.array([pair], dtype=np.complex128), m)[0]
    return complex(row[0]), complex(row[1])


def _jittered_stretch(m: StretchMap, noise: NoiseModel) -> StretchMap:
    if noise.sigma == 0.0:
        return m
    lam = noise.perturb(m.lam)
    return replace(m, lam=min(lam, m.max_lambda()))


def _prepare_flag_state(n: int, oracle: OracleSpec, rng, max_trials: int):
    """Steps 1-3: superpose, query once, undo, and post-select on zeros.

    Returns (pair, trials_used, zero_pattern_probability) or
    (None, trials_used, None) when the trial budget runs out.  Every trial
    re-calls the oracle.
    """
    trials = 0
    while trials < max_trials:
        trials += 1
        state = apply_hadamard_layer(new_basis_state(n + 1, 0), range(n))
        state = apply_oracle(state, range(n), n, oracle)
        state = apply_hadamard_layer(state, range(n))
        record, state = measure_qubits(state, range(n), rng)
        if record.outcome_bits == 0:
            _, c0, c1 = conditional_qubit_state(state, n, 0)
            return (c0, c1), trials, record.outcome_probability
    return None, trials, None


def run_algorithm1(cfg: Alg1Config) -> RunReport:
    """Decide s = 0 versus s > 0 with the stretch-map amplification."""
    oracle = _checked_oracle(cfg, 16, "flag-amplification")
    rng = make_rng(cfg.seed)
    noise = NoiseModel(cfg.noise_sigma, rng)
    m = cfg.stretch
    report = RunReport()
    calls_before = oracle.call_counter

    prep, trials, p_zero = _prepare_flag_state(cfg.n, oracle, rng, cfg.trial_budget())
    report.trials_used = trials
    report.oracle_calls = oracle.call_counter - calls_before
    if prep is None:
        report.notes.append("trial budget exhausted before the zero pattern was seen")
        return report
    if trials > 1:
        report.notes.append("oracle re-called on failed trials")
    pair = prep
    report.post_measurement_flag_amplitude = float(abs(pair[1]))

    theta_edge = m.theta0 - m.eta / 2.0
    pair = _rotate_pair(pair, theta_edge, noise)
    ref = theta_edge  # classical trajectory of the empty-oracle hypothesis
    threshold = cfg.decision_threshold * math.pi
    # enough doublings to carry even a single-solution offset past the center
    theta_min = flag_theta(cfg.n, 1)
    amplify_cap = math.ceil(math.log2((m.eta / 2.0) / theta_min)) + 2

    traj = []
    apps = 0
    crossed_at = None
    while True:  # amplification: stretch + re-center the reference
        theta_act = state_bloch(*pair).theta
        traj.append((apps, bloch_distance(state_bloch(*pair), BlochAngle(ref, 0.0))))
        if crossed_at is None and theta_act > threshold:
            crossed_at = apps
        if crossed_at is not None and theta_act >= m.theta0 + m.eta / 4.0:
            break
        if crossed_at is None and apps >= amplify_cap:
            break
        if apps >= cfg.max_applications:
            break
        pair = _stretch_pair(pair, _jittered_stretch(m, noise))
        pair = _rotate_pair(pair, ref - m.polar_map(ref), noise)
        apps += 1

    while True:  # resolution: the unstable center splits the poles
        theta_act = state_bloch(*pair).theta
        resolved = ref <= RESOLVE_MARGIN and (
            crossed_at is None or theta_act >= math.pi - RESOLVE_MARGIN)
        if resolved or apps >= cfg.max_applications:
            break
        pair = _stretch_pair(pair, _jittered_stretch(m, noise))
        ref = float(m.polar_map(ref))
        apps += 1
        traj.append((apps, bloch_distance(state_bloch(*pair), BlochAngle(ref, 0.0))))

    report.applications_used = apps
    report.applications_to_threshold = crossed_at
    report.separation_trajectory = traj
    if not resolved:  # an unresolved flag would decide by chance: no decision
        report.notes.append("application budget exhausted before full resolution")
        return report
    record, _ = measure_qubits(StateVector(1, np.array(pair)), [0], rng)
    report.decision = "solution-exists" if record.outcome_bits == 1 else "no-solution"
    report.succeeded = True
    return report


def run_algorithm1_count(cfg: Alg1Config) -> RunReport:
    """Exact solution count by binary search on the flag angle.

    Each round re-prepares the post-selected flag state (one oracle call
    per trial), rotates the current estimate boundary onto the stretch
    map's unstable center, and lets the dynamics push the two boundary
    hypotheses to opposite poles before measuring.
    """
    oracle = _checked_oracle(cfg, 16, "flag-amplification")
    rng = make_rng(cfg.seed)
    noise = NoiseModel(cfg.noise_sigma, rng)
    m = cfg.stretch
    report = RunReport()
    calls_before = oracle.call_counter

    lo, hi = 0, 1 << cfg.n
    rounds = 0
    apps_total = 0
    traj = []
    while lo < hi:
        rounds += 1
        mid = (lo + hi) // 2
        prep, trials, _ = _prepare_flag_state(cfg.n, oracle, rng, cfg.trial_budget())
        report.trials_used += trials
        if prep is None:
            report.oracle_calls = oracle.call_counter - calls_before
            report.notes.append(f"trial budget exhausted in round {rounds}")
            return report
        pair = prep
        th_lo = flag_theta(cfg.n, mid)
        th_hi = flag_theta(cfg.n, mid + 1)
        delta = m.theta0 - 0.5 * (th_lo + th_hi)
        pair = _rotate_pair(pair, delta, noise)
        ref_lo, ref_hi = th_lo + delta, th_hi + delta
        apps = 0
        while apps < cfg.max_applications and not (
            ref_lo <= RESOLVE_MARGIN and ref_hi >= math.pi - RESOLVE_MARGIN
        ):
            pair = _stretch_pair(pair, _jittered_stretch(m, noise))
            ref_lo = float(m.polar_map(ref_lo))
            ref_hi = float(m.polar_map(ref_hi))
            apps += 1
            apps_total += 1
            traj.append((apps_total, ref_hi - ref_lo))
        if not (ref_lo <= RESOLVE_MARGIN and ref_hi >= math.pi - RESOLVE_MARGIN):
            report.oracle_calls = oracle.call_counter - calls_before
            report.applications_used = apps_total
            report.notes.append(f"application budget exhausted in round {rounds}")
            return report
        record, _ = measure_qubits(StateVector(1, np.array(pair)), [0], rng)
        if record.outcome_bits == 1:
            lo = mid + 1
        else:
            hi = mid
    report.count = lo
    report.oracle_calls = oracle.call_counter - calls_before
    report.applications_used = apps_total
    report.separation_trajectory = traj
    report.notes.append(f"{rounds} bisection rounds")
    report.succeeded = True
    return report


def _flag_one_census(state: StateVector, n: int) -> int:
    """Number of input-basis components carrying a significant flag-one part."""
    rows = state.amplitudes.reshape(-1, 2)
    threshold = 0.5 / math.sqrt(1 << n)
    return int(np.count_nonzero(np.abs(rows[:, 1]) > threshold))


def _flag_mixedness(state: StateVector, flag: int) -> float:
    """Smallest eigenvalue of the flag's reduced state (0 for a pure flag)."""
    rows = block_rows(state, [flag])
    rho = rows.T @ rows.conj()
    eigs = np.linalg.eigvalsh(rho)
    return float(max(0.0, eigs[0].real))


def run_algorithm2(cfg: Alg2Config) -> RunReport:
    """Single-query decision via the pair-merge cascade."""
    oracle = _checked_oracle(cfg, 14, "pair-merge")
    if not cfg.counting:
        s = count_solutions_bruteforce(oracle)
        if s > 1:
            raise ValueError(
                f"decision variant requires at most one solution, oracle has {s}"
            )
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
        census.append(_flag_one_census(state, cfg.n))

    residue = _flag_mixedness(state, flag)
    report.entanglement_residue = residue
    if residue > 10.0 * gate.tolerance:
        report.notes.append(
            f"flag entanglement residue {residue:.3g} above 10 x gate tolerance"
        )
    report.post_measurement_flag_amplitude = math.sqrt(
        probability_of_pattern(state, [flag], 1)
    )
    record, _ = measure_qubits(state, [flag], rng)
    report.decision = "solution-exists" if record.outcome_bits == 1 else "no-solution"
    report.oracle_calls = oracle.call_counter - calls_before
    report.trials_used = 1
    report.applications_used = cfg.n
    report.flag_one_census = census
    report.succeeded = True
    return report


class CounterOverflowError(Exception):
    """A pair merge produced a count the counter register cannot hold."""


def _apply_counting_oracle(state: StateVector, n: int, width: int,
                           oracle: OracleSpec) -> StateVector:
    """Coherent |i, c> -> |i, c + f(i) mod 2**width>; one counter tick."""
    fvec = truth_vector(oracle).astype(np.int64)
    idx = np.arange(state.dim)
    i_part = idx >> width
    c_part = idx & ((1 << width) - 1)
    src_c = (c_part - fvec[i_part]) % (1 << width)
    src = (i_part << width) | src_c
    oracle.call_counter += 1
    return StateVector(state.num_qubits, state.amplitudes[src])


def _merge_counters(rows: np.ndarray, width: int) -> np.ndarray:
    """Branch table (|0,c0> + |1,c1>)/sqrt(2) -> (|0,c0+c1> + |1,c0+c1>)/sqrt(2)."""
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


def run_algorithm2_count(cfg: Alg2Config) -> RunReport:
    """Exact solution count via the counter-register merge cascade."""
    oracle = _checked_oracle(cfg, 10, "counting cascade")
    width = cfg.counter_width if cfg.counter_width is not None else cfg.n + 1
    if width < 1:
        raise ValueError("counter_width must be >= 1")
    if cfg.n + width > 20:
        raise ValueError("register would exceed the 20-qubit cap")
    rng = make_rng(cfg.seed)
    report = RunReport()
    calls_before = oracle.call_counter

    state = apply_hadamard_layer(new_basis_state(cfg.n + width, 0), range(cfg.n))
    state = _apply_counting_oracle(state, cfg.n, width, oracle)
    counter_qubits = list(range(cfg.n, cfg.n + width))
    try:
        for k in range(cfg.n):
            state = apply_conditional_subspace_map(
                state, [k] + counter_qubits, lambda rows: _merge_counters(rows, width)
            )
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
    report.trials_used = 1
    report.applications_used = cfg.n
    report.succeeded = True
    return report
