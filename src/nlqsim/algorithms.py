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
carries the decision.  With an exact gate (`CompositeNGate.exact`), a
swept qubit left in |+> takes no further part, so the register drops it
(after checking its residue) and sweep k touches 2**(n-k+1) amplitudes
instead of 2**(n+1).  The counting variant replaces the flag by one integer counter label per
branch and the merge gate by an exact branch-table map that adds the two
labels of every pair; each of its sweeps halves the branches.

Run frame: the four drivers share one frame (`_driver`) that checks the
config against the oracle and the array budget, seeds the rng and noise
model, and on every exit sets oracle_calls from the oracle's counter.
The drivers record trials, applications and trajectory points as they
happen, so a report that stops on a budget keeps the work done so far.
`run_algorithm2` refuses counting configs: they run through
`run_algorithm2_count`.

Noise model: every runtime rotation angle and every stretch-map exponent
is jittered by Gaussian(0, sigma) per invocation.  Fixed matrices (the
Hadamards, NOT, fold and corrective unitaries) carry no angle parameter
and are left alone; the merge gate's internal rotate/phase angles are
jittered on every application.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .gates import (
    DEFAULT_GATE_EPS,
    BlochAngle,
    CompositeNGate,
    StretchMap,
    bloch_distance,
    ideal_merge_gate,
    rotation,
    state_bloch,
)
from .oracle import OracleSpec, apply_oracle, count_solutions_bruteforce
from .statevector import (
    StateVector,
    apply_hadamard_layer,
    block_rows,
    check_array_size,
    conditional_qubit_state,
    make_rng,
    measure_qubits,
    new_basis_state,
    probability_of_pattern,
)
from .weinberg import lift_pairs

RESOLVE_MARGIN = 1e-3  # polar distance from a pole considered resolved
# A swept index qubit leaves the register only if its residue 1 - <+|rho|+>
# is at or below this.  Rounding alone leaves at most about 1e-32 up to
# n = 19 with the table gate, while gate noise of sigma = 1e-3 leaves
# 1e-16 and more on some sweeps, and those qubits stay.
_PLUS_RESIDUE_MAX = 1e-22


@functools.lru_cache(maxsize=8)
def table_merge_gate(eps: float = DEFAULT_GATE_EPS) -> CompositeNGate:
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
        doc = asdict(self)
        doc["separation_trajectory"] = [[int(k), float(s)] for k, s in self.separation_trajectory]
        return doc


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
    counting: bool = False  # run_algorithm2 refuses True; the counting driver takes either
    counter_width: int | None = None
    noise_sigma: float = 0.0
    seed: int = 0


def _driver(kind: str, extra_qubits: int):
    """Turn `body(cfg, noise, report)` into the driver `run(cfg) -> RunReport`.

    `run` checks cfg.n against the oracle and a register of n +
    extra_qubits qubits against the array budget, then hands the body
    the seeded noise model and an empty report to fill.  Whenever the
    body returns, `run` sets oracle_calls from the oracle's counter.
    """
    def frame(body):
        @functools.wraps(body)
        def run(cfg) -> RunReport:
            if cfg.n != cfg.oracle.num_vars:
                raise ValueError(
                    f"config n={cfg.n} does not match oracle ({cfg.oracle.num_vars} vars)")
            check_array_size(f"{kind} runs are", cfg.n, extra_bits=extra_qubits)
            report = RunReport()
            calls_before = cfg.oracle.call_counter
            body(cfg, NoiseModel(cfg.noise_sigma, make_rng(cfg.seed)), report)
            report.oracle_calls = cfg.oracle.call_counter - calls_before
            return report
        del run.__wrapped__  # help() and inspect show run(cfg), not the body's parameters
        return run
    return frame


def flag_theta(n: int, s: int) -> float:
    """Bloch polar angle of the post-selected flag state for s solutions."""
    return 2.0 * math.atan2(s, (1 << n) - s)


def _rotate_pair(pair, bloch_delta: float, noise: NoiseModel):
    """Rigid rotation moving polar angles up by bloch_delta along the meridian."""
    r = rotation(-noise.perturb(bloch_delta / 2.0))
    c1, c2 = pair
    return (r[0, 0] * c1 + r[0, 1] * c2, r[1, 0] * c1 + r[1, 1] * c2)


def _stretch_pair(pair, m: StretchMap):
    """Stretch-map application through the preferred-basis prescription."""
    row = lift_pairs(np.array([pair], dtype=np.complex128), m)[0]
    return complex(row[0]), complex(row[1])


def _read_flag(pair, rng) -> int:
    """Measure the flag qubit in the state pair; returns the outcome bit."""
    record, _ = measure_qubits(StateVector(1, np.array(pair)), [0], rng)
    return record.outcome_bits


def _prepare_flag_state(n: int, oracle: OracleSpec, rng, max_trials: int):
    """Steps 1-3: superpose, query once, undo, and post-select on zeros.

    Returns (pair, trials_used), with pair None when the trial budget runs
    out.  Every trial re-calls the oracle.
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
            return (c0, c1), trials
    return None, trials


@_driver("flag-amplification", 1)
def run_algorithm1(cfg: Alg1Config, noise: NoiseModel, report: RunReport):
    """Decide s = 0 versus s > 0 with the stretch-map amplification."""
    m = cfg.stretch
    pair, report.trials_used = _prepare_flag_state(
        cfg.n, cfg.oracle, noise.rng, cfg.trial_budget())
    if pair is None:
        report.notes.append("trial budget exhausted before the zero pattern was seen")
        return
    if report.trials_used > 1:
        report.notes.append("oracle re-called on failed trials")
    report.post_measurement_flag_amplitude = float(abs(pair[1]))

    theta_edge = m.theta0 - m.eta / 2.0
    pair = _rotate_pair(pair, theta_edge, noise)
    ref = theta_edge  # classical trajectory of the empty-oracle hypothesis
    threshold = cfg.decision_threshold * math.pi
    # enough doublings to carry even a single-solution offset past the center
    theta_min = flag_theta(cfg.n, 1)
    amplify_cap = math.ceil(math.log2((m.eta / 2.0) / theta_min)) + 2

    traj = report.separation_trajectory
    crossed_at = None
    while True:  # amplification: stretch + re-center the reference
        apps = report.applications_used
        theta_act = state_bloch(*pair).theta
        traj.append((apps, bloch_distance(state_bloch(*pair), BlochAngle(ref, 0.0))))
        if crossed_at is None and theta_act > threshold:
            report.applications_to_threshold = crossed_at = apps
        if crossed_at is not None and theta_act >= m.theta0 + m.eta / 4.0:
            break
        if crossed_at is None and apps >= amplify_cap:
            break
        if apps >= cfg.max_applications:
            break
        pair = _stretch_pair(pair, m.jittered(noise))
        pair = _rotate_pair(pair, ref - m.polar_map(ref), noise)
        report.applications_used += 1

    while True:  # resolution: the unstable center splits the poles
        theta_act = state_bloch(*pair).theta
        resolved = ref <= RESOLVE_MARGIN and (
            crossed_at is None or theta_act >= math.pi - RESOLVE_MARGIN)
        if resolved or report.applications_used >= cfg.max_applications:
            break
        pair = _stretch_pair(pair, m.jittered(noise))
        ref = float(m.polar_map(ref))
        report.applications_used += 1
        traj.append((report.applications_used,
                     bloch_distance(state_bloch(*pair), BlochAngle(ref, 0.0))))

    if not resolved:  # an unresolved flag would decide by chance: no decision
        report.notes.append("application budget exhausted before full resolution")
        return
    report.decision = "solution-exists" if _read_flag(pair, noise.rng) == 1 else "no-solution"
    report.succeeded = True


@_driver("flag-amplification", 1)
def run_algorithm1_count(cfg: Alg1Config, noise: NoiseModel, report: RunReport):
    """Exact solution count by binary search on the flag angle.

    Each round re-prepares the post-selected flag state (one oracle call
    per trial), rotates the current estimate boundary onto the stretch
    map's unstable center, and lets the dynamics push the two boundary
    hypotheses to opposite poles before measuring.
    """
    m = cfg.stretch
    traj = report.separation_trajectory
    lo, hi = 0, 1 << cfg.n
    rounds = 0
    while lo < hi:
        rounds += 1
        mid = (lo + hi) // 2
        pair, trials = _prepare_flag_state(cfg.n, cfg.oracle, noise.rng, cfg.trial_budget())
        report.trials_used += trials
        if pair is None:
            report.notes.append(f"trial budget exhausted in round {rounds}")
            return
        th_lo = flag_theta(cfg.n, mid)
        th_hi = flag_theta(cfg.n, mid + 1)
        delta = m.theta0 - 0.5 * (th_lo + th_hi)
        pair = _rotate_pair(pair, delta, noise)
        ref_lo, ref_hi = th_lo + delta, th_hi + delta
        apps = 0
        while not (ref_lo <= RESOLVE_MARGIN and ref_hi >= math.pi - RESOLVE_MARGIN):
            if apps >= cfg.max_applications:
                report.notes.append(f"application budget exhausted in round {rounds}")
                return
            pair = _stretch_pair(pair, m.jittered(noise))
            ref_lo = float(m.polar_map(ref_lo))
            ref_hi = float(m.polar_map(ref_hi))
            apps += 1
            report.applications_used += 1
            traj.append((report.applications_used, ref_hi - ref_lo))
        if _read_flag(pair, noise.rng) == 1:
            lo = mid + 1
        else:
            hi = mid
    report.count = lo
    report.notes.append(f"{rounds} bisection rounds")
    report.succeeded = True


def _flag_one_census(state: StateVector, n: int, dropped: int) -> int:
    """Number of input-basis components carrying a significant flag-one part.

    After `dropped` |+> index qubits have left the register, each row
    stands for 2**dropped components, its amplitudes sqrt(2)**dropped
    times theirs.
    """
    rows = state.amplitudes.reshape(-1, 2)
    threshold = 0.5 / math.sqrt(1 << n) * math.sqrt(1 << dropped)
    return (1 << dropped) * int(np.count_nonzero(np.abs(rows[:, 1]) > threshold))


def _drop_plus_qubit(amps: np.ndarray, pos: int) -> tuple[np.ndarray | None, float]:
    """Project qubit pos of the register amps onto |+> and remove it.

    With r0, r1 the two halves of the (2**pos, 2, rest) view, returns
    ((r0 + r1) / sqrt(2) flattened, 0.5 ||r0 - r1||^2); the second value
    is 1 - <+|rho|+> of that qubit, computed without cancellation.  The
    register comes back as None when the residue is above
    _PLUS_RESIDUE_MAX: the qubit is then not a |+> product and must stay.
    """
    halves = amps.reshape(1 << pos, 2, -1)
    diff = halves[:, 0] - halves[:, 1]
    residue = 0.5 * float(np.vdot(diff, diff).real)
    if residue > _PLUS_RESIDUE_MAX:
        return None, residue
    return ((halves[:, 0] + halves[:, 1]) / math.sqrt(2.0)).reshape(-1), residue


def _flag_mixedness(state: StateVector, flag: int) -> float:
    """Smallest eigenvalue of the flag's reduced state (0 for a pure flag)."""
    rows = block_rows(state, [flag])
    rho = rows.T @ rows.conj()
    eigs = np.linalg.eigvalsh(rho)
    return float(max(0.0, eigs[0].real))


@_driver("pair-merge", 1)
def run_algorithm2(cfg: Alg2Config, noise: NoiseModel, report: RunReport):
    """Single-query decision via the pair-merge cascade."""
    if cfg.counting:
        raise ValueError("counting configs run through run_algorithm2_count, not the decision driver")
    s = count_solutions_bruteforce(cfg.oracle)
    if s > 1:
        raise ValueError(f"decision variant requires at most one solution, oracle has {s}")
    gate = cfg.gate if cfg.gate is not None else table_merge_gate()

    state = apply_hadamard_layer(new_basis_state(cfg.n + 1, 0), range(cfg.n))
    state = apply_oracle(state, range(cfg.n), cfg.n, cfg.oracle)
    report.trials_used = 1
    # Only an exact gate may shrink the register: a sandwich gate's
    # evolution shears a 1e-16 change of its input into an O(1) change of
    # P(flag = 1) a few sweeps later, so it runs dense.  Swept qubits that
    # stay sit in front of the unswept ones, so the next index qubit is at
    # position `kept`; the flag stays last.
    report.flag_one_census = census = []
    kept, dropped, dropped_residue = 0, 0, 0.0
    for _ in range(cfg.n):
        state = gate.apply_to_register(state, kept, state.num_qubits - 1, noise=noise)
        report.applications_used += 1
        amps = None
        if gate.exact:
            amps, residue = _drop_plus_qubit(state.amplitudes, kept)
        if amps is None:
            kept += 1
        else:
            state = StateVector(state.num_qubits - 1, amps)
            dropped += 1
            dropped_residue += residue
        census.append(_flag_one_census(state, cfg.n, dropped))

    flag = state.num_qubits - 1
    residue = dropped_residue + _flag_mixedness(state, flag)
    report.entanglement_residue = residue
    if residue > 10.0 * gate.tolerance:
        report.notes.append(
            f"flag entanglement residue {residue:.3g} above 10 x gate tolerance"
        )
    report.post_measurement_flag_amplitude = math.sqrt(
        probability_of_pattern(state, [flag], 1)
    )
    record, _ = measure_qubits(state, [flag], noise.rng)
    report.decision = "solution-exists" if record.outcome_bits == 1 else "no-solution"
    report.succeeded = True


class CounterOverflowError(Exception):
    """A pair merge produced a count the counter register cannot hold."""


def _merge_counters(labels: np.ndarray, width: int) -> np.ndarray:
    """Branch table (|0,c0> + |1,c1>)/sqrt(2) -> (|0,c0+c1> + |1,c0+c1>)/sqrt(2)
    on counter labels: labels is the (2, m) pair of halves c0, c1, and the m
    sums come back; a sum above the width-qubit counter is an overflow."""
    csum = labels[0] + labels[1]
    if int(csum.max()) >= (1 << width):
        raise CounterOverflowError(
            f"count {int(csum.max())} does not fit in {width} counter qubits"
        )
    return csum


@_driver("counting cascade", 0)
def run_algorithm2_count(cfg: Alg2Config, noise: NoiseModel, report: RunReport):
    """Exact solution count via the merge cascade on labelled branches.

    Branch i carries an amplitude and its counter value as an integer
    label, which the one coherent query (`OracleSpec.query`) sets to f(i).
    Sweep k merges the branch pairs that differ in index bit k, adding
    their labels, and drops that qubit, which the merge leaves in |+>:
    2**(n-k) amplitudes and labels remain, and the last branch holds the
    count.  A pair whose amplitudes differ stops the run with a note
    instead of being merged.  The noise model draws nothing: the cascade
    has no angles.
    """
    width = cfg.counter_width if cfg.counter_width is not None else cfg.n + 1
    if width < 1:
        raise ValueError("counter_width must be >= 1")

    amps = apply_hadamard_layer(new_basis_state(cfg.n, 0), range(cfg.n)).amplitudes
    labels = cfg.oracle.query().astype(np.int64)
    report.trials_used = 1
    for k in range(cfg.n):
        amps, residue = _drop_plus_qubit(amps, 0)
        if amps is None:
            report.notes.append(f"index qubit {k} left |+> by residue {residue:.3g}")
            return
        try:
            labels = _merge_counters(labels.reshape(2, -1), width)
        except CounterOverflowError as exc:
            report.notes.append(f"counter overflow: {exc}")
            return
        report.applications_used += 1

    report.count = int(labels[0])  # read out with probability 1 - (dropped residues)
    report.succeeded = True
