"""Nonlinear single-qubit gates and the composite two-qubit merge gate.

Unitary rotations move states around the Bloch sphere but never change
the angle between two states; the nonlinear evolution of `weinberg` twists
the sphere instead, advancing each latitude at its own rate.  Sandwiching
an aligned evolution between a rotation and its inverse therefore yields
maps that contract or expand the angle between two designated states:

* a contraction gate sending both |0> and |1> to within eps of |0>,
* an expansion gate sending one known state to |1> while fixing |0>,
* their assembly (with two fixed unitaries, a NOT and a final rotation)
  into an AND-like two-qubit gate N on (index, flag) pairs:

      |00> + |11>  ->  |01> + |11>
      |01> + |10>  ->  |01> + |11>
      |00> + |10>  ->  |00> + |10>

The evolution step of each sandwich relies on a phase-alignment time from
`find_phase_time`; every pass here uses a `phase_aligned_hbar` profile for
which that time is exact, so gate accuracy is set by the design offsets
rather than by a Diophantine search.

The gate's action on states other than its calibration inputs is a
well-defined artifact of the synthesis, not a contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .statevector import StateVector, _check_unitary, block_rows, from_block_rows
from .weinberg import (
    HbarFunction,
    PhaseAlignedHbar,
    PhaseAlignmentError,
    PhaseTargetSolution,
    find_phase_time,
    lift_pairs,
    omega12,
    phase_aligned_hbar,
)

SQ2 = math.sqrt(2.0)
DEFAULT_GATE_EPS = 1e-6  # table-gate tolerance of library runs and the CLI alike

# Self-inverse Bell-type basis change: entry stage of the merge gate.
# Folds the mirrored pair onto |00> and the anti-mirrored pair onto |01>.
FOLD_UNITARY = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
        [1, 0, 0, -1],
    ],
    dtype=np.complex128,
) / SQ2

X_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)
H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / SQ2

# The three pair cases on (index, flag) and their merge-gate images.
PAIR_CASE_INPUTS = (
    np.array([1, 0, 0, 1], dtype=np.complex128) / SQ2,  # flag mirrors index
    np.array([0, 1, 1, 0], dtype=np.complex128) / SQ2,  # flag anti-mirrors index
    np.array([1, 0, 1, 0], dtype=np.complex128) / SQ2,  # flag clear
)
PAIR_CASE_TARGETS = (
    np.array([0, 1, 0, 1], dtype=np.complex128) / SQ2,
    np.array([0, 1, 0, 1], dtype=np.complex128) / SQ2,
    np.array([1, 0, 1, 0], dtype=np.complex128) / SQ2,
)


class SynthesisError(Exception):
    """Gate synthesis could not reach the requested tolerance."""


class BlochAngle(NamedTuple):
    theta: float
    phi_az: float


def rotation(phi: float) -> np.ndarray:
    """R(phi): |0> -> cos(phi)|0> - sin(phi)|1>, |1> -> sin(phi)|0> + cos(phi)|1>."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]], dtype=np.complex128)


def state_bloch(c1: complex, c2: complex) -> BlochAngle:
    """Bloch coordinates of a pure qubit state (azimuth 0 at the poles)."""
    theta = 2.0 * math.atan2(abs(c2), abs(c1))
    if abs(c1) < 1e-300 or abs(c2) < 1e-300:
        return BlochAngle(theta, 0.0)
    az = (np.angle(c2) - np.angle(c1)) % (2.0 * math.pi)
    return BlochAngle(theta, float(az))


def bloch_distance(p: BlochAngle, q: BlochAngle) -> float:
    """Great-circle angle between two Bloch points, in [0, pi]."""
    dot = math.cos(p.theta) * math.cos(q.theta) + math.sin(p.theta) * math.sin(
        q.theta
    ) * math.cos(p.phi_az - q.phi_az)
    return math.acos(min(1.0, max(-1.0, dot)))


def state_angle(a, b) -> float:
    """Hilbert-space angle arccos|<a|b>| in [0, pi/2]; half the Bloch angle."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.acos(min(1.0, overlap))


class _PairMap:
    """The single-pair form of a map whose apply_batch acts on (m, 2) rows."""

    def apply(self, c1: complex, c2: complex) -> tuple[complex, complex]:
        row = self.apply_batch(np.array([[c1, c2]]))[0]
        return complex(row[0]), complex(row[1])


def _unit_phase(z: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """z / |z| elementwise (mag is |z|), and 1 where z is 0."""
    nonzero = mag > 0
    return np.where(nonzero, z / np.where(nonzero, mag, 1.0), 1.0)


def _polar_remap(pairs: np.ndarray, theta_fn, keep_norm: bool, out=None) -> np.ndarray:
    """Send each row's polar angle 2 atan2(|c2|, |c1|) through theta_fn,
    keeping both component phases, into out (a new array by default, or
    pairs itself).  The image has unit norm, or the row's own with keep_norm."""
    mag0, mag1 = np.abs(pairs[:, 0]), np.abs(pairs[:, 1])
    theta = theta_fn(2.0 * np.arctan2(mag1, mag0))
    scale = np.sqrt(mag0**2 + mag1**2) if keep_norm else 1.0
    out = np.empty_like(pairs) if out is None else out
    out[:, 0] = scale * np.cos(theta / 2.0) * _unit_phase(pairs[:, 0], mag0)
    out[:, 1] = scale * np.sin(theta / 2.0) * _unit_phase(pairs[:, 1], mag1)
    return out


@dataclass(frozen=True)
class NonlinearMap(_PairMap):
    """Norm-preserving single-qubit map built from rotate/phase/evolve stages.

    Stage kinds: ("rotate", phi), ("phase", zeta), ("evolve", (hbar, t)).
    With a noise model attached, every rotate/phase angle is jittered once
    per apply_batch invocation; evolution parameters are calibrated
    constants and are not jittered.
    """

    stages: tuple
    tolerance: float
    descriptor: str

    def apply_batch(self, pairs: np.ndarray, noise=None) -> np.ndarray:
        out = np.array(pairs, dtype=np.complex128, copy=True)
        for kind, payload in self.stages:
            if kind == "rotate":
                ang = payload if noise is None else noise.perturb(payload)
                out = out @ rotation(ang).T
            elif kind == "phase":
                ang = payload if noise is None else noise.perturb(payload)
                out[:, 1] *= np.exp(1j * ang)
            elif kind == "evolve":
                hbar, t = payload
                norms = np.sum(np.abs(out) ** 2, axis=1)
                a = np.abs(out[:, 1]) ** 2 / norms
                w1, w2 = omega12(hbar, a)
                out[:, 0] *= np.exp(-1j * np.asarray(w1) * t)
                out[:, 1] *= np.exp(-1j * np.asarray(w2) * t)
            else:
                raise ValueError(f"unknown stage kind {kind!r}")
        return out

    def schedule(self) -> list:
        """Angle/time schedule for audit dumps."""
        items = []
        for kind, payload in self.stages:
            if kind == "evolve":
                items.append({"stage": "evolve", "t": float(payload[1]),
                              "hbar_degree": payload[0].degree})
            else:
                items.append({"stage": kind, "angle": float(payload)})
        return items


def n_minus_single_pass(c1: complex, c2: complex, phi: float, h: HbarFunction,
                        sol: PhaseTargetSolution, tolerance: float = 1e-3):
    """One contraction pass R(-phi) o evolve(t*) o R(phi).

    On |0> and |1> this yields cos(2 phi)|0> + sin(2 phi)|1> and |1>
    respectively, up to the phase-solution residual: the pair angle
    shrinks by 2 phi.
    """
    if abs(sol.phi - phi) > 1e-12:
        raise ValueError("phase solution was computed for a different rotation angle")
    if sol.residual > tolerance:
        raise ValueError(
            f"stale phase solution: residual {sol.residual:.3g} > tolerance {tolerance:.3g}"
        )
    pass_map = NonlinearMap(
        stages=(("rotate", phi), ("evolve", (h, sol.t_star)), ("rotate", -phi)),
        tolerance=tolerance,
        descriptor=f"contraction-pass(phi={phi:.6g})",
    )
    return pass_map.apply(c1, c2)


def _pass_evolution(h: HbarFunction | None, phi: float, eps: float,
                    t_max: float | None, what: str) -> tuple:
    """The ("evolve", (profile, t*)) stage of a sandwich pass at rotation phi,
    searched to tolerance eps; h None builds a phase-aligned profile for phi,
    and t_max None a horizon that reaches its exact time."""
    h_use = h if h is not None else phase_aligned_hbar(math.sin(phi) ** 2, math.cos(phi) ** 2)
    if t_max is None:
        t_max = 4.0 * math.pi / h_use.omega0 if isinstance(h_use, PhaseAlignedHbar) else 2000.0
    try:
        sol = find_phase_time(h_use, phi, eps=max(eps, 1e-12), t_max=t_max)
    except PhaseAlignmentError as exc:
        raise SynthesisError(
            f"{what} pass at phi={phi:.6g} found no phase solution: {exc}"
        ) from exc
    return ("evolve", (h_use, sol.t_star))


def build_n_minus(h: HbarFunction | None, eps: float,
                  t_max: float | None = None) -> NonlinearMap:
    """Contraction gate: both |0> and |1> land within Bloch angle eps of |0>.

    A single pass with phi just below pi/4 folds |0> onto a point a design
    offset eps/2 away from |1>, leaves |1> in place, and a final rigid
    rotation carries |1> to |0>.  With h None, a phase-aligned profile for
    the pass rotation is constructed; a caller-supplied profile must admit
    a phase solution at the pass angle or synthesis fails.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    offset = min(eps / 2.0, 0.5)
    phi = (math.pi - offset) / 4.0
    gate = NonlinearMap(
        stages=(
            ("rotate", phi),
            _pass_evolution(h, phi, offset / 10.0, t_max, "contraction"),
            ("rotate", -phi),
            ("rotate", math.pi / 2.0),
        ),
        tolerance=eps,
        descriptor=f"n-minus(eps={eps:.3g}, passes=1)",
    )
    for basis in ((1.0, 0.0), (0.0, 1.0)):
        img = gate.apply(*basis)
        dist = bloch_distance(state_bloch(*img), BlochAngle(0.0, 0.0))
        if dist > eps:
            raise SynthesisError(
                f"contraction gate image of {basis} is {dist:.3g} from |0>, above eps={eps:.3g}"
            )
    return gate


def build_n_plus(h: HbarFunction | None, x: complex, y: complex, eps: float,
                 t_max: float | None = None) -> NonlinearMap:
    """Expansion gate: sends the given x|0> + y|1> to |1>, fixes |0>.

    Valid only for the calibration pair (x, y); other inputs are merely
    norm-preserved.  The pass pins |0> at the profile's frozen latitude
    (exactly, all its phases are 1 there) and reflects the calibration
    state across the axis, so the image reaches |1> up to the residual.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    norm = math.hypot(abs(x), abs(y))
    if norm <= 0.0:
        raise SynthesisError("zero calibration state")
    x, y = complex(x) / norm, complex(y) / norm
    chi = math.acos(min(1.0, abs(x)))
    if 2.0 * chi <= eps:
        raise SynthesisError("calibration state is degenerate with |0>")
    zeta = float(np.angle(x) - np.angle(y)) if abs(y) > 0 else 0.0
    stages: list = [("phase", zeta)]
    phi = math.pi / 4.0 - chi / 2.0
    if phi > 1e-9:
        rho = math.pi / 2.0 - phi
        stages += [("rotate", rho), _pass_evolution(h, phi, eps / 10.0, t_max, "expansion"),
                   ("rotate", -rho)]
    gate = NonlinearMap(
        stages=tuple(stages),
        tolerance=eps,
        descriptor=f"n-plus(chi={chi:.6g}, eps={eps:.3g})",
    )
    img = gate.apply(x, y)
    dist_one = bloch_distance(state_bloch(*img), BlochAngle(math.pi, 0.0))
    img0 = gate.apply(1.0, 0.0)
    dist_zero = bloch_distance(state_bloch(*img0), BlochAngle(0.0, 0.0))
    if dist_one > eps or dist_zero > eps:
        raise SynthesisError(
            f"expansion gate misses targets: to-|1> {dist_one:.3g}, keep-|0> {dist_zero:.3g}"
        )
    return gate


def _pinning_unitary(a_state: np.ndarray) -> np.ndarray:
    """Unitary fixing |00> and carrying a_state to x|00> + sqrt(1-|x|^2)|01>.

    x = <00|a_state> is forced by unitarity; the map is the minimal
    rotation in the plane spanned by the residual of a_state and |01>,
    acting as the identity on the orthogonal complement.
    """
    a_state = np.asarray(a_state, dtype=np.complex128)
    x = complex(a_state[0])
    resid = a_state.copy()
    resid[0] = 0.0
    s = float(np.linalg.norm(resid))
    if s < 1e-12:
        return np.eye(4, dtype=np.complex128)
    a = resid / s
    b = np.zeros(4, dtype=np.complex128)
    b[1] = 1.0
    c = complex(np.vdot(a, b))
    b_perp = b - c * a
    s2 = float(np.linalg.norm(b_perp))
    eye = np.eye(4, dtype=np.complex128)
    if s2 < 1e-12:
        return eye + (c / abs(c) - 1.0) * np.outer(a, a.conj())
    v2 = b_perp / s2
    b2 = (a - np.conj(c) * b) / s2
    u = (
        np.outer(b, a.conj())
        + np.outer(b2, v2.conj())
        + eye
        - np.outer(a, a.conj())
        - np.outer(v2, v2.conj())
    )
    return u


@dataclass
class CompositeNGate:
    """Synthesized AND-like merge gate on an (index, flag) qubit pair.

    stages is the ordered audit list; kinds are "unitary2q" (fixed 4x4),
    "flag_map" (NonlinearMap via the preferred-basis prescription),
    "flag_unitary"/"index_unitary" (fixed 2x2) and "flag_phase" (angle).
    It is stored as a tuple, and every fixed matrix is checked for
    unitarity once, here, when the sweep's row operators are built.
    """

    stages: tuple
    fidelity: float
    tolerance: float
    case_fidelities: tuple[float, float, float] = (0.0, 0.0, 0.0)
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.stages = tuple(self.stages)
        # (kind, operator) per stage: "rows" right-multiplies the (m, 4) rows,
        # "pairs" the (2m, 2) flag pairs
        ops = []
        for kind, payload in self.stages:
            if kind == "unitary2q":
                ops.append(("rows", _check_unitary(payload, 4).T))
            elif kind == "flag_unitary":
                ops.append(("pairs", _check_unitary(payload, 2).T))
            elif kind == "index_unitary":
                ops.append(("rows", np.kron(_check_unitary(payload, 2), np.eye(2)).T))
            elif kind in ("flag_map", "flag_phase"):
                ops.append((kind, payload))
            else:
                raise ValueError(f"unknown stage kind {kind!r}")
        self._sweep_ops = tuple(ops)

    def apply_to_register(self, state: StateVector, index_q: int, flag_q: int,
                          noise=None) -> StateVector:
        """One sweep: every stage acts on the (m, 4) rows |index flag>, gathered
        once; a flag map lifts each (row, index bit) flag pair as a branch."""
        rows = block_rows(state, (index_q, flag_q))
        for kind, op in self._sweep_ops:
            if kind == "rows":
                rows = rows @ op
            elif kind == "pairs":
                rows = (rows.reshape(-1, 2) @ op).reshape(-1, 4)
            elif kind == "flag_map":
                lift_pairs(rows.reshape(-1, 2),
                           lambda pairs, m=op: m.apply_batch(pairs, noise=noise))
            else:
                ang = op if noise is None else noise.perturb(op)
                rows[:, 0::2] *= np.exp(1j * ang)
        return from_block_rows(state, (index_q, flag_q), rows)

    def apply_to_pair(self, vec4) -> np.ndarray:
        """The sweep on a lone (index, flag) pair: the m = 1 case."""
        state = StateVector(2, np.asarray(vec4, dtype=np.complex128))
        return self.apply_to_register(state, 0, 1).amplitudes

    def audit(self) -> dict:
        stages = []
        for kind, payload in self.stages:
            if kind in ("unitary2q", "flag_unitary", "index_unitary"):
                stages.append({
                    "stage": kind,
                    "matrix_re": np.real(payload).tolist(),
                    "matrix_im": np.imag(payload).tolist(),
                })
            elif kind == "flag_map":
                stages.append({
                    "stage": kind,
                    "descriptor": payload.descriptor,
                    "schedule": payload.schedule(),
                })
            else:
                stages.append({"stage": kind, "angle": float(payload)})
        return {
            "stages": stages,
            "fidelity": self.fidelity,
            "case_fidelities": list(self.case_fidelities),
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }


def _check_gate_eps(eps: float) -> None:
    # at eps >= 1 the 1 - eps fidelity bound passes a gate of any fidelity
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")


def _assemble_merge_gate(n_minus, make_n_plus, eps: float, label: str, digits: int,
                         notes: tuple = ()) -> CompositeNGate:
    """The merge-gate chain around the contraction flag map n_minus.

    Chain: fold unitary, n_minus on the flag, a corrective unitary pinning
    the fold's leftover onto the flag axis, the expansion flag map
    make_n_plus(x, y) calibrated to the pinned leftover x|00> + y|01>, NOT
    on the flag, a pi/2 rotation (Hadamard) on the index, and a
    flag-conditioned phase trim so the flag-clear case returns with phase
    exactly +1.  Every pair-case fidelity must reach 1 - eps, or a
    SynthesisError names the gate as label and prints the fidelities to
    the given number of digits.
    """
    # Calibrate the corrective unitary and the expansion gate against the
    # flag-clear case, whose post-contraction state the chain leaves free.
    leftover = CompositeNGate((("unitary2q", FOLD_UNITARY), ("flag_map", n_minus)), 0.0,
                              eps).apply_to_pair(PAIR_CASE_INPUTS[2])
    correct = _pinning_unitary(leftover)
    pinned = correct @ leftover
    stray = math.hypot(abs(pinned[2]), abs(pinned[3]))
    if stray > 1e-9:
        notes += (f"pinning left {stray:.3g} outside the flag axis",)
    stages = (
        ("unitary2q", FOLD_UNITARY),
        ("flag_map", n_minus),
        ("unitary2q", correct),
        ("flag_map", make_n_plus(complex(pinned[0]), complex(pinned[1]))),
        ("flag_unitary", X_GATE),
        ("index_unitary", H_GATE),
    )
    out_c = CompositeNGate(stages, 0.0, eps).apply_to_pair(PAIR_CASE_INPUTS[2])
    mu = float(np.angle(np.vdot(PAIR_CASE_TARGETS[2], out_c)))
    gate = CompositeNGate(stages + (("flag_phase", -mu),), 0.0, eps, notes=notes)
    fids = tuple(float(abs(np.vdot(target, gate.apply_to_pair(case))) ** 2)
                 for case, target in zip(PAIR_CASE_INPUTS, PAIR_CASE_TARGETS))
    gate.case_fidelities, gate.fidelity = fids, min(fids)
    if gate.fidelity < 1.0 - eps:
        raise SynthesisError(
            f"{label} fidelities "
            + ", ".join(f"{f:.{digits}f}" for f in fids)
            + f" fall below 1 - eps = {1.0 - eps:.{digits}f}"
        )
    return gate


def build_N(h: HbarFunction | None, eps: float) -> CompositeNGate:
    """Assemble the merge gate; every pair-case fidelity must reach 1 - eps.

    The chain is that of _assemble_merge_gate, with a contraction sandwich
    (build_n_minus) and an expansion sandwich (build_n_plus) as its two
    flag maps, at the tolerances sqrt(eps) and sqrt(eps) / 2.

    The expansion stage always uses its own phase-aligned profile (its
    operating latitude depends on the measured leftover state); a
    caller-supplied h applies to the contraction stage only.
    """
    _check_gate_eps(eps)
    budget = math.sqrt(eps)
    try:
        n_minus = build_n_minus(h, budget)
    except SynthesisError as exc:
        raise SynthesisError(f"contraction stage failed: {exc}") from exc

    def make_n_plus(x: complex, y: complex) -> NonlinearMap:
        try:
            return build_n_plus(None, x, y, budget / 2.0)
        except SynthesisError as exc:
            raise SynthesisError(f"expansion stage failed: {exc}") from exc

    return _assemble_merge_gate(n_minus, make_n_plus, eps, "merge gate", 12)


@dataclass(frozen=True)
class StretchMap:
    """Piecewise-linear polar-angle map with an exponential stretch region.

    Inside [theta0 - eta/2, theta0 + eta/2] the map is
    theta0 + exp(lam) * (theta - theta0); outside it is linear, continuous,
    monotone, and fixes 0 and pi, so [0, pi] maps onto [0, pi].  Azimuth
    is never touched.
    """

    theta0: float = math.pi / 2.0
    eta: float = math.pi / 4.0
    lam: float = math.log(2.0)

    def __post_init__(self):
        lo, hi = self.region
        if not (0.0 < lo < hi < math.pi):
            raise ValueError("stretch region must lie strictly inside (0, pi)")
        growth = math.exp(self.lam)
        if not (0.0 < self.theta0 - growth * self.eta / 2.0
                and self.theta0 + growth * self.eta / 2.0 < math.pi):
            raise ValueError("stretched region image must stay inside (0, pi)")

    @property
    def region(self) -> tuple[float, float]:
        return self.theta0 - self.eta / 2.0, self.theta0 + self.eta / 2.0

    def max_lambda(self, margin: float = 1e-6) -> float:
        """Largest exponent keeping the map valid (used to clamp jitter)."""
        cap = min(self.theta0 - margin, math.pi - self.theta0 - margin)
        return math.log(cap / (self.eta / 2.0))

    def polar_map(self, theta):
        theta = np.asarray(theta, dtype=float)
        lo, hi = self.region
        growth = math.exp(self.lam)
        lo_img = self.theta0 - growth * self.eta / 2.0
        hi_img = self.theta0 + growth * self.eta / 2.0
        inside = self.theta0 + growth * (theta - self.theta0)
        below = theta * (lo_img / lo)
        above = math.pi - (math.pi - theta) * (math.pi - hi_img) / (math.pi - hi)
        out = np.where(theta < lo, below, np.where(theta > hi, above, inside))
        out = np.clip(out, 0.0, math.pi)
        return float(out) if out.ndim == 0 else out

    def apply_batch(self, pairs: np.ndarray, noise=None) -> np.ndarray:
        return _polar_remap(np.asarray(pairs, dtype=np.complex128), self.polar_map,
                            keep_norm=False)


@dataclass(frozen=True)
class MergeTableMap(_PairMap):
    """Explicit pair-action table: every state is sent to |0>.

    The image carries the phase of the |1> component unless the |0>
    component dominates by a wide margin (half the norm), in which case it
    carries the |0> phase.  Both basis states therefore map to +|0>, and
    the decision boundary sits far from every state the merge-gate
    pipeline produces, so the table is stable under small input dirt.
    A map this degenerate is exactly what no finite-time smooth evolution
    reaches, which is why it exists here only as a table.
    """

    tolerance: float = 0.0
    descriptor: str = "n-minus(table)"

    def apply_batch(self, pairs: np.ndarray, noise=None) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.complex128)
        norms = np.sqrt(np.sum(np.abs(pairs) ** 2, axis=1))
        use_upper = np.abs(pairs[:, 1]) >= np.abs(pairs[:, 0]) - 0.5 * norms
        carrier = np.where(use_upper, pairs[:, 1], pairs[:, 0])
        out = np.zeros_like(pairs)
        out[:, 0] = _unit_phase(carrier, np.abs(carrier)) * norms
        return out

    def schedule(self) -> list:
        return [{"stage": "table", "action": "merge onto |0>"}]


@dataclass(frozen=True)
class ExpandTableMap(_PairMap):
    """Explicit pair-action table doubling the polar angle (clamped at pi).

    After a phase alignment that makes the calibration pair real, the
    polar angle maps through min(2 theta, pi), carrying x|0> + y|1> to
    |1> exactly while fixing |0>.  Component phases are preserved.
    """

    zeta: float = 0.0
    tolerance: float = 0.0
    descriptor: str = "n-plus(table)"

    def apply_batch(self, pairs: np.ndarray, noise=None) -> np.ndarray:
        aligned = np.array(pairs, dtype=np.complex128, copy=True)
        aligned[:, 1] *= np.exp(1j * self.zeta)
        return _polar_remap(aligned, lambda theta: np.minimum(2.0 * theta, math.pi),
                            keep_norm=True, out=aligned)

    def schedule(self) -> list:
        return [{"stage": "phase", "angle": float(self.zeta)},
                {"stage": "table", "action": "double polar angle"}]


def ideal_merge_gate(eps: float = DEFAULT_GATE_EPS) -> CompositeNGate:
    """Merge gate over explicit pair-action tables instead of sandwiches.

    Same stage chain and calibration procedure as build_N, with the two
    nonlinear stages realized as tables.  The flag maps then carry no
    runtime angle parameters, which makes the cascade exact and stable
    under its own output dirt; this is the default gate for algorithm
    runs, while build_N remains the constructive realization.
    """
    _check_gate_eps(eps)

    def make_n_plus(x: complex, y: complex) -> ExpandTableMap:
        return ExpandTableMap(zeta=float(np.angle(x) - np.angle(y)) if abs(y) > 0 else 0.0)

    # the table leftover pins with a stray of exactly 0: no stray note
    return _assemble_merge_gate(MergeTableMap(), make_n_plus, eps, "table merge gate", 15,
                                notes=("explicit pair-action tables",))
