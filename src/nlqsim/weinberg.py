"""Single-qubit nonlinear time evolution and its lift to registers.

The model evolves a qubit (psi1, psi2) under a Hamiltonian function
h = n * hbar(a) with n = |psi1|^2 + |psi2|^2 and a = |psi2|^2 / n, via

    d psi_k / dt = -i * dh / d psi_k^*

The closed-form solution is a pure phase on each component,
psi_k(t) = c_k exp(-i w_k(a) t), with

    w1(a) = hbar(a) - a hbar'(a)
    w2(a) = hbar(a) + (1 - a) hbar'(a)

and a evaluated from the initial state (a is a constant of motion).  A
fixed-step RK4 integrator of the evolution equation itself serves as the
independent cross-check for the closed form.

Entangled registers evolve by the preferred-basis prescription: decompose
over computational basis patterns of the spectator qubits and apply the
single-qubit map to each conditional state independently.

Because the two phase frequencies depend on a, a qubit prepared at two
different latitudes accumulates different phases; `find_phase_time`
searches for the evolution time at which the four phases hit the targets
(1, -1, 1, 1) needed by the rotation-sandwich gate constructions.  For
generic polynomial profiles such times exist only approximately and the
search cost grows quickly as the tolerance shrinks; `phase_aligned_hbar`
constructs a profile for which three of the four frequencies vanish
identically, making the alignment exact at t = pi / w2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .statevector import StateVector, block_rows, from_block_rows

BRANCH_ATOL = 1e-14


@dataclass(frozen=True)
class HbarFunction:
    """Polynomial per-qubit Hamiltonian profile hbar(a) = sum c_k a^k."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coefs = tuple(float(c) for c in self.coefficients)
        if len(coefs) == 0:
            raise ValueError("need at least one coefficient")
        if not all(math.isfinite(c) for c in coefs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coefs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, a):
        return npoly.polyval(a, self.coefficients)

    def derivative(self, a):
        dcoefs = npoly.polyder(self.coefficients)
        if len(dcoefs) == 0:
            return np.zeros_like(np.asarray(a, dtype=float)) + 0.0 if np.ndim(a) else 0.0
        return npoly.polyval(a, dcoefs)


@dataclass(frozen=True)
class PhaseAlignedHbar(HbarFunction):
    """Cubic profile sign * (a-z)^2 * (a-r), evaluated in factored form.

    z is a double root, so both frequencies vanish there identically; r is
    placed so that w1(w) = 0 as well, leaving w2(w) = |w-z|^3 / (w+z) as
    the only nonzero operating frequency.  Coefficients stay O(1) no
    matter how close the two latitudes are; the price is an alignment
    time pi / w2(w) that grows as the inverse cube of the gap.  Factored
    evaluation keeps the engineered zeros exact to rounding.
    """

    w: float = 0.0
    z: float = 0.0
    omega0: float = 1.0
    q_at_w: float = 0.0
    q_slope: float = 0.0

    def _q(self, a):
        return self.q_at_w + (np.asarray(a, dtype=float) - self.w) * self.q_slope

    def value(self, a):
        out = (np.asarray(a, dtype=float) - self.z) ** 2 * self._q(a)
        return float(out) if np.ndim(a) == 0 else out

    def derivative(self, a):
        az = np.asarray(a, dtype=float) - self.z
        out = 2.0 * az * self._q(a) + az**2 * self.q_slope
        return float(out) if np.ndim(a) == 0 else out


def phase_aligned_hbar(w: float, z: float) -> PhaseAlignedHbar:
    """Profile with w1(w) = w1(z) = w2(z) = 0 exactly and w2(w) > 0."""
    if not (0.0 <= w <= 1.0 and 0.0 <= z <= 1.0):
        raise ValueError("latitudes w, z must lie in [0, 1]")
    if abs(w - z) < 1e-14:
        raise ValueError("latitudes w and z are degenerate")
    g = w - z
    sign = 1.0 if g > 0 else -1.0
    r = w + w * g / (w + z)
    omega0 = abs(g) ** 3 / (w + z)
    # hbar(a) = -sign * (a - z)^2 (a - r): double root at z, w1(w) = 0
    coefs = tuple(npoly.polymul((z**2, -2.0 * z, 1.0), (sign * r, -sign)))
    h = PhaseAlignedHbar(
        coefficients=coefs,
        w=w,
        z=z,
        omega0=float(omega0),
        q_at_w=-sign * (w - r),
        q_slope=-sign,
    )
    w1w, w2w = omega12(h, w)
    w1z, w2z = omega12(h, z)
    tol = 1e-6 * omega0 + 1e-15
    if max(abs(w1w), abs(w1z), abs(w2z)) > tol or abs(w2w - omega0) > tol:
        raise ValueError("phase-aligned profile failed its self-check")
    return h


def hbar_value(h: HbarFunction, a: float) -> float:
    """hbar(a) with the domain check; a is a squared amplitude fraction."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a={a} outside [0, 1]")
    return float(h.value(a))


def omega12(h: HbarFunction, a):
    """The two phase frequencies (w1, w2) at latitude a."""
    hb = h.value(a)
    hp = h.derivative(a)
    return hb - a * hp, hb + (1.0 - a) * hp


def hamiltonian_value(h: HbarFunction, c1: complex, c2: complex) -> float:
    """h(psi, psi*) = n * hbar(a) for the pair (c1, c2)."""
    n = abs(c1) ** 2 + abs(c2) ** 2
    if n <= 0.0:
        raise ValueError("zero-norm pair")
    return float(n * h.value(abs(c2) ** 2 / n))


def homogeneity_check(h: HbarFunction, c1: complex, c2: complex, scale: float,
                      hamiltonian=None) -> float:
    """|h(scale*psi) - scale^2 * h(psi)|; 0 for a degree-one homogeneous h.

    `hamiltonian` overrides the evaluated function (defaults to n*hbar(a));
    pass a corrupted one to exercise the negative control.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if hamiltonian is None:
        hamiltonian = lambda a, b: hamiltonian_value(h, a, b)
    return abs(hamiltonian(scale * c1, scale * c2) - scale**2 * hamiltonian(c1, c2))


def evolve_closed_form(c1: complex, c2: complex, h: HbarFunction, t: float):
    """Phase evolution psi_k -> psi_k exp(-i w_k(a) t), a frozen at the input."""
    n = abs(c1) ** 2 + abs(c2) ** 2
    if n <= 0.0 or not math.isfinite(n):
        raise ValueError("zero-norm pair cannot be evolved")
    a = abs(c2) ** 2 / n
    w1, w2 = omega12(h, a)
    return c1 * np.exp(-1j * w1 * t), c2 * np.exp(-1j * w2 * t)


MAX_INTEGRATION_STEPS = 20_000_000


def evolve_integrated(c1: complex, c2: complex, h: HbarFunction, t: float, dt: float):
    """Fixed-step RK4 integration of d psi_k/dt = -i dh/d psi_k^*.

    Independent cross-check for `evolve_closed_form`: the right-hand side
    is assembled from the product rule on h = n*hbar(a) with a evaluated
    from the instantaneous state, so nothing about the frozen-a phase
    ansatz is assumed.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t / dt > MAX_INTEGRATION_STEPS:
        raise ValueError(f"t/dt = {t / dt:.3g} exceeds the step-count guard")
    n0 = abs(c1) ** 2 + abs(c2) ** 2
    if n0 <= 0.0:
        raise ValueError("zero-norm pair cannot be evolved")

    coefs = h.coefficients
    is_aligned = isinstance(h, PhaseAlignedHbar)

    def rhs(y1: complex, y2: complex):
        n = (y1.real**2 + y1.imag**2) + (y2.real**2 + y2.imag**2)
        a = (y2.real**2 + y2.imag**2) / n
        if is_aligned:
            hb = h.value(a)
            hp = h.derivative(a)
        else:
            hb = coefs[-1]
            for c in reversed(coefs[:-1]):
                hb = hb * a + c
            if len(coefs) == 1:
                hp = 0.0
            else:
                hp = (len(coefs) - 1) * coefs[-1]
                for k in range(len(coefs) - 2, 0, -1):
                    hp = hp * a + k * coefs[k]
        # dh/dpsi1* = hbar * psi1 + n hbar' * da/dpsi1*,  da/dpsi1* = -a psi1 / n
        d1 = hb * y1 + n * hp * (-(a / n) * y1)
        d2 = hb * y2 + n * hp * ((1.0 - a) / n * y2)
        return -1j * d1, -1j * d2

    def step(y1, y2, hstep):
        k1a, k1b = rhs(y1, y2)
        k2a, k2b = rhs(y1 + 0.5 * hstep * k1a, y2 + 0.5 * hstep * k1b)
        k3a, k3b = rhs(y1 + 0.5 * hstep * k2a, y2 + 0.5 * hstep * k2b)
        k4a, k4b = rhs(y1 + hstep * k3a, y2 + hstep * k3b)
        return (
            y1 + hstep / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a),
            y2 + hstep / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b),
        )

    y1, y2 = complex(c1), complex(c2)
    nsteps = int(t / dt)
    for _ in range(nsteps):
        y1, y2 = step(y1, y2, dt)
    rest = t - nsteps * dt
    if rest > 1e-15:
        y1, y2 = step(y1, y2, rest)
    return y1, y2


def trajectory(c1: complex, c2: complex, h: HbarFunction, times, dt: float = 1e-3):
    """Rows (t, Re c1, Im c1, Re c2, Im c2, residual vs integrator).

    The closed-form solution supplies the amplitudes; the residual column
    is the largest componentwise deviation from the RK4 integration up to
    the same time.
    """
    times = sorted(float(t) for t in times)
    if times and times[0] < 0.0:
        raise ValueError("times must be nonnegative")
    rows = []
    y1, y2 = complex(c1), complex(c2)
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            y1, y2 = evolve_integrated(y1, y2, h, t - t_prev, dt)
            t_prev = t
        e1, e2 = evolve_closed_form(c1, c2, h, t)
        resid = max(abs(e1 - y1), abs(e2 - y2))
        rows.append((t, e1.real, e1.imag, e2.real, e2.imag, resid))
    return rows


def _map_batch(nl_map, pairs: np.ndarray) -> np.ndarray:
    if hasattr(nl_map, "apply_batch"):
        return nl_map.apply_batch(pairs)
    return nl_map(pairs)


def lift_pairs(pairs: np.ndarray, nl_map) -> np.ndarray:
    """Map every branch pair (m, 2) in place at its normalized direction,
    keeping its weight; pairs of weight below 1e-14 are left untouched."""
    probs = np.abs(pairs) ** 2
    weights = probs[:, 0] + probs[:, 1]
    mask = weights >= BRANCH_ATOL
    if np.any(mask):
        scale = np.sqrt(weights[mask])[:, None]
        mapped = _map_batch(nl_map, pairs[mask] / scale)
        pairs[mask] = np.asarray(mapped, dtype=np.complex128) * scale
    return pairs


def apply_conditional_nonlinear(state: StateVector, target: int, nl_map) -> StateVector:
    """Preferred-basis lift of a single-qubit map to a register.

    For every basis pattern of the non-target qubits, the normalized
    conditional pair is passed through the map and re-embedded with its
    branch weight unchanged (see lift_pairs).  `nl_map` is either a
    callable on an (m, 2) array of normalized pairs or an object exposing
    apply_batch.
    """
    rows = lift_pairs(block_rows(state, [target]), nl_map)
    return from_block_rows(state, [target], rows)


def apply_conditional_subspace_map(state: StateVector, targets, func) -> StateVector:
    """Same prescription for a multi-qubit target block.

    `targets` lists the block qubits in significance order (first listed is
    the block's most significant bit); `func` receives the raw amplitude
    rows (m, 2**k) of the nonempty branches and must preserve row norms.
    """
    rows = block_rows(state, targets)
    mask = np.sum(np.abs(rows) ** 2, axis=1) >= BRANCH_ATOL
    if np.any(mask):
        rows[mask] = np.asarray(func(rows[mask]), dtype=np.complex128)
    return from_block_rows(state, targets, rows)


@dataclass(frozen=True)
class PhaseTargetSolution:
    """Evolution time meeting the four-phase alignment targets."""

    t_star: float
    residual: float
    phi: float


class PhaseAlignmentError(Exception):
    """No time within the horizon meets the requested phase tolerance."""

    def __init__(self, t_max: float, best_residual: float):
        super().__init__(
            f"no alignment time found up to t_max={t_max:g} "
            f"(best residual {best_residual:.3g}); the frequencies may be "
            "rationally dependent or the horizon too short"
        )
        self.t_max = t_max
        self.best_residual = best_residual


GRID_POINT_CAP = 20_000_000


def find_phase_time(h: HbarFunction, phi: float, eps: float,
                    t_max: float = 2000.0) -> PhaseTargetSolution:
    """Find t with phases (1, -1, 1, 1) at latitudes sin^2(phi), cos^2(phi).

    The rotated images of |0> and |1> sit at a = sin^2(phi) and cos^2(phi);
    the gate construction needs exp(-i w1 t) = exp(-i w1' t) =
    exp(-i w2' t) = 1 at those latitudes while exp(-i w2 t) = -1 at the
    lower one.  Tries the analytic single-frequency solution first (exact
    for phase-aligned profiles), then a dense grid with golden-section
    refinement.  Raises PhaseAlignmentError when the tolerance cannot be
    met, which for rationally dependent frequencies (e.g. hbar(a) = a^2 or
    any linear profile) is unavoidable at any horizon.
    """
    if not 0.0 < phi < math.pi / 4:
        raise ValueError("phi must lie strictly between 0 and pi/4")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    u = math.sin(phi) ** 2
    v = math.cos(phi) ** 2
    w1u, w2u = omega12(h, u)
    w1v, w2v = omega12(h, v)

    def residual(t):
        t = np.asarray(t, dtype=float)
        r = np.abs(np.exp(-1j * w1u * t) - 1.0)
        r = np.maximum(r, np.abs(np.exp(-1j * w2u * t) + 1.0))
        r = np.maximum(r, np.abs(np.exp(-1j * w1v * t) - 1.0))
        r = np.maximum(r, np.abs(np.exp(-1j * w2v * t) - 1.0))
        return r

    def solution(t):
        return PhaseTargetSolution(float(t), float(residual(t)), float(phi))

    if float(residual(0.0)) <= eps:  # vacuous tolerance
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
    if npoints > GRID_POINT_CAP:
        step = t_max / GRID_POINT_CAP
        npoints = GRID_POINT_CAP + 1
    chunk = 1 << 20
    for start in range(0, npoints, chunk):
        ts = (start + np.arange(min(chunk, npoints - start))) * step
        rs = residual(ts)
        i = int(np.argmin(rs))
        if rs[i] < best_r:
            best_r = float(rs[i])
            best_t = float(ts[i])

    # golden-section refinement around the best grid point
    lo = max(0.0, best_t - step)
    hi = min(t_max, best_t + step)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
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
