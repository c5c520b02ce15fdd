"""Single-qubit nonlinear time evolution and its lift to registers.

The model evolves a qubit (psi1, psi2) under a Hamiltonian function
h = n * hbar(a) with n = |psi1|^2 + |psi2|^2 and a = |psi2|^2 / n, via

    d psi_k / dt = -i * dh / d psi_k^*

The closed-form solution is a pure phase on each component,
psi_k(t) = c_k exp(-i w_k(a) t), with

    w1(a) = hbar(a) - a hbar'(a)
    w2(a) = hbar(a) + (1 - a) hbar'(a)

and a evaluated from the initial state (a is a constant of motion).
`evolve_closed_form` is its one implementation, on a pair or on arrays of
pairs (the evolve stage of every gate calls it).  A fixed-step RK4
integrator of the evolution equation itself serves as the independent
cross-check for the closed form.

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

import functools
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
        # Horner heads and tails, highest power first (evaluator and RK4)
        dcoefs = tuple(k * coefs[k] for k in range(len(coefs) - 1, 0, -1)) or (0.0,)
        object.__setattr__(self, "_horner", (coefs[-1], coefs[-2::-1], dcoefs[0], dcoefs[1:]))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value_and_derivative(self, a):
        """(hbar(a), hbar'(a)) by Horner, for a float or an array a (bitwise
        npoly.polyval on arrays); hbar' of a constant profile is exactly 0.0,
        or an array of zeros."""
        hb, tail, hp, dtail = self._horner
        if not isinstance(a, float):  # arrays start as polyval's do: c + a * 0
            a = np.asarray(a, dtype=float)
            hb, hp = hb + a * 0.0, hp + a * 0.0
        for c in tail:
            hb = hb * a + c
        for c in dtail:
            hp = hp * a + c
        return hb, hp


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

    def value_and_derivative(self, a):
        if not isinstance(a, float):
            a = np.asarray(a, dtype=float)
        az = a - self.z
        sq = az * az  # numpy's az**2 multiplies; it does not call pow
        q = self.q_at_w + (a - self.w) * self.q_slope
        return sq * q, 2.0 * az * q + sq * self.q_slope


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


def omega12(h: HbarFunction, a):
    """The two phase frequencies (w1, w2) at latitude a."""
    hb, hp = h.value_and_derivative(a)
    return hb - a * hp, hb + (1.0 - a) * hp


def evolve_closed_form(c1, c2, h: HbarFunction, t: float):
    """Phase evolution psi_k -> psi_k exp(-i w_k(a) t), a frozen at the input;
    c1 and c2 are two amplitudes or two arrays of them (one pair per entry).
    Phases w_k t that are not finite (an overflowed frequency) raise ValueError."""
    n = abs(c1) ** 2 + abs(c2) ** 2
    if not np.all((n > 0.0) & (n < math.inf)):
        raise ValueError("zero-norm pair cannot be evolved")
    a = abs(c2) ** 2 / n
    w1, w2 = omega12(h, a)
    if not np.isfinite((w1 * t, w2 * t)).all():
        raise ValueError(f"the phase frequencies overflow at t = {t:g}")
    return c1 * np.exp(-1j * w1 * t), c2 * np.exp(-1j * w2 * t)


MAX_INTEGRATION_STEPS = 20_000_000


def evolve_integrated(c1: complex, c2: complex, h: HbarFunction, t: float, dt: float):
    """Fixed-step RK4 integration of d psi_k/dt = -i dh/d psi_k^*.

    Independent cross-check for `evolve_closed_form`: the right-hand side
    is assembled from the product rule on h = n*hbar(a) with a evaluated
    from the instantaneous state, so nothing about the frozen-a phase
    ansatz is assumed.  It steps the real and imaginary parts with the
    operation order of complex arithmetic (a real factor times a complex
    number is exact per part), so the result is bitwise that of the
    complex form; only a part given as -0.0 may come out as a zero of the
    other sign.  A step that overflows, or a result that is not finite,
    raises ValueError.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be nonnegative and finite, got {t!r}")
    if t / dt > MAX_INTEGRATION_STEPS:
        raise ValueError(f"t/dt = {t / dt:.3g} exceeds the step-count guard")
    n0 = abs(c1) ** 2 + abs(c2) ** 2
    if n0 <= 0.0 or not math.isfinite(n0):
        raise ValueError("zero-norm pair cannot be evolved")

    # One flat loop, each stage's right-hand side written out:
    #   dh/dpsi1* = hbar * psi1 + n hbar' * (-(a / n) * psi1), times -1j,
    # on (re, im) parts.  Squares go through libm pow, as x**2 does (x*x
    # does not always match it in the last bit); math.pow is the cheaper
    # call.  Every profile is evaluated by Horner on its coefficients, as
    # HbarFunction.value_and_derivative does on a float; a PhaseAlignedHbar's
    # factored form is left to the closed form, which this checks.
    pw = math.pow
    hb0, tail, hp0, dtail = h._horner
    c1, c2 = complex(c1), complex(c2)
    p, q, r, s = c1.real, c1.imag, c2.real, c2.imag
    nsteps = int(t / dt)
    rest = t - nsteps * dt
    try:
        for hs, count in ((dt, nsteps), (rest, 1 if rest > 1e-15 else 0)):
            h2, h6 = 0.5 * hs, hs / 6.0
            for _ in range(count):
                w2 = pw(r, 2.0) + pw(s, 2.0)
                n = (pw(p, 2.0) + pw(q, 2.0)) + w2
                a = w2 / n
                hb = hb0
                for c in tail:
                    hb = hb * a + c
                hp = hp0
                for c in dtail:
                    hp = hp * a + c
                g = n * hp
                f1 = -(a / n)
                f2 = (1.0 - a) / n
                p1 = hb * q + g * (f1 * q)
                q1 = -(hb * p + g * (f1 * p))
                r1 = hb * s + g * (f2 * s)
                s1 = -(hb * r + g * (f2 * r))

                yp = p + h2 * p1
                yq = q + h2 * q1
                yr = r + h2 * r1
                ys = s + h2 * s1
                w2 = pw(yr, 2.0) + pw(ys, 2.0)
                n = (pw(yp, 2.0) + pw(yq, 2.0)) + w2
                a = w2 / n
                hb = hb0
                for c in tail:
                    hb = hb * a + c
                hp = hp0
                for c in dtail:
                    hp = hp * a + c
                g = n * hp
                f1 = -(a / n)
                f2 = (1.0 - a) / n
                p2 = hb * yq + g * (f1 * yq)
                q2 = -(hb * yp + g * (f1 * yp))
                r2 = hb * ys + g * (f2 * ys)
                s2 = -(hb * yr + g * (f2 * yr))

                yp = p + h2 * p2
                yq = q + h2 * q2
                yr = r + h2 * r2
                ys = s + h2 * s2
                w2 = pw(yr, 2.0) + pw(ys, 2.0)
                n = (pw(yp, 2.0) + pw(yq, 2.0)) + w2
                a = w2 / n
                hb = hb0
                for c in tail:
                    hb = hb * a + c
                hp = hp0
                for c in dtail:
                    hp = hp * a + c
                g = n * hp
                f1 = -(a / n)
                f2 = (1.0 - a) / n
                p3 = hb * yq + g * (f1 * yq)
                q3 = -(hb * yp + g * (f1 * yp))
                r3 = hb * ys + g * (f2 * ys)
                s3 = -(hb * yr + g * (f2 * yr))

                yp = p + hs * p3
                yq = q + hs * q3
                yr = r + hs * r3
                ys = s + hs * s3
                w2 = pw(yr, 2.0) + pw(ys, 2.0)
                n = (pw(yp, 2.0) + pw(yq, 2.0)) + w2
                a = w2 / n
                hb = hb0
                for c in tail:
                    hb = hb * a + c
                hp = hp0
                for c in dtail:
                    hp = hp * a + c
                g = n * hp
                f1 = -(a / n)
                f2 = (1.0 - a) / n
                p4 = hb * yq + g * (f1 * yq)
                q4 = -(hb * yp + g * (f1 * yp))
                r4 = hb * ys + g * (f2 * ys)
                s4 = -(hb * yr + g * (f2 * yr))

                p = p + h6 * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
                q = q + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
                r = r + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                s = s + h6 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    except OverflowError:
        p = math.nan
    if not all(map(math.isfinite, (p, q, r, s))):  # inf - inf raises nothing
        raise ValueError(f"the RK4 step overflowed: dt = {dt:g} is too large "
                         "for this profile and state")
    return complex(p, q), complex(r, s)


def trajectory(c1: complex, c2: complex, h: HbarFunction, times, dt: float):
    """Rows (t, Re c1, Im c1, Re c2, Im c2, residual vs integrator).

    The closed-form solution supplies the amplitudes; the residual column
    is the largest componentwise deviation from the RK4 integration up to
    the same time.
    """
    times = sorted(float(t) for t in times)
    if times and times[0] < 0.0:
        raise ValueError("times must be nonnegative")
    # the guard bounds the whole run, not just each segment
    if times and dt > 0.0 and times[-1] / dt > MAX_INTEGRATION_STEPS:
        raise ValueError(f"t/dt = {times[-1] / dt:.3g} exceeds the step-count guard")
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


def lift_pairs(pairs: np.ndarray, nl_map) -> np.ndarray:
    """Map every branch pair (m, 2) in place at its normalized direction,
    keeping its weight; pairs of weight below 1e-14 are left untouched."""
    probs = np.abs(pairs) ** 2
    weights = probs[:, 0] + probs[:, 1]
    mask = weights >= BRANCH_ATOL
    if mask.all():  # map the whole array: no gather or scatter
        sel = slice(None)
    elif mask.any():
        sel = np.flatnonzero(mask)
    else:
        return pairs
    scale = np.sqrt(weights[sel])[:, None]
    mapped = getattr(nl_map, "apply_batch", nl_map)(pairs[sel] / scale)
    pairs[sel] = np.asarray(mapped, dtype=np.complex128) * scale
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
_PHASE_CELL = 64  # grid points per branch-and-bound cell of the phase search


def _phase_residual(halves: tuple, t):
    """The alignment residual max(|e1 - 1|, |e2 + 1|, |e3 - 1|, |e4 - 1|),
    ek = exp(-i wk t), for halves = (w1u/2, w2u/2, w1v/2, w2v/2).

    |exp(-ix) - 1| = 2|sin(x/2)| and |exp(-ix) + 1| = 2|cos(x/2)|: real
    arithmetic, free of the cancellation in cos(x) - 1 next to the zeros
    the search hunts for.  A float t goes through math, an array through
    numpy; both call the same libm sin and cos, so they agree bitwise.
    """
    h1u, h2u, h1v, h2v = halves
    if isinstance(t, float):
        return 2.0 * max(abs(math.sin(h1u * t)), abs(math.cos(h2u * t)),
                         abs(math.sin(h1v * t)), abs(math.sin(h2v * t)))
    r = np.sin(h1u * t)
    np.abs(r, out=r)
    x = np.empty_like(r)  # one scratch array for the other three terms
    for f, hw in ((np.cos, h2u), (np.sin, h1v), (np.sin, h2v)):
        f(np.multiply(hw, t, out=x), out=x)
        np.maximum(r, np.abs(x, out=x), out=r)
    r *= 2.0
    return r


def find_phase_time(h: HbarFunction, phi: float, eps: float,
                    t_max: float = 2000.0) -> PhaseTargetSolution:
    """Find t with phases (1, -1, 1, 1) at latitudes sin^2(phi), cos^2(phi).

    The rotated images of |0> and |1> sit at a = sin^2(phi) and cos^2(phi);
    the gate construction needs exp(-i w1 t) = exp(-i w1' t) =
    exp(-i w2' t) = 1 at those latitudes while exp(-i w2 t) = -1 at the
    lower one.  The residual of a time is the largest of the four
    |exp(-i w t) -+ 1|, evaluated in half-angle form as 2|sin(w t / 2)| or
    2|cos(w t / 2)| (`_phase_residual`): through math at t = 0, at the
    analytic time and at the golden-section probes, through numpy on the
    grid.  Tries the analytic single-frequency solution first (exact for
    phase-aligned profiles), then the minimum over a dense grid, found
    exactly by branch and bound, with golden-section refinement.  Raises
    PhaseAlignmentError when the tolerance cannot be met, which for
    rationally dependent frequencies (e.g. hbar(a) = a^2 or any linear
    profile) is unavoidable at any horizon.
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
    if not all(math.isfinite(w * t_max) for w in (w1u, w2u, w1v, w2v)):
        raise ValueError(f"phase frequencies ({w1u:.3g}, {w2u:.3g}, {w1v:.3g}, {w2v:.3g})"
                         f" overflow over the horizon t_max={t_max:g}")

    residual = functools.partial(_phase_residual, (0.5 * w1u, 0.5 * w2u, 0.5 * w1v, 0.5 * w2v))

    def solution(t):
        return PhaseTargetSolution(float(t), residual(t), float(phi))

    best_t, best_r = 0.0, residual(0.0)
    if best_r <= eps:  # vacuous tolerance
        return solution(0.0)
    if w2u != 0.0:
        t_c = math.pi / abs(w2u)
        if t_c <= t_max:
            r_c = residual(t_c)
            if r_c <= eps:
                return solution(t_c)
            if r_c < best_r:
                best_t, best_r = t_c, r_c

    omega_span = max(abs(w1u), abs(w2u), abs(w1v), abs(w2v))
    if omega_span == 0.0:
        raise PhaseAlignmentError(t_max, best_r)
    step = eps / (10.0 * omega_span)
    if step > 0.0 and t_max / step < GRID_POINT_CAP:
        npoints = int(t_max / step) + 1
    else:  # the capped grid, also where the step underflows
        step, npoints = t_max / GRID_POINT_CAP, GRID_POINT_CAP + 1
    # Exact branch and bound over the grid t_i = i * step: the residual is
    # Lipschitz with constant omega_span, so a cell of _PHASE_CELL points holds
    # no value below r(centre) - omega_span * reach; slack covers the
    # rounding of w * t.  Cells that may beat the incumbent are scanned in
    # index order, which keeps the first-index tie rule of a full scan.
    half = _PHASE_CELL // 2
    ncells = -(-npoints // _PHASE_CELL)
    centres = residual(np.minimum(np.arange(ncells) * _PHASE_CELL + half, npoints - 1) * step)
    slack = 1e-9 + 1e-15 * omega_span * t_max
    bound = min(best_r, float(centres.min())) + slack + omega_span * half * step
    live = np.flatnonzero(centres <= bound)
    per_chunk = (1 << 20) // _PHASE_CELL
    for start in range(0, live.size, per_chunk):
        idx = (live[start:start + per_chunk, None] * _PHASE_CELL + np.arange(_PHASE_CELL)).ravel()
        idx = idx[idx < npoints]
        rs = residual(idx * step)
        i = int(np.argmin(rs))
        if rs[i] < best_r:
            best_r = float(rs[i])
            best_t = float(idx[i] * step)

    # golden-section refinement around the best grid point
    lo = max(0.0, best_t - step)
    hi = min(t_max, best_t + step)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = residual(c), residual(d)
    for _ in range(200):
        if b - a < 1e-15 * max(1.0, b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = residual(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = residual(d)
    t_ref, r_ref = (c, fc) if fc < fd else (d, fd)
    if r_ref < best_r:
        best_t, best_r = t_ref, r_ref

    if best_r <= eps:
        return solution(best_t)
    raise PhaseAlignmentError(t_max, best_r)
