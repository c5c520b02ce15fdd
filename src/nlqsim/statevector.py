"""Dense statevector simulation for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the *most significant* bit of the basis index, so for an
  n-qubit register the basis state ``|b0 b1 ... b(n-1)>`` has index
  ``sum(b_q << (n - 1 - q))``.
* A bit pattern over a set of qubits is an integer whose most significant
  bit belongs to the smallest qubit index in the set (qubits are always
  processed in sorted order).
* All public operations either preserve the norm to 1e-10 or renormalize
  (measurement collapse).  Amplitudes are never rounded to zero
  implicitly; exponentially small components are kept exactly as the
  arithmetic produces them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-10
# The one size limit of the package: the bytes of a dense 20-qubit
# complex128 register (16 MiB).  Every array whose length is 2**n is
# checked against it by check_array_size before it is allocated.
ARRAY_BUDGET_BYTES = 16 << 20
_WH_MAX_RUN = 4  # qubits per Walsh-Hadamard matrix in apply_hadamard_layer


def check_array_size(what: str, n: int, itemsize: int = 16, extra_bits: int = 0) -> None:
    """Refuse an array of 2**(n + extra_bits) items of itemsize bytes larger
    than ARRAY_BUDGET_BYTES; the message names the largest n that fits."""
    cap = (ARRAY_BUDGET_BYTES // itemsize).bit_length() - 1 - extra_bits
    if n > cap:
        raise ValueError(
            f"{what} capped at n = {cap}: n = {n} needs 2**{n + extra_bits} x {itemsize}"
            f" bytes, above the {ARRAY_BUDGET_BYTES >> 20} MiB array budget"
        )


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Deterministic random source: same seed, same sample sequence."""
    return np.random.default_rng(seed)


@dataclass
class StateVector:
    """Normalized array of 2**num_qubits complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        check_array_size("registers are", self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm2 = float(np.vdot(amps, amps).real)  # inf or nan if any amplitude is
        if not np.isfinite(norm2) and not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a (partial) projective measurement."""

    measured_qubits: tuple[int, ...]
    outcome_bits: int
    outcome_probability: float


def new_basis_state(num_qubits: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on num_qubits qubits."""
    if not 0 <= basis_index < (1 << num_qubits):
        raise ValueError(
            f"basis_index {basis_index} out of range for {num_qubits} qubits"
        )
    check_array_size("registers are", num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps)


def _check_qubit(state: StateVector, q: int):
    if not 0 <= q < state.num_qubits:
        raise ValueError(f"qubit index {q} out of range [0, {state.num_qubits})")


def _check_unitary(u: np.ndarray, dim: int):
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise ValueError(f"expected {dim}x{dim} matrix, got {u.shape}")
    # np.allclose(u u^H, I, atol=UNITARY_ATOL) without its call overhead
    eye = np.eye(dim)
    if not np.all(np.abs(u @ u.conj().T - eye) <= UNITARY_ATOL + 1e-5 * eye):
        raise ValueError("matrix is not unitary within 1e-10")
    return u


def _distinct_qubits(state: StateVector, targets) -> list[int]:
    targets = [int(q) for q in targets]
    if len(set(targets)) != len(targets):
        raise ValueError("target qubits must be distinct")
    for q in targets:
        _check_qubit(state, q)
    return targets


def _layout(state: StateVector, targets) -> tuple[list, list]:
    """Reshape and transpose that give each target its own trailing axis; runs
    of other qubits share an axis, so one target q gives (2**q, 2, rest)."""
    targets = _distinct_qubits(state, targets)
    shape, rest, axis_of = [], [], {}
    for q in range(state.num_qubits):
        if q in targets:
            axis_of[q] = len(shape)
        elif rest and rest[-1] == len(shape) - 1:
            shape[-1] *= 2
            continue
        else:
            rest.append(len(shape))
        shape.append(2)
    return shape, rest + [axis_of[q] for q in targets]


def block_rows(state: StateVector, targets) -> np.ndarray:
    """Amplitude rows (m, 2**k): one row per basis pattern of the other qubits.

    Column c of a row holds the amplitude whose target bits read c, the
    first listed target being the most significant.  The rows are a copy.
    """
    targets = list(targets)
    shape, perm = _layout(state, targets)
    return state.amplitudes.reshape(shape).transpose(perm).copy().reshape(-1, 1 << len(targets))


def from_block_rows(state: StateVector, targets, rows: np.ndarray) -> StateVector:
    """Inverse of block_rows: a new state of state's size holding rows."""
    shape, perm = _layout(state, targets)
    amps = np.empty(state.dim, dtype=np.complex128)
    amps.reshape(shape).transpose(perm)[...] = rows.reshape([shape[a] for a in perm])
    return StateVector(state.num_qubits, amps)


def apply_1q_unitary(state: StateVector, q: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to qubit q."""
    return from_block_rows(state, [q], block_rows(state, [q]) @ _check_unitary(u, 2).T)


def _walsh_hadamard_matrices(k_max: int) -> tuple[np.ndarray, ...]:
    """Real H^{(x)k} for k = 0..k_max, read-only: (-1)**popcount(i & j) / sqrt(2)**k."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    mats = [np.ones((1, 1))]
    for _ in range(k_max):
        mats.append(np.kron(mats[-1], h))
    for m in mats:
        m.flags.writeable = False
    return tuple(mats)


_WALSH_HADAMARD = _walsh_hadamard_matrices(_WH_MAX_RUN)


def apply_hadamard_layer(state: StateVector, qubits) -> StateVector:
    """Apply H to every listed qubit: one matmul per run of up to _WH_MAX_RUN
    consecutive qubits q..q+k-1, with the run's real 2**k x 2**k
    Walsh-Hadamard matrix on the float64 view of the (2**q, 2**k, rest)
    reshape.  A real matrix transforms real and imaginary parts alike."""
    qs = sorted(_distinct_qubits(state, qubits))
    psi = np.ascontiguousarray(state.amplitudes)
    i = 0
    while i < len(qs):
        k = 1
        while k < _WH_MAX_RUN and i + k < len(qs) and qs[i + k] == qs[i] + k:
            k += 1
        x = psi.view(np.float64).reshape(1 << qs[i], 1 << k, -1)
        psi = np.matmul(_WALSH_HADAMARD[k], x).reshape(-1).view(np.complex128)
        i += k
    return StateVector(state.num_qubits, psi if qs else psi.copy())


def apply_2q_unitary(state: StateVector, q1: int, q2: int, u: np.ndarray) -> StateVector:
    """Apply a 4x4 unitary to the ordered qubit pair (q1, q2).

    The matrix acts on basis |b1 b2> where b1 is the bit of q1.
    """
    rows = block_rows(state, (q1, q2))
    u = _check_unitary(u, 4)
    return from_block_rows(state, (q1, q2), rows @ u.T)


def _sorted_qubits(state: StateVector, qs) -> tuple[int, ...]:
    qs = tuple(sorted(_distinct_qubits(state, qs)))
    if not qs:
        raise ValueError("empty qubit set")
    return qs


def _marginals(rows: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(rows) ** 2, axis=0)


def probability_of_pattern(state: StateVector, qs, bits: int) -> float:
    """Exact marginal probability that measuring qs yields the given bits."""
    qs = _sorted_qubits(state, qs)
    if not 0 <= bits < (1 << len(qs)):
        raise ValueError(f"bit pattern {bits} out of range for {len(qs)} qubits")
    return float(_marginals(block_rows(state, qs))[bits])


def collapse_onto_pattern(state: StateVector, qs, bits: int) -> tuple[float, StateVector]:
    """Deterministically project onto the given outcome and renormalize."""
    qs = _sorted_qubits(state, qs)
    if not 0 <= bits < (1 << len(qs)):
        raise ValueError(f"bit pattern {bits} out of range for {len(qs)} qubits")
    return _collapse_rows(state, qs, block_rows(state, qs), bits)


def _collapse_rows(state: StateVector, qs, rows: np.ndarray, bits: int):
    """collapse_onto_pattern on the rows block_rows(state, qs) already gathered."""
    prob = float(np.sum(np.abs(rows[:, bits]) ** 2))
    if prob <= 0.0:
        raise ValueError("cannot collapse onto a zero-probability outcome")
    out = np.zeros_like(rows)
    out[:, bits] = rows[:, bits] / np.sqrt(prob)
    return prob, from_block_rows(state, qs, out)


def measure_qubits(
    state: StateVector, qs, rng: np.random.Generator
) -> tuple[MeasurementRecord, StateVector]:
    """Sample a Born-rule outcome for qubits qs and collapse the state."""
    qs = _sorted_qubits(state, qs)
    rows = block_rows(state, qs)
    probs = _marginals(rows)
    outcome = int(rng.choice(len(probs), p=probs / probs.sum()))
    prob, post = _collapse_rows(state, qs, rows, outcome)
    record = MeasurementRecord(qs, outcome, prob)
    return record, post


def conditional_qubit_state(
    state: StateVector, target: int, other_basis: int
) -> tuple[float, complex, complex]:
    """Conditional state of one qubit given a basis pattern on the others.

    Decomposes |Psi> = sum_b alpha_b |b> (x) |psi_b> over basis patterns b
    of the non-target qubits (alpha_b chosen real nonnegative, so the
    conditional pair carries all phase).  Returns (|alpha_b|^2, c0, c1)
    where (c0, c1) is the normalized conditional pair, or zeros when the
    branch is empty.
    """
    _check_qubit(state, target)
    n = state.num_qubits
    if not 0 <= other_basis < (1 << (n - 1)):
        raise ValueError(f"pattern {other_basis} out of range for {n - 1} qubits")
    low = n - 1 - target  # the bits of the qubits after target keep their place
    i0 = (other_basis >> low << (low + 1)) | (other_basis & ((1 << low) - 1))
    a0 = complex(state.amplitudes[i0])
    a1 = complex(state.amplitudes[i0 | (1 << low)])
    weight = abs(a0) ** 2 + abs(a1) ** 2
    if weight == 0.0:
        return 0.0, 0j, 0j
    root = np.sqrt(weight)
    return float(weight), a0 / root, a1 / root
