"""Black-box oracle representation, parsing and coherent application.

An oracle is a function f mapping n input bits to one output bit, given
either as a CNF formula (DIMACS) or as an explicit set of solutions.
DIMACS variable 1 is the most significant input bit, so variable j reads
bit (num_vars - j) of the integer input.

`evaluate` is the classical test-side view and never touches the query
counter.  `OracleSpec.query` is the one coherent query: it yields f on
every input and increments the counter once, however large the
superposition; `apply_oracle` and the counting driver both go through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .statevector import StateVector, _distinct_qubits, check_array_size


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        for clause in self.clauses:
            if len(clause) == 0:
                raise ValueError("empty clause not allowed")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


@dataclass(frozen=True)
class TruthTableOracle:
    num_vars: int
    solutions: tuple[int, ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        sols = tuple(int(s) for s in self.solutions)
        if list(sols) != sorted(set(sols)):
            raise ValueError("solutions must be strictly sorted and unique")
        # bit_length, not 1 << num_vars: a huge num_vars must not allocate
        if sols and not (0 <= sols[0] and sols[-1].bit_length() <= self.num_vars):
            raise ValueError("solution out of range")
        object.__setattr__(self, "solutions", sols)


class OracleSpec:
    """An oracle variant plus the coherent-query counter."""

    def __init__(self, variant: CnfFormula | TruthTableOracle):
        if not isinstance(variant, (CnfFormula, TruthTableOracle)):
            raise TypeError(f"unsupported oracle variant {type(variant)!r}")
        self.variant = variant
        self.call_counter = 0

    @property
    def num_vars(self) -> int:
        return self.variant.num_vars

    def query(self) -> np.ndarray:
        """f on every input as a boolean array: one coherent query, one tick."""
        table = _truth_table(self.variant)
        self.call_counter += 1
        return table


def parse_dimacs(text: str | bytes) -> CnfFormula:
    """Parse standard DIMACS CNF ('c' comments, 'p cnf' header, 0-terminated clauses)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    last_line = 1
    done = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):  # tolerated SATLIB end marker
            done = True
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars = int(parts[2])
                declared = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if num_vars < 1 or declared < 0:
                raise DimacsError(f"malformed header {line!r}", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before 'p cnf' header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"bad literal {token!r}", lineno) from None
            if lit == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
                continue
            if abs(lit) > num_vars:
                raise DimacsError(f"literal {lit} out of range (num_vars={num_vars})", lineno)
            current.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header", last_line)
    if current and not done:
        raise DimacsError("unterminated clause (no trailing 0)", last_line)
    return CnfFormula(num_vars, tuple(clauses))


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_truth_table(text: str | bytes) -> TruthTableOracle:
    """Parse the truth-table document {"num_vars": n, "solutions": [...]}: n a
    JSON integer, the solutions a JSON array of integers (repeats allowed)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    doc = json.loads(text)
    if not isinstance(doc, dict) or "num_vars" not in doc or "solutions" not in doc:
        raise ValueError("truth-table document needs 'num_vars' and 'solutions' fields")
    num_vars, solutions = doc["num_vars"], doc["solutions"]
    if not _is_json_int(num_vars):
        raise ValueError(f"'num_vars' must be a JSON integer, got {type(num_vars).__name__}")
    if not (isinstance(solutions, list) and all(map(_is_json_int, solutions))):
        raise ValueError("'solutions' must be a JSON array of integers")
    return TruthTableOracle(num_vars, tuple(sorted(set(solutions))))


def _variant(oracle) -> CnfFormula | TruthTableOracle:
    return oracle.variant if isinstance(oracle, OracleSpec) else oracle


def evaluate(oracle, i: int) -> int:
    """Classical f(i).  Does not touch the coherent call counter."""
    var = _variant(oracle)
    if not 0 <= i < (1 << var.num_vars):
        raise ValueError(f"input {i} out of range for {var.num_vars} variables")
    if isinstance(var, TruthTableOracle):
        return 1 if i in var.solutions else 0
    for clause in var.clauses:
        sat = False
        for lit in clause:
            bit = (i >> (var.num_vars - abs(lit))) & 1
            if (bit == 1) == (lit > 0):
                sat = True
                break
        if not sat:
            return 0
    return 1


def _truth_table(var: CnfFormula | TruthTableOracle) -> np.ndarray:
    """f(i) for every input i, as a boolean array over the 2**n inputs.

    A clause is false exactly on the subcube where all its literals are
    false: one strided slice of the table with an axis per variable.
    """
    n = var.num_vars
    check_array_size("truth tables are", n, itemsize=1)
    if isinstance(var, TruthTableOracle):
        table = np.zeros(1 << n, dtype=bool)
        table[list(var.solutions)] = True
        return table
    table = np.ones((2,) * n, dtype=bool)
    for clause in var.clauses:
        falsifying: dict[int, int] = {}
        for lit in clause:
            if falsifying.setdefault(abs(lit) - 1, int(lit < 0)) != int(lit < 0):
                break  # x or not x: the clause always holds
        else:
            sel = [slice(None)] * n
            for axis, bit in falsifying.items():
                sel[axis] = bit
            table[tuple(sel)] = False
    return table.reshape(-1)


def truth_vector(oracle) -> np.ndarray:
    """f(i) for every input i as a boolean array."""
    return _truth_table(_variant(oracle))


def count_solutions_bruteforce(oracle) -> int:
    """Exact solution count: the truth table's, or a CNF's by enumeration."""
    var = _variant(oracle)
    if isinstance(var, TruthTableOracle):
        return len(var.solutions)
    return int(np.count_nonzero(_truth_table(var)))


def apply_oracle(state: StateVector, inputs, flag: int, oracle: OracleSpec) -> StateVector:
    """Coherent query |i, b> -> |i, b xor f(i)> through oracle.query().

    The table of f swaps the flag halves of the (2**flag, 2, rest) view."""
    if not isinstance(oracle, OracleSpec):
        raise TypeError("apply_oracle needs an OracleSpec (it owns the call counter)")
    *inputs, flag = _distinct_qubits(state, [*inputs, flag])
    if len(inputs) != oracle.num_vars:
        raise ValueError(
            f"oracle has {oracle.num_vars} variables but {len(inputs)} input qubits given"
        )
    n = state.num_qubits
    # f over the non-flag qubits in register order; spectator qubits broadcast
    others = [q for q in range(n) if q != flag]
    f = oracle.query().reshape((2,) * len(inputs))
    f = f.transpose(np.argsort(inputs)).reshape([2 if q in inputs else 1 for q in others])
    f = np.broadcast_to(f, (2,) * len(others)).reshape(1 << flag, -1)
    psi = state.amplitudes.reshape(1 << flag, 2, -1)
    out = psi.copy()
    np.copyto(out[:, 0], psi[:, 1], where=f)
    np.copyto(out[:, 1], psi[:, 0], where=f)
    return StateVector(n, out.reshape(state.dim))


def random_oracle(num_vars: int, s: int, rng: np.random.Generator) -> TruthTableOracle:
    """Uniformly random truth-table oracle with exactly s solutions."""
    if not 0 <= s <= (1 << num_vars):
        raise ValueError(f"s={s} out of range for {num_vars} variables")
    sols = rng.choice(1 << num_vars, size=s, replace=False)
    return TruthTableOracle(num_vars, tuple(sorted(int(x) for x in sols)))
