"""Ground truth and the failure rules for every benchmark operation.

The benchmark never trusts the program's own verdicts: a solution set is
computed here from the oracle file's contents, a dynamics table is checked
against a closed-form evaluation written here, and `report.succeeded` is
never read.

`judge` returns one of three outcomes per operation:

* ``ok``      - the output is correct;
* ``refused`` - an input planted at a documented size or solution limit was
  declined with a ValueError or a one-line ``error:`` exit; it is not a
  correct operation, but it is the program's documented behaviour today;
* ``failed``  - anything else: an exception, an undocumented exit code, a
  wrong decision or count, alg2 ``oracle_calls != 1``, a gate below its
  fidelity bound, or a table off the closed form.
"""

from __future__ import annotations

import json
import math

import numpy as np

# A dynamics table must match the closed form to this absolute tolerance;
# both sides are double-precision evaluations of the same exponentials.
TABLE_ATOL = 1e-10
# Largest RK4-versus-closed-form residual accepted in the table's own column
# (dt = 1e-3 over at most 20k steps gives residuals near 1e-12).
RESIDUAL_MAX = 1e-9


def cnf_truth(num_vars: int, clauses) -> np.ndarray:
    """f(i) for every input i of a CNF; variable j reads bit num_vars - j."""
    inputs = np.arange(1 << num_vars, dtype=np.int64)
    true = {j: ((inputs >> (num_vars - j)) & 1).astype(bool) for j in range(1, num_vars + 1)}
    false = {j: ~bits for j, bits in true.items()}
    out = np.ones(inputs.shape, dtype=bool)
    for clause in clauses:
        sat = np.zeros(inputs.shape, dtype=bool)
        for lit in clause:
            sat |= true[lit] if lit > 0 else false[-lit]
        out &= sat
    return out


def cnf_solutions(num_vars: int, clauses) -> list[int]:
    return [int(i) for i in np.flatnonzero(cnf_truth(num_vars, clauses))]


def hbar_omegas(coefs, a: float) -> tuple[float, float]:
    """Phase frequencies (w1, w2) of hbar(a) = sum c_k a^k at latitude a."""
    hb = 0.0
    for c in reversed(coefs):
        hb = hb * a + c
    hp = 0.0
    for k in range(len(coefs) - 1, 0, -1):
        hp = hp * a + k * coefs[k]
    return hb - a * hp, hb + (1.0 - a) * hp


def contraction_latitude(eps: float) -> float:
    """Latitude a = sin^2(phi) of the contraction pass that `ngate-verify --eps` builds.

    The gate spends sqrt(eps) on its contraction stage, whose design
    offset is half of that (capped at 0.5), and rotates by
    phi = (pi - offset) / 4.
    """
    offset = min(math.sqrt(eps) / 2.0, 0.5)
    return math.sin((math.pi - offset) / 4.0) ** 2


def closed_form(c1: complex, c2: complex, coefs, t: float) -> tuple[complex, complex]:
    n = abs(c1) ** 2 + abs(c2) ** 2
    w1, w2 = hbar_omegas(coefs, abs(c2) ** 2 / n)
    return c1 * complex(math.cos(w1 * t), -math.sin(w1 * t)), c2 * complex(
        math.cos(w2 * t), -math.sin(w2 * t)
    )


class Outcome:
    OK = "ok"
    REFUSED = "refused"
    FAILED = "failed"


def _is_refusal(exc, rc, stderr: str) -> bool:
    if exc is not None:
        return isinstance(exc, ValueError)
    return rc in (1, 2) and stderr.startswith("error:")


def judge(op, exc, rc, out: bytes, stdout: str, stderr: str) -> tuple[str, str]:
    """Apply the failure rules to one operation's result; returns (outcome, reason)."""
    if op.at_limit and _is_refusal(exc, rc, stderr):
        return Outcome.REFUSED, f"refused at limit: {exc!r}" if exc else stderr.strip()
    if exc is not None:
        return Outcome.FAILED, f"raised {exc!r}"
    try:
        return _CHECKS[op.cls](op, rc, out, stdout, stderr)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return Outcome.FAILED, f"unreadable output: {err!r}"


def _report(rc, out: bytes, command: str) -> dict:
    if rc != 0:
        raise ValueError(f"exit code {rc}, expected 0")
    doc = json.loads(out)
    if doc["command"] != command:
        raise ValueError(f"report is for {doc['command']!r}")
    return doc["report"]


def _decision(s: int) -> str:
    return "solution-exists" if s > 0 else "no-solution"


def _check_solve(op, rc, out, stdout, stderr):
    rep = _report(rc, out, "solve")
    s = op.truth["s"]
    if rep["decision"] != _decision(s):
        return Outcome.FAILED, f"decided {rep['decision']!r} with s={s}"
    if op.cls == "solve_alg2" and rep["oracle_calls"] != 1:
        return Outcome.FAILED, f"alg2 made {rep['oracle_calls']} oracle calls"
    return Outcome.OK, ""


def _check_count(op, rc, out, stdout, stderr):
    rep = _report(rc, out, "count")
    if rep["count"] != op.truth["s"]:
        return Outcome.FAILED, f"counted {rep['count']} with s={op.truth['s']}"
    return Outcome.OK, ""


def _check_separation(op, rc, out, stdout, stderr):
    if rc != 0:
        return Outcome.FAILED, f"exit code {rc}, expected 0"
    lines = out.decode().splitlines()
    if lines[0] != "k\tbloch_separation" or len(lines) < 2:
        return Outcome.FAILED, "malformed separation table"
    for row in lines[1:]:
        k, sep = row.split("\t")
        if not 0.0 <= float(sep) <= math.pi:
            return Outcome.FAILED, f"separation {sep} outside [0, pi] at k={k}"
    summary = json.loads(stdout)
    crossed = summary["applications_to_threshold"] is not None
    if crossed != (op.truth["s"] > 0):
        return Outcome.FAILED, f"threshold crossing {crossed} with s={op.truth['s']}"
    return Outcome.OK, ""


def _check_ngate(op, rc, out, stdout, stderr):
    eps = op.truth["eps"]
    if not op.truth["solvable"]:
        if rc == 2 and "synthesis failed" in stderr:
            return Outcome.OK, ""
        return Outcome.FAILED, f"exit {rc} on a profile with no phase solution"
    rep = _report(rc, out, "ngate-verify")
    low = min(rep["case_fidelities"])
    if low < 1.0 - eps:
        return Outcome.FAILED, f"case fidelity {low!r} below 1 - eps"
    return Outcome.OK, ""


def _check_dynamics(op, rc, out, stdout, stderr):
    if rc != 0:
        return Outcome.FAILED, f"exit code {rc}, expected 0"
    tr = op.truth
    lines = out.decode().splitlines()
    if lines[0] != "t\tre_c1\tim_c1\tre_c2\tim_c2\tresidual" or len(lines) != tr["points"] + 1:
        return Outcome.FAILED, "malformed dynamics table"
    c1, c2 = complex(*tr["initial"][:2]), complex(*tr["initial"][2:])
    for i, row in enumerate(lines[1:]):
        t, r1, i1, r2, i2, resid = (float(x) for x in row.split("\t"))
        t_want = tr["t_max"] * i / (tr["points"] - 1)
        if abs(t - t_want) > 1e-12 * max(1.0, tr["t_max"]):
            return Outcome.FAILED, f"row {i}: t={t!r}, expected {t_want!r}"
        e1, e2 = closed_form(c1, c2, tr["hbar"], t)
        err = max(abs(complex(r1, i1) - e1), abs(complex(r2, i2) - e2))
        if err > TABLE_ATOL:
            return Outcome.FAILED, f"row {i}: off the closed form by {err:.3g}"
        if not resid <= RESIDUAL_MAX:
            return Outcome.FAILED, f"row {i}: RK4 residual {resid:.3g}"
    return Outcome.OK, ""


_CHECKS = {
    "solve_alg2": _check_solve,
    "solve_alg1": _check_solve,
    "separation": _check_separation,
    "count_alg1": _check_count,
    "count_alg2": _check_count,
    "ngate_verify": _check_ngate,
    "dynamics": _check_dynamics,
}
