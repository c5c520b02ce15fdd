"""Seeded workload generator: oracle files, argument lists and ground truth.

Operations come in blocks of 16 with a fixed mix of command classes and
input kinds; the seed draws everything else (solution sets, clauses,
solution counts, tolerances, profiles, initial states, program seeds).
Block b of a workload depends only on (seed, workload, b), so the same
seed always gives the same operation sequence, however far a run gets.

Parameters that set an operation's cost (clause count, solution count,
tolerance, evolution time) are stratified rather than drawn independently:
the k-th operation of a class takes the k-th point of a golden-ratio
sequence whose start the seed draws.  Any prefix of a run then covers the
parameter range evenly, so its medians barely move from seed to seed.

The mix is chosen so that every reported median and 90th percentile falls
inside a cost cluster rather than on the edge between two (for example,
the truth-table and CNF clusters of `decide`): a quantile on such an edge
jumps between the clusters from one seed to the next.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from check import cnf_solutions, contraction_latitude, hbar_omegas

WORKLOADS = {"decide": 1, "count": 2, "synth": 3}
WARMUP_SEED = 20260101
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CUBIC_SPAN = 0.5  # largest phase frequency of a no-solution cubic

# decide: per block, 7 alg2 (5 truth tables, 2 CNF), 7 alg1 (1 truth table,
# 6 CNF) and 2 separation runs (CNF); one alg2 input in 16 has s = 2.
# count: per block, 8 alg1 (2 at n = 10, 5 at n = 11, 1 at n = 12) and 8 alg2
# (2 at n = 8, 6 at n = 9); one alg2 input in 16 is at n = 10.
# synth: per block, 2 ngate-verify on the phase-aligned profile, 4 on a
# cubic profile without phase solution, and 10 dynamics runs.
DECIDE_CNF = {"solve_alg2": (2, 5), "solve_alg1": (0, 1, 2, 4, 5, 6), "separation": (0, 1)}
DECIDE_MIX = (("solve_alg2", 7), ("solve_alg1", 7), ("separation", 2))
COUNT_MIX = (("count_alg1", 8), ("count_alg2", 8))
COUNT_ALG1_N = (10, 11, 11, 12, 11, 10, 11, 11)
COUNT_ALG2_N8 = (0, 4)
SYNTH_MIX = (("ngate_verify", 6), ("dynamics", 10))
NGATE_ALIGNED = (0, 3)
DYNAMICS_PROFILES = ((0.0, 0.0, 1.0), (0.25, -0.5, 0.3, 0.8), (0.5, 1.5))


@dataclass
class Op:
    """One CLI invocation plus what the benchmark knows its answer must be."""

    cls: str
    variant: str
    argv: list
    truth: dict = field(default_factory=dict)
    at_limit: bool = False


def _fmt(x: float) -> str:
    return repr(float(x))


class Generator:
    """Writes the input files of a workload into workdir, block by block."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self._bits: dict[int, np.ndarray] = {}
        self._starts: dict[tuple, float] = {}
        os.makedirs(workdir, exist_ok=True)

    def block(self, b: int, prefix: str = "") -> list[Op]:
        rng = np.random.default_rng([self.seed, WORKLOADS[self.workload], b])
        mix = {"decide": DECIDE_MIX, "count": COUNT_MIX, "synth": SYNTH_MIX}[self.workload]
        ops = []
        for cls, per_block in mix:
            for j in range(per_block):
                k = b * per_block + j
                ops.append(getattr(self, "_" + cls)(rng, k, j, f"{prefix}b{b}-{cls}-{j}"))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def warmup(self) -> list[Op]:
        """One canonical operation per command class, independent of the seed."""
        saved, self.seed = self.seed, WARMUP_SEED
        try:
            first = {}
            for op in self.block(0, prefix="warmup-"):
                if not op.at_limit and op.cls not in first:
                    first[op.cls] = op
            return list(first.values())
        finally:
            self.seed = saved

    def spread(self, key: str, k: int) -> float:
        """k-th point in [0, 1) of the golden-ratio sequence named key."""
        start = self._starts.get((self.seed, key))
        if start is None:
            ids = [self.seed, WORKLOADS[self.workload], zlib.crc32(key.encode())]
            start = self._starts[(self.seed, key)] = float(np.random.default_rng(ids).random())
        return (start + k * GOLDEN) % 1.0

    # -- command classes ---------------------------------------------------

    def _solve_alg2(self, rng, k, j, tag):
        at_limit = k % 16 == 15
        s = 2 if at_limit else int(rng.integers(0, 2))
        cnf = (k // 16) % 2 == 1 if at_limit else j in DECIDE_CNF["solve_alg2"]
        return self._decide_op("solve_alg2", ["solve", "--algorithm", "alg2"], 14, s, cnf,
                               rng, k, tag, at_limit)

    def _solve_alg1(self, rng, k, j, tag):
        s = int(9 * self.spread("solve_alg1-s", k))
        return self._decide_op("solve_alg1", ["solve", "--algorithm", "alg1"], 16, s,
                               j in DECIDE_CNF["solve_alg1"], rng, k, tag, False)

    def _separation(self, rng, k, j, tag):
        s = int(9 * self.spread("separation-s", k))
        return self._decide_op("separation", ["separation"], 16, s,
                               j in DECIDE_CNF["separation"], rng, k, tag, False)

    def _count_alg1(self, rng, k, j, tag):
        n = COUNT_ALG1_N[j]
        return self._count_op("count_alg1", "alg1", n, rng, k, tag, False)

    def _count_alg2(self, rng, k, j, tag):
        at_limit = k % 16 == 15
        n = 10 if at_limit else (8 if j in COUNT_ALG2_N8 else 9)
        return self._count_op("count_alg2", "alg2", n, rng, k, tag, at_limit)

    def _ngate_verify(self, rng, k, j, tag):
        if j in NGATE_ALIGNED:
            eps = 10.0 ** -(3.0 + 6.0 * self.spread("ngate-aligned-eps", k))
            return Op("ngate_verify", "aligned", ["ngate-verify", "--eps", _fmt(eps)],
                      {"eps": eps, "solvable": True})
        eps = 10.0 ** -(1.0 + self.spread("ngate-cubic-eps", k))
        coefs = no_solution_cubic(eps, rng)
        return Op("ngate_verify", "cubic",
                  ["ngate-verify", "--eps", _fmt(eps), "--hbar=" + ",".join(map(_fmt, coefs))],
                  {"eps": eps, "solvable": False})

    def _dynamics(self, rng, k, j, tag):
        coefs = DYNAMICS_PROFILES[k % len(DYNAMICS_PROFILES)]
        t_max = 5.0 + 15.0 * self.spread("dynamics-t", k)
        z = rng.normal(size=4)
        z /= np.linalg.norm(z)
        initial = [float(x) for x in z]
        points = 101
        # "--flag=value": argparse would read a leading "-0.3,..." as an option
        argv = ["dynamics", "--hbar=" + ",".join(map(_fmt, coefs)),
                "--initial=" + ",".join(map(_fmt, initial)),
                "--t-max", _fmt(t_max), "--points", str(points), "--dt", "0.001"]
        return Op("dynamics", f"degree{len(coefs) - 1}", argv,
                  {"hbar": list(coefs), "initial": initial, "t_max": t_max, "points": points})

    # -- inputs ------------------------------------------------------------

    def _common(self, rng) -> list[str]:
        return ["--seed", str(int(rng.integers(0, 2**31))), "--noise-sigma", "0"]

    def _decide_op(self, cls, head, n, s, cnf, rng, k, tag, at_limit):
        sols = sorted(int(x) for x in rng.choice(1 << n, size=s, replace=False))
        if cnf:
            while True:
                try:
                    ratio = 4.0 + 6.0 * self.spread(cls + "-clauses", k)
                    path = self._write_cnf(tag, n, sols, rng, ratio)
                    break
                except Unplantable:
                    sols = sorted(int(x) for x in rng.choice(1 << n, size=s, replace=False))
            argv = head + ["--input", path]
        else:
            path = self._write_truth_table(tag, n, sols)
            argv = head + ["--truth-table", path]
        return Op(cls, "cnf" if cnf else "tt", argv + self._common(rng), {"s": s, "n": n},
                  at_limit)

    def _count_op(self, cls, alg, n, rng, k, tag, at_limit):
        s = int(21 * self.spread(cls + "-s", k))
        sols = sorted(int(x) for x in rng.choice(1 << n, size=s, replace=False))
        path = self._write_truth_table(tag, n, sols)
        argv = ["count", "--algorithm", alg, "--truth-table", path] + self._common(rng)
        return Op(cls, f"n{n}", argv, {"s": s, "n": n}, at_limit)

    def _write_truth_table(self, tag, n, sols) -> str:
        path = os.path.join(self.workdir, tag + ".json")
        with open(path, "w") as fh:
            json.dump({"num_vars": n, "solutions": sols}, fh)
        return path

    def _write_cnf(self, tag, n, sols, rng, ratio) -> str:
        clauses = self.planted_cnf(n, sols, rng, ratio)
        if cnf_solutions(n, clauses) != sols:
            raise RuntimeError(f"generated CNF {tag} does not have solution set {sols}")
        path = os.path.join(self.workdir, tag + ".cnf")
        with open(path, "w") as fh:
            fh.write(f"c {tag}: {len(sols)} planted solutions\n")
            fh.write(f"p cnf {n} {len(clauses)}\n")
            for clause in clauses:
                fh.write(" ".join(map(str, clause)) + " 0\n")
        return path

    def planted_cnf(self, n, sols, rng, ratio) -> list[list[int]]:
        """3-literal CNF whose solution set is exactly sols.

        While other inputs survive, picks a random survivor x and adds a
        random clause that x violates and every planted solution satisfies.
        Then keeps adding random clauses that every planted solution
        satisfies, up to ratio * n clauses, so that oracle cost varies
        from input to input.  Raises Unplantable
        when some x cannot be cut off by a 3-literal clause.
        """
        bits = self._bits.get(n)
        if bits is None:
            idx = np.arange(1 << n, dtype=np.int64)
            bits = ((idx[None, :] >> (n - 1 - np.arange(n)[:, None])) & 1).astype(bool)
            self._bits[n] = bits
        triples = np.array(list(itertools.combinations(range(n), 3)))
        planted = np.zeros(1 << n, dtype=bool)
        planted[sols] = True
        alive = ~planted
        target = int(round(ratio * n))
        clauses = []
        while alive.any() or len(clauses) < target:
            if alive.any():
                x = int(rng.choice(np.flatnonzero(alive)))
                differs = bits[:, sols] != bits[:, x][:, None]
                cut = differs[triples].any(axis=1).all(axis=1)
                if not cut.any():
                    raise Unplantable(f"input {x} cannot be separated from {sols}")
                var = triples[rng.choice(np.flatnonzero(cut))]
                sign = ~bits[var, x]
            else:
                var = rng.choice(n, size=3, replace=False)
                sign = rng.integers(0, 2, size=3).astype(bool)
            sat = (bits[var[0]] == sign[0]) | (bits[var[1]] == sign[1]) | (bits[var[2]] == sign[2])
            if not sat[planted].all():
                continue
            alive &= sat
            clauses.append([int(v + 1) if sg else -int(v + 1) for v, sg in zip(var, sign)])
        return clauses


class Unplantable(Exception):
    """No 3-literal CNF has exactly the requested solution set."""


def no_solution_cubic(eps: float, rng) -> list[float]:
    """Cubic hbar with hbar'(u) = 0 at the contraction latitude u for eps.

    There w1(u) = w2(u), so exp(-i w1 t) = 1 and exp(-i w2 t) = -1 cannot
    hold together at any t: the phase search must fail, and `ngate-verify`
    must exit 2.  The other coefficients are random, so the search scans
    its full grid just as it does for a generic cubic.  The profile is
    scaled so that its largest frequency at the two operating latitudes is
    CUBIC_SPAN, which fixes the grid size, and so the cost, for a given eps.
    """
    u = contraction_latitude(eps)
    c0 = float(rng.uniform(0.2, 1.0)) * (1 if rng.integers(0, 2) else -1)
    c2, c3 = (float(x) for x in rng.uniform(-1.0, 1.0, size=2))
    c1 = -(2.0 * c2 * u + 3.0 * c3 * u * u)
    coefs = [c0, c1, c2, c3]
    span = max(abs(w) for a in (u, 1.0 - u) for w in hbar_omegas(coefs, a))
    return [c * CUBIC_SPAN / span for c in coefs]
