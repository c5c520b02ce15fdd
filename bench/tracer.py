"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each traced function with a wrapper in every
`nlqsim` module namespace that holds it (so `nlqsim.cli.run_algorithm2`
and `nlqsim.algorithms.apply_1q_unitary` are caught as well as the
definitions) and on the class for methods.  `uninstall` puts the originals
back, so untraced runs execute the program unmodified.

A span is (target, start_ns, end_ns, parent, op_id, size, extra, ok).
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; the layer of a
span is the module that defines the traced function.  Bookkeeping that
costs O(2^n), such as the mapped-branch census of a branch lift, is
recorded as a child span of the pseudo-layer ``trace``, so it is charged
to no layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("statevector", "oracle", "weinberg", "gates", "algorithms", "cli")
BRANCH_ATOL = 1e-14  # weight below which the branch lift leaves a branch alone

# (module, attribute or Class.method, kind); kind selects what a span counts.
TARGETS = (
    ("statevector", "apply_1q_unitary", "kernel"),
    ("statevector", "apply_2q_unitary", "kernel"),
    ("statevector", "measure_qubits", "kernel"),
    ("statevector", "collapse_onto_pattern", "kernel"),
    ("statevector", "probability_of_pattern", "kernel"),
    ("statevector", "conditional_qubit_state", "kernel"),
    ("statevector", "new_basis_state", "kernel"),
    ("statevector", "StateVector.__post_init__", "validate"),
    ("oracle", "apply_oracle", "coherent"),
    ("oracle", "count_solutions_bruteforce", "bruteforce"),
    ("oracle", "parse_dimacs", "parse"),
    ("oracle", "load_truth_table", "parse"),
    ("oracle", "truth_vector", "other"),
    ("weinberg", "apply_conditional_nonlinear", "lift"),
    ("weinberg", "apply_conditional_subspace_map", "subspace"),
    ("weinberg", "evolve_integrated", "rk4"),
    ("weinberg", "find_phase_time", "phase_search"),
    ("weinberg", "trajectory", "other"),
    ("gates", "CompositeNGate.apply_to_register", "merge"),
    ("gates", "NonlinearMap.apply_batch", "map"),
    ("gates", "StretchMap.apply_batch", "map"),
    ("gates", "MergeTableMap.apply_batch", "map"),
    ("gates", "ExpandTableMap.apply_batch", "map"),
    ("gates", "build_N", "synth"),
    ("gates", "build_n_minus", "synth"),
    ("gates", "build_n_plus", "synth"),
    ("gates", "ideal_merge_gate", "synth"),
    ("algorithms", "run_algorithm1", "run"),
    ("algorithms", "run_algorithm1_count", "run"),
    ("algorithms", "run_algorithm2", "run"),
    ("algorithms", "run_algorithm2_count", "run"),
    ("algorithms", "_prepare_flag_state", "prepare"),
    ("algorithms", "_stretch_pair", "stretch"),
    ("algorithms", "_merge_counters", "other"),
    ("cli", "main", "cli"),
)
TRACE_ID = len(TARGETS)  # pseudo-target of the tracer's own bookkeeping

# Per-layer metric names and units, in report order.
METRICS = (
    ("statevector.calls", "count"),
    ("statevector.self_s", "s"),
    ("statevector.amps", "amps"),
    ("statevector.amps_per_s", "amps/s"),
    ("statevector.bytes_computed", "B"),
    ("statevector.small_calls", "count"),
    ("statevector.validate_calls", "count"),
    ("statevector.validate_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.coherent_calls", "count"),
    ("oracle.apply_s", "s"),
    ("oracle.amps", "amps"),
    ("oracle.bruteforce_calls", "count"),
    ("oracle.bruteforce_s", "s"),
    ("oracle.classical_evals", "count"),
    ("oracle.parse_s", "s"),
    ("weinberg.self_s", "s"),
    ("weinberg.lift_calls", "count"),
    ("weinberg.lift_s", "s"),
    ("weinberg.lift_branches", "count"),
    ("weinberg.lift_mapped_frac", "ratio"),
    ("weinberg.subspace_s", "s"),
    ("weinberg.subspace_amps", "amps"),
    ("weinberg.rk4_calls", "count"),
    ("weinberg.rk4_steps", "count"),
    ("weinberg.rk4_s", "s"),
    ("weinberg.rk4_ns_per_step", "ns"),
    ("weinberg.phase_search_calls", "count"),
    ("weinberg.phase_search_failed", "count"),
    ("weinberg.phase_search_s", "s"),
    ("gates.self_s", "s"),
    ("gates.merge_sweeps", "count"),
    ("gates.merge_s", "s"),
    ("gates.map_calls", "count"),
    ("gates.map_rows", "count"),
    ("gates.map_s", "s"),
    ("gates.synth_calls", "count"),
    ("gates.synth_failed", "count"),
    ("gates.synth_s", "s"),
    ("algorithms.runs", "count"),
    ("algorithms.self_s", "s"),
    ("algorithms.trials_per_run", "ratio"),
    ("algorithms.oracle_calls_per_run", "ratio"),
    ("algorithms.stretch_apps", "count"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _register_size(state) -> int:
    return 1 << int(state.num_qubits)


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op_id = -1
        self._restore: list = []
        self.names = [f"{mod}.{name}" for mod, name, _ in TARGETS] + ["trace.bookkeeping"]

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "nlqsim" or key.startswith("nlqsim.")]
        for tid, (mod, name, kind) in enumerate(TARGETS):
            module = sys.modules[f"nlqsim.{mod}"]
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(tid, kind, orig))
                continue
            orig = getattr(module, name)
            wrapper = self._wrap(tid, kind, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, tid: int, kind: str, fn):
        tracer = self
        clock = time.perf_counter_ns
        bind = inspect.signature(fn).bind if kind == "rk4" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            extra, ok, result = 0, False, None
            t0 = clock()
            try:
                if kind == "lift":
                    extra = tracer._mapped_branches(args[0], args[1], idx)
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                size = tracer._size(kind, args, kwargs, result, bind)
                spans[idx] = (tid, t0, t1, parent, tracer.op_id, size, extra, ok)

        return wrapper

    def _mapped_branches(self, state, target: int, parent: int) -> int:
        """Branches the lift will map (weight >= 1e-14), charged to no layer."""
        t0 = time.perf_counter_ns()
        n = int(state.num_qubits)
        probs = np.abs(state.amplitudes.reshape(1 << target, 2, 1 << (n - 1 - target))) ** 2
        mapped = int(np.count_nonzero(probs.sum(axis=1) >= BRANCH_ATOL))
        self.spans.append((TRACE_ID, t0, time.perf_counter_ns(), parent, self.op_id, 0, 0, True))
        return mapped

    @staticmethod
    def _size(kind, args, kwargs, result, bind) -> int:
        if kind in ("kernel", "validate", "coherent", "subspace"):
            if kind == "kernel" and isinstance(args[0], int):  # new_basis_state(num_qubits, i)
                return 1 << args[0]
            return _register_size(args[0])
        if kind == "lift":
            return _register_size(args[0]) // 2
        if kind == "bruteforce":
            var = getattr(args[0], "variant", args[0])
            return (1 << var.num_vars) if hasattr(var, "clauses") else 0
        if kind == "map":
            return int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1
        if kind == "rk4":
            bound = bind(*args, **kwargs).arguments
            return math.ceil(bound["t"] / bound["dt"]) if bound["dt"] > 0 else 0
        if kind == "run" and result is not None:
            return int(result.oracle_calls)
        if kind == "prepare" and result is not None:
            return int(result[1])
        return 0

    # -- analysis ------------------------------------------------------------

    def metrics(self, rounds: int, overhead_frac: float) -> dict:
        """Per-layer metrics averaged over rounds (counts repeat exactly per round)."""
        spans = self.spans
        child = [0] * len(spans)
        for tid, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        kinds = [kind for _, _, kind in TARGETS] + ["trace"]
        layers = [mod for mod, _, _ in TARGETS] + ["trace"]
        acc: dict = {}

        def add(key, value):
            acc[key] = acc.get(key, 0) + value

        for i, (tid, t0, t1, parent, op, size, extra, ok) in enumerate(spans):
            kind, layer = kinds[tid], layers[tid]
            self_s = (t1 - t0 - child[i]) * 1e-9
            add(f"{layer}.self_s", self_s)
            if kind == "kernel":
                add("statevector.calls", 1)
                add("statevector.amps", size)
                add("statevector.small_calls", 1 if size <= 4 else 0)
            elif kind == "validate":
                add("statevector.validate_calls", 1)
                add("statevector.validate_s", self_s)
            elif kind == "coherent":
                add("oracle.coherent_calls", 1)
                add("oracle.apply_s", self_s)
                add("oracle.amps", size)
            elif kind == "bruteforce":
                add("oracle.bruteforce_calls", 1)
                add("oracle.bruteforce_s", self_s)
                add("oracle.classical_evals", size)
            elif kind == "parse":
                add("oracle.parse_s", self_s)
            elif kind == "lift":
                add("weinberg.lift_calls", 1)
                add("weinberg.lift_s", self_s)
                add("weinberg.lift_branches", size)
                add("weinberg.lift_mapped", extra)
            elif kind == "subspace":
                add("weinberg.subspace_s", self_s)
                add("weinberg.subspace_amps", size)
            elif kind == "rk4":
                add("weinberg.rk4_calls", 1)
                add("weinberg.rk4_steps", size)
                add("weinberg.rk4_s", self_s)
            elif kind == "phase_search":
                add("weinberg.phase_search_calls", 1)
                add("weinberg.phase_search_failed", 0 if ok else 1)
                add("weinberg.phase_search_s", self_s)
            elif kind == "merge":
                add("gates.merge_sweeps", 1)
                add("gates.merge_s", self_s)
            elif kind == "map":
                add("gates.map_calls", 1)
                add("gates.map_rows", size)
                add("gates.map_s", self_s)
            elif kind == "synth":
                add("gates.synth_s", self_s)
                if parent < 0 or kinds[spans[parent][0]] != "synth":
                    add("gates.synth_calls", 1)
                    add("gates.synth_failed", 0 if ok else 1)
            elif kind == "run":
                add("algorithms.runs", 1)
                add("algorithms.oracle_calls", size)
                if TARGETS[tid][1].startswith("run_algorithm2"):  # no post-selection
                    add("algorithms.trials", 1)
                    add("algorithms.preparations", 1)
            elif kind == "prepare":
                add("algorithms.trials", size)
                add("algorithms.preparations", 1)
            elif kind == "stretch":
                add("algorithms.stretch_apps", 1)
            elif kind == "cli":
                add("cli.calls", 1)

        out = {}
        for name, unit in METRICS:
            out[name] = acc.get(name, 0) / rounds
        out["statevector.bytes_computed"] = 16 * out["statevector.amps"]
        out["statevector.amps_per_s"] = _ratio(acc.get("statevector.amps", 0),
                                               acc.get("statevector.self_s", 0))
        out["weinberg.lift_mapped_frac"] = _ratio(acc.get("weinberg.lift_mapped", 0),
                                                  acc.get("weinberg.lift_branches", 0))
        out["weinberg.rk4_ns_per_step"] = _ratio(1e9 * acc.get("weinberg.rk4_s", 0),
                                                 acc.get("weinberg.rk4_steps", 0))
        out["algorithms.trials_per_run"] = _ratio(acc.get("algorithms.trials", 0),
                                                  acc.get("algorithms.preparations", 0))
        out["algorithms.oracle_calls_per_run"] = _ratio(acc.get("algorithms.oracle_calls", 0),
                                                        acc.get("algorithms.runs", 0))
        out["trace.spans"] = len(spans) / rounds
        out["trace.overhead_frac"] = overhead_frac
        return {name: {"value": out[name], "unit": unit} for name, unit in METRICS}

    def dump(self) -> dict:
        fields = ("target", "start_ns", "end_ns", "parent", "op_id", "size", "extra", "ok")
        return {"names": self.names, "fields": fields, "spans": self.spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
