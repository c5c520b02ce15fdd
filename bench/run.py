"""nlqsim benchmark: one closed-loop client driving `nlqsim.cli.main` in process.

Usage (from the repository root):

    python3 bench/run.py --workload {decide,count,synth,all} --seed N \
        --seconds S --trace {0,1}

The benchmark generates its inputs from --seed (see gen.py), sends the
next command only after the previous one returned, and checks every
output against ground truth it computed itself (check.py).

--trace 0 measures the end-to-end metrics: it issues operations until
their summed wall time reaches --seconds and reports throughput, latency
quantiles, set-up time (the median over fresh interpreters) and peak
memory.

--trace 1 measures the per-layer split: it runs the first two blocks (32
operations) untraced and then traced, in rounds until --seconds is used,
checks that both passes wrote byte-identical reports and tables, and
reports each layer's counts and self time per round (see tracer.py).
The spans are written to bench/out/spans-<workload>-<seed>.json.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}; the line before it holds the details (per-class
tallies and medians, refusals, provenance).  Every time is host wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from check import judge
from gen import Generator
from host import provenance
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "nlqsim")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_PROBES = 5
TRACE_BLOCKS = 2
WALL_GUARD_S = 150.0  # stop issuing operations after this much wall time
# End-to-end per-class medians: class a and class b of each workload.
CLASS_SLOTS = {
    "decide": ("solve_alg2", "solve_alg1"),
    "count": ("count_alg2", "count_alg1"),
    "synth": ("ngate_verify", "dynamics"),
}
E2E_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "class_a_p50_s": "s",
    "class_b_p50_s": "s",
}


@dataclass
class Result:
    """One executed operation: what the program did and the verdict on it."""

    op: object
    seconds: float
    exc: BaseException | None
    rc: int | None
    out: bytes
    stdout: str
    stderr: str
    outcome: str = ""
    reason: str = ""

    def fingerprint(self) -> tuple:
        return (self.rc, repr(self.exc), self.out, self.stdout, self.stderr)


def execute(main, op, out_path: str) -> Result:
    """Run one operation through the CLI entry point, capturing everything it writes."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    exc = rc = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = main(op.argv + ["--out", out_path])
        except (Exception, SystemExit) as err:  # a raising operation is a result, not a crash
            exc = err
        seconds = time.perf_counter() - t0
    out = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            out = fh.read()
    return Result(op, seconds, exc, rc, out, stdout.getvalue(), stderr.getvalue())


def judged(res: Result) -> Result:
    res.outcome, res.reason = judge(res.op, res.exc, res.rc, res.out, res.stdout, res.stderr)
    return res


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def measure_setup(warm_ops, workdir: str) -> dict:
    """set-up time in fresh interpreters: import nlqsim plus one warm-up op per class."""
    ops_path = os.path.join(workdir, "warmup-ops.json")
    with open(ops_path, "w") as fh:
        json.dump([op.argv for op in warm_ops], fh)
    probe = os.path.join(BENCH_DIR, "probe.py")
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, SRC, ops_path, os.path.join(workdir, "probe.out")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "probes": runs,
    }


def summarize(results: list, workload: str) -> dict:
    """End-to-end metrics and per-class details of an untraced run."""
    ok = [r for r in results if r.outcome == "ok"]
    lat = sorted(r.seconds for r in ok)
    busy = sum(r.seconds for r in results)
    classes = {}
    for r in results:
        c = classes.setdefault(r.op.cls, {"attempted": 0, "ok": 0, "failed": 0, "refused": 0,
                                          "latencies": {}})
        c["attempted"] += 1
        c[r.outcome] += 1
        if r.outcome == "ok":
            c["latencies"].setdefault(r.op.variant, []).append(r.seconds)
    for c in classes.values():
        every = [t for ts in c["latencies"].values() for t in ts]
        c["p50_s"] = statistics.median(every) if every else None
        c["variant_p50_s"] = {v: statistics.median(ts) for v, ts in sorted(c["latencies"].items())}
        c["variant_ok"] = {v: len(ts) for v, ts in sorted(c["latencies"].items())}
        del c["latencies"]
    a, b = CLASS_SLOTS[workload]
    n_failed = sum(r.outcome == "failed" for r in results)
    n_refused = sum(r.outcome == "refused" for r in results)
    p90 = quantile(lat, 0.9) if lat else None
    return {
        "metrics": {
            "ops_per_s": len(ok) / busy if busy else 0.0,
            "latency_p50_s": statistics.median(lat) if lat else None,
            "latency_p90_s": p90,
            "class_a_p50_s": classes.get(a, {}).get("p50_s"),
            "class_b_p50_s": classes.get(b, {}).get("p50_s"),
        },
        "details": {
            "busy_s": busy,
            "ok": len(ok),
            "refused": n_refused,
            "failed_frac": {"value": (n_failed + n_refused) / len(results) if results else None,
                            "unit": "ratio"},
            "class_p50": {f"{k}_p50_s": {"value": classes[k]["p50_s"], "unit": "s"}
                          for k in sorted(classes)},
            "p90_tail": sum(t > p90 for t in lat) if lat else 0,
            "class_slots": {"class_a": a, "class_b": b},
            "classes": {k: classes[k] for k in sorted(classes)},
            "failures": [
                {"cls": r.op.cls, "argv": r.op.argv, "reason": r.reason}
                for r in results if r.outcome == "failed"
            ][:20],
        },
    }


def timed_run(main, gen, seconds: float, out_path: str) -> list:
    results, busy, b = [], 0.0, 0
    started = time.monotonic()
    while busy < seconds and time.monotonic() - started < WALL_GUARD_S:
        for op in gen.block(b):
            res = judged(execute(main, op, out_path))
            results.append(res)
            busy += res.seconds
            if busy >= seconds:
                break
        b += 1
    return results


def traced_run(main, gen, seconds: float, out_path: str):
    ops = [op for b in range(TRACE_BLOCKS) for op in gen.block(b)]
    tracer = Tracer()
    results, mismatches = [], []
    plain_s = traced_s = 0.0
    rounds = 0
    started = time.monotonic()
    while rounds == 0 or (plain_s + traced_s < seconds
                          and time.monotonic() - started < WALL_GUARD_S):
        plain = [judged(execute(main, op, out_path)) for op in ops]
        tracer.install()
        try:
            traced = []
            for i, op in enumerate(ops):
                tracer.op_id = rounds * len(ops) + i
                traced.append(judged(execute(main, op, out_path)))
        finally:
            tracer.uninstall()
        for p, t in zip(plain, traced):
            if p.fingerprint() != t.fingerprint():
                mismatches.append({"cls": p.op.cls, "argv": p.op.argv})
        plain_s += sum(r.seconds for r in plain)
        traced_s += sum(r.seconds for r in traced)
        results += plain + traced
        rounds += 1
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    return results, tracer, rounds, overhead, mismatches


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CLASS_SLOTS) + ["all"],
                   help="one workload, or all three in turn, each in a fresh interpreter")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run every workload with the same seed, each in its own process (own peak RSS)."""
    status = 0
    for workload in sorted(CLASS_SLOTS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        sys.stderr.write(f"error: no nlqsim sources at {PKG}\n")
        return 2
    sys.path.insert(0, SRC)
    import nlqsim.cli

    if os.path.realpath(os.path.dirname(nlqsim.__file__)) != os.path.realpath(PKG):
        sys.stderr.write(f"error: imported nlqsim from {nlqsim.__file__}, not {PKG}\n")
        return 2

    workdir = os.path.join(OUT_DIR, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    gen = Generator(args.workload, args.seed, workdir)
    out_path = os.path.join(workdir, "op.out")
    warm = gen.warmup()
    setup = measure_setup(warm, workdir)

    def entry(argv):  # looked up per call, so the tracer's wrapper of main is seen
        return nlqsim.cli.main(argv)

    warm_results = [judged(execute(entry, op, out_path)) for op in warm]
    warm_failures = [{"cls": r.op.cls, "reason": r.reason}
                     for r in warm_results if r.outcome != "ok"]

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "warmup_failures": warm_failures,
               "setup": setup}
    if args.trace:
        results, tracer, rounds, overhead, mismatches = traced_run(
            entry, gen, args.seconds, out_path)
        metrics = tracer.metrics(rounds, overhead)
        details.update({"rounds": rounds, "ops_per_round": len(results) // (2 * rounds),
                        "refused": sum(r.outcome == "refused" for r in results),
                        "byte_mismatches": mismatches[:20]})
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
        correct_extra = not mismatches
    else:
        results = timed_run(entry, gen, args.seconds, out_path)
        summary = summarize(results, args.workload)
        values = dict(summary["metrics"], setup_s=setup["setup_s"],
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        details.update(summary["details"])
        correct_extra = all(v["value"] is not None for v in metrics.values())
    failed = sum(r.outcome == "failed" for r in results)
    details["provenance"] = provenance(ROOT, PKG, args.workload, args.seed)
    result = {
        "correct": failed == 0 and not warm_failures and correct_extra,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1, default=str)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
