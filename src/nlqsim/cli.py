"""Command-line front end: load oracles, run algorithms, emit reports.

Outputs are deterministic for a fixed seed: reports are JSON documents
with sorted keys and no timestamps (pass --timing to record wall time),
tables are tab-separated with a one-line header.

`solve` and `count` share one run frame, `cmd_run`.  `_RUNS` lists the flags
each run reads with the library's own field defaults (`StretchMap.lam`, ...);
a run accepts, checks and echoes exactly those.

Exit codes: 0 ran and decided, 1 usage or input error as one `error:`
line (argparse's errors and a ValueError from the library, such as a size
cap, are reported the same way), 2 computation budget or synthesis failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .algorithms import (
    Alg1Config,
    Alg2Config,
    run_algorithm1,
    run_algorithm1_count,
    run_algorithm2,
    run_algorithm2_count,
    table_merge_gate,
)
from .gates import DEFAULT_GATE_EPS, StretchMap, SynthesisError, build_N
from .oracle import DimacsError, OracleSpec, load_truth_table, parse_dimacs
from .statevector import ARRAY_BUDGET_BYTES
from .weinberg import HbarFunction, trajectory

SCHEMA_VERSION = "1"


class CliError(Exception):
    """Usage or input problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise CliError (its subparsers share the
    class), so main reports them as one line with exit code 1, and which
    reads a negative number with an exponent (--lambda -1e-3) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    """argparse type of every flag that takes one real number: no nan or inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _report_document(command: str, config: dict, payload: dict,
                     wall_time: float | None) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "report": payload,
        "wall_time": wall_time,
        "library_version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _load_oracle(args) -> OracleSpec:
    given = [p for p in (args.input, args.truth_table) if p is not None]
    if len(given) != 1:
        raise CliError("provide exactly one of --input (DIMACS) or --truth-table (JSON)")
    try:
        with open(given[0], "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {given[0]}: {exc}") from exc
    try:
        if args.input is not None:
            return OracleSpec(parse_dimacs(text))
        return OracleSpec(load_truth_table(text))
    except (DimacsError, ValueError) as exc:
        raise CliError(f"{given[0]}: {exc}") from exc


def _parse_hbar(text: str) -> HbarFunction:
    try:
        return HbarFunction(tuple(float(x) for x in text.split(",")))
    except ValueError as exc:
        raise CliError(f"invalid --hbar coefficients {text!r}: {exc}") from exc


def _alg1_config(run: dict, oracle: OracleSpec, **extra) -> Alg1Config:
    try:
        stretch = StretchMap(theta0=run["theta0"], eta=run["eta"], lam=run["lam"])
    except (ValueError, OverflowError) as exc:  # exp(--lambda) may overflow
        raise CliError(f"invalid stretch parameters: {exc}") from exc
    return Alg1Config(n=oracle.num_vars, oracle=oracle, stretch=stretch,
                      max_applications=run["max_applications"], max_trials=run["max_trials"],
                      noise_sigma=run["noise_sigma"], seed=run["seed"], **extra)


def _alg2_config(run: dict, oracle: OracleSpec, **extra) -> Alg2Config:
    return Alg2Config(n=oracle.num_vars, oracle=oracle, noise_sigma=run["noise_sigma"],
                      seed=run["seed"], **extra)


# Flags a run reads, by dest, with their library defaults.  Every run reads
# --seed and --noise-sigma: `algorithms._driver` builds every noise model from both.
_SEEDED = {"seed": Alg1Config.seed, "noise_sigma": Alg1Config.noise_sigma}
_ALG1 = {**_SEEDED, "lam": StretchMap.lam, "eta": StretchMap.eta, "theta0": StretchMap.theta0,
         "max_applications": Alg1Config.max_applications, "max_trials": Alg1Config.max_trials}

# (command, --algorithm) -> (driver, the flags it reads, its config from
# them, keys only that command's report echoes).  A run accepts, checks and
# echoes exactly the flags it reads.  The driver is named, not held, so
# that a wrapped or patched cli.run_* is the one that runs.
_RUNS = {
    ("solve", "alg1"): ("run_algorithm1", {**_ALG1, "threshold": Alg1Config.decision_threshold},
                        lambda r, o: _alg1_config(r, o, decision_threshold=r["threshold"]),
                        {"gate_realization": None}),
    ("solve", "alg2"): ("run_algorithm2", {**_SEEDED, "eps": DEFAULT_GATE_EPS},
                        lambda r, o: _alg2_config(r, o, gate=table_merge_gate(r["eps"])),
                        {"gate_realization": "table"}),
    ("count", "alg1"): ("run_algorithm1_count", _ALG1, _alg1_config, {}),
    ("count", "alg2"): ("run_algorithm2_count",
                        {**_SEEDED, "counter_width": Alg2Config.counter_width},
                        lambda r, o: _alg2_config(r, o, counting=True,
                                                  counter_width=r["counter_width"]), {}),
}
_RUN_FLAGS = {dest for _, reads, _, _ in _RUNS.values() for dest in reads}

# Checks on run flags from the command line, each where a run reads its flag.
_FLAG_RULES = {
    "max_applications": ("--max-applications must be >= 0", lambda v: v >= 0),
    "max_trials": ("--max-trials must be >= 1", lambda v: v is None or v >= 1),
    "noise_sigma": ("--noise-sigma must be >= 0", lambda v: v >= 0.0),
    "threshold": ("--threshold must lie in (0, 1)", lambda v: 0.0 < v < 1.0),
}


def _read_flags(args, reads: dict) -> dict:
    """The flags in reads at their given or default values, checked; run flags
    parse to no default, so a given one the run does not read is refused."""
    unread = ["--" + ("lambda" if dest == "lam" else dest.replace("_", "-"))
              for dest in vars(args) if dest in _RUN_FLAGS and dest not in reads]
    if unread:
        raise CliError(f"{args.command} --algorithm {args.algorithm} does not read "
                       + ", ".join(unread))
    run = {dest: getattr(args, dest, default) for dest, default in reads.items()}
    for dest, (rule, holds) in _FLAG_RULES.items():
        if dest in run and not holds(run[dest]):
            raise CliError(f"{rule}, got {run[dest]}")
    return run


def cmd_run(args) -> int:
    """solve and count: one algorithm run on the oracle, written as a report."""
    driver, reads, config, extra_echo = _RUNS[args.command, args.algorithm]
    run = _read_flags(args, reads)
    oracle = _load_oracle(args)
    started = time.monotonic()
    report = globals()[driver](config(run, oracle))
    wall = time.monotonic() - started if args.timing else None
    echo = {"algorithm": args.algorithm, **run, **extra_echo}
    _write_text(args.out, _report_document(args.command, echo, report.to_dict(), wall))
    return 0 if report.succeeded else 2


def cmd_dynamics(args) -> int:
    h = _parse_hbar(args.hbar)
    parts = args.initial.split(",")
    if len(parts) != 4:
        raise CliError("--initial needs four comma-separated reals: re1,im1,re2,im2")
    try:
        vals = [float(x) for x in parts]
    except ValueError as exc:
        raise CliError(f"invalid --initial: {exc}") from exc
    # x * x overflows to inf where the library's abs(c) ** 2 would raise,
    # and a nan or inf part makes the sum nan or inf
    if not 0.0 < sum(x * x for x in vals) < math.inf:
        raise CliError(f"--initial must be four finite reals with a positive, finite "
                       f"squared norm, got {args.initial}")
    if args.t_max < 0.0:
        raise CliError(f"invalid time grid: --t-max must be nonnegative, got {args.t_max}")
    if args.dt <= 0.0:
        raise CliError(f"invalid time grid: --dt must be positive, got {args.dt}")
    max_points = ARRAY_BUDGET_BYTES // 48  # six float64 per table row
    if not 1 <= args.points <= max_points:
        raise CliError(f"invalid time grid: --points must lie in [1, {max_points}], "
                       f"got {args.points}")
    c1 = complex(vals[0], vals[1])
    c2 = complex(vals[2], vals[3])
    times = np.linspace(0.0, args.t_max, args.points)
    rows = trajectory(c1, c2, h, times, dt=args.dt)
    lines = ["t\tre_c1\tim_c1\tre_c2\tim_c2\tresidual"]
    for row in rows:
        lines.append("\t".join(_fmt(x) for x in row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_ngate_verify(args) -> int:
    h = _parse_hbar(args.hbar) if args.hbar is not None else None
    gate = build_N(h, args.eps)  # raises SynthesisError below 1 - eps
    fidelities = list(gate.case_fidelities)
    payload = {
        "case_fidelities": fidelities,
        "fidelity_min": min(fidelities),
        "eps": args.eps,
        "audit": gate.audit(),
    }
    config = {"eps": args.eps, "hbar": args.hbar}
    _write_text(args.out, _report_document("ngate-verify", config, payload, None))
    return 0


def cmd_separation(args) -> int:
    report = run_algorithm1(_alg1_config(_read_flags(args, _ALG1), _load_oracle(args)))
    if not report.succeeded:
        # the flag amplitude is recorded once post-selection has succeeded
        budget = "trial" if report.post_measurement_flag_amplitude is None else "application"
        sys.stderr.write(f"separation run exhausted its {budget} budget\n")
        return 2
    lines = ["k\tbloch_separation"]
    for k, sep in report.separation_trajectory:
        lines.append(f"{k}\t{_fmt(sep)}")
    _write_text(args.out, "\n".join(lines) + "\n")

    growth = _fit_growth(report)
    summary = json.dumps(
        {"fitted_growth": growth, "applications_to_threshold": report.applications_to_threshold},
        sort_keys=True, allow_nan=False,
    ) + "\n"
    if args.out is None:
        sys.stderr.write(summary)
    else:
        sys.stdout.write(summary)
    return 0


def _fit_growth(report) -> float | None:
    """Geometric-mean separation ratio over the in-region amplification steps."""
    cross = report.applications_to_threshold
    if cross is None or cross < 1:
        return None
    seps = dict(report.separation_trajectory)
    ratios = []
    for k in range(cross):
        a, b = seps.get(k), seps.get(k + 1)
        if a and b and a > 0:
            ratios.append(math.log(b / a))
    if not ratios:
        return None
    return float(math.exp(sum(ratios) / len(ratios)))


def _add_oracle_flags(p):
    p.add_argument("--input", help="DIMACS CNF file")
    p.add_argument("--truth-table", help="truth-table JSON file")


def _add_common_flags(p, timing: bool = True):
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="random seed (default 0)")
    p.add_argument("--noise-sigma", type=_finite_float, default=argparse.SUPPRESS,
                   dest="noise_sigma",
                   help="gaussian jitter on gate parameters, radians (default 0)")
    p.add_argument("--out", help="output path (default stdout)")
    if timing:  # separation writes a table, not a report
        p.add_argument("--timing", action="store_true",
                       help="record wall time in the report (breaks byte determinism)")


def _add_stretch_flags(p):
    p.add_argument("--lambda", type=_finite_float, default=argparse.SUPPRESS, dest="lam",
                   help="stretch exponent per application (alg1, default ln 2)")
    p.add_argument("--eta", type=_finite_float, default=argparse.SUPPRESS,
                   help="angular extent of the stretch region (alg1, default pi/4)")
    p.add_argument("--theta0", type=_finite_float, default=argparse.SUPPRESS,
                   help="center of the stretch region (alg1, default pi/2)")
    p.add_argument("--max-applications", type=int, default=argparse.SUPPRESS,
                   dest="max_applications")
    p.add_argument("--max-trials", type=int, default=argparse.SUPPRESS, dest="max_trials")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlqsim",
        description="Oracle search and counting under nonlinear qubit dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide whether the oracle has any solution")
    _add_oracle_flags(p)
    p.add_argument("--algorithm", choices=("alg1", "alg2"), required=True)
    p.add_argument("--eps", type=_finite_float, default=argparse.SUPPRESS,
                   help=f"merge-gate tolerance for alg2 (default {DEFAULT_GATE_EPS})")
    p.add_argument("--threshold", type=_finite_float, default=argparse.SUPPRESS,
                   help="decision threshold as a fraction of pi for alg1 (default 0.5)")
    _add_stretch_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("count", help="count the oracle's solutions exactly")
    _add_oracle_flags(p)
    p.add_argument("--algorithm", choices=("alg1", "alg2"), required=True)
    p.add_argument("--counter-width", type=int, default=argparse.SUPPRESS, dest="counter_width",
                   help="counter register width (alg2, default n + 1)")
    _add_stretch_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dynamics", help="export a nonlinear evolution trajectory")
    p.add_argument("--hbar", default="0,0,1",
                   help="comma-separated polynomial coefficients of hbar(a)")
    p.add_argument("--initial", default="0.7071067811865476,0,0.7071067811865476,0",
                   help="initial pair as re1,im1,re2,im2")
    p.add_argument("--t-max", type=_finite_float, default=10.0, dest="t_max")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--dt", type=_finite_float, default=1e-3, help="integrator step")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("ngate-verify", help="build the merge gate and check its table")
    p.add_argument("--eps", type=_finite_float, default=1e-3)
    p.add_argument("--hbar", default=None,
                   help="contraction-stage profile (default: phase-aligned)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_ngate_verify)

    p = sub.add_parser("separation", help="emit the hypothesis-separation table")
    _add_oracle_flags(p)
    _add_stretch_flags(p)
    _add_common_flags(p, timing=False)
    p.set_defaults(func=cmd_separation)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:  # usage, input or library size/limit errors
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SynthesisError as exc:
        sys.stderr.write(f"synthesis failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
