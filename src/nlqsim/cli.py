"""Command-line front end: load oracles, run algorithms, emit reports.

Outputs are deterministic for a fixed seed: reports are JSON documents
with sorted keys and no timestamps (pass --timing to record wall time),
tables are tab-separated with a one-line header.

`solve` and `count` share one run frame, `cmd_run`, and every run default
is the library's own field default (`StretchMap.lam`, `Alg1Config.seed`, ...).

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


def _stretch_from(args) -> StretchMap:
    try:
        return StretchMap(theta0=args.theta0, eta=args.eta, lam=args.lam)
    except (ValueError, OverflowError) as exc:  # exp(--lambda) may overflow
        raise CliError(f"invalid stretch parameters: {exc}") from exc


def _parse_hbar(text: str) -> HbarFunction:
    try:
        return HbarFunction(tuple(float(x) for x in text.split(",")))
    except ValueError as exc:
        raise CliError(f"invalid --hbar coefficients {text!r}: {exc}") from exc


def _check_run_flags(args):
    if args.max_applications < 0:
        raise CliError(f"--max-applications must be >= 0, got {args.max_applications}")
    if args.max_trials is not None and args.max_trials < 1:
        raise CliError(f"--max-trials must be >= 1, got {args.max_trials}")
    if args.noise_sigma < 0.0:
        raise CliError(f"--noise-sigma must be >= 0, got {args.noise_sigma}")
    if args.command == "solve" and args.algorithm == "alg1" and not 0.0 < args.threshold < 1.0:
        raise CliError(f"--threshold must lie in (0, 1), got {args.threshold}")


# Parsed flags that say where the oracle comes from or where and how the
# report is written; every other flag shapes the run and is echoed.
_NOT_ECHOED = ("command", "func", "input", "truth_table", "out", "timing")


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}


def _alg1_config(args, oracle: OracleSpec, **extra) -> Alg1Config:
    return Alg1Config(
        n=oracle.num_vars,
        oracle=oracle,
        stretch=_stretch_from(args),
        max_applications=args.max_applications,
        max_trials=args.max_trials,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        **extra,
    )


def _alg2_config(args, oracle: OracleSpec, **extra) -> Alg2Config:
    return Alg2Config(n=oracle.num_vars, oracle=oracle, noise_sigma=args.noise_sigma,
                      seed=args.seed, **extra)


# (command, --algorithm) -> (driver, its config from the flags, keys only
# that command's report echoes).  The driver is named, not held, so that
# a wrapped or patched cli.run_* is the one that runs.
_RUNS = {
    ("solve", "alg1"): ("run_algorithm1", lambda args, oracle: _alg1_config(
        args, oracle, decision_threshold=args.threshold), {"gate_realization": None}),
    ("solve", "alg2"): ("run_algorithm2", lambda args, oracle: _alg2_config(
        args, oracle, gate=table_merge_gate(args.eps)), {"gate_realization": "table"}),
    ("count", "alg1"): ("run_algorithm1_count", _alg1_config, {}),
    ("count", "alg2"): ("run_algorithm2_count", lambda args, oracle: _alg2_config(
        args, oracle, counting=True, counter_width=args.counter_width), {}),
}


def cmd_run(args) -> int:
    """solve and count: one algorithm run on the oracle, written as a report."""
    oracle = _load_oracle(args)
    driver, config, extra_echo = _RUNS[args.command, args.algorithm]
    started = time.monotonic()
    report = globals()[driver](config(args, oracle))
    wall = time.monotonic() - started if args.timing else None
    echo = {**_config_echo(args), **extra_echo}
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
    if args.points < 1:
        raise CliError(f"invalid time grid: --points must be >= 1, got {args.points}")
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
    _write_text(args.out, _report_document("ngate-verify", _config_echo(args), payload, None))
    return 0


def cmd_separation(args) -> int:
    report = run_algorithm1(_alg1_config(args, _load_oracle(args)))
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
    p.add_argument("--seed", type=int, default=Alg1Config.seed, help="random seed (default 0)")
    p.add_argument("--noise-sigma", type=_finite_float, default=Alg1Config.noise_sigma,
                   dest="noise_sigma",
                   help="gaussian jitter on gate parameters, radians (default 0)")
    p.add_argument("--out", help="output path (default stdout)")
    if timing:  # separation writes a table, not a report
        p.add_argument("--timing", action="store_true",
                       help="record wall time in the report (breaks byte determinism)")


def _add_stretch_flags(p):
    p.add_argument("--lambda", type=_finite_float, default=StretchMap.lam, dest="lam",
                   help="stretch exponent per application (default ln 2)")
    p.add_argument("--eta", type=_finite_float, default=StretchMap.eta,
                   help="angular extent of the stretch region (default pi/4)")
    p.add_argument("--theta0", type=_finite_float, default=StretchMap.theta0,
                   help="center of the stretch region (default pi/2)")
    p.add_argument("--max-applications", type=int, default=Alg1Config.max_applications,
                   dest="max_applications")
    p.add_argument("--max-trials", type=int, default=Alg1Config.max_trials, dest="max_trials")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlqsim",
        description="Oracle search and counting under nonlinear qubit dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide whether the oracle has any solution")
    _add_oracle_flags(p)
    p.add_argument("--algorithm", choices=("alg1", "alg2"), required=True)
    p.add_argument("--eps", type=_finite_float, default=DEFAULT_GATE_EPS,
                   help=f"merge-gate tolerance for alg2 (default {DEFAULT_GATE_EPS})")
    p.add_argument("--threshold", type=_finite_float, default=Alg1Config.decision_threshold,
                   help="decision threshold as a fraction of pi for alg1 (default 0.5)")
    _add_stretch_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("count", help="count the oracle's solutions exactly")
    _add_oracle_flags(p)
    p.add_argument("--algorithm", choices=("alg1", "alg2"), required=True)
    p.add_argument("--counter-width", type=int, default=None, dest="counter_width",
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
        if hasattr(args, "max_applications"):
            _check_run_flags(args)
        return args.func(args)
    except (CliError, ValueError) as exc:  # usage, input or library size/limit errors
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SynthesisError as exc:
        sys.stderr.write(f"synthesis failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
