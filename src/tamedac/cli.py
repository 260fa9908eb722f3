"""Command-line front end: convergence studies, single paths, diagnostics.

Subcommands
-----------
converge   Monte Carlo strong-error study (modes joint | spatial | temporal),
           CSV table and optional SVG log-log plot.
simulate   One path at a single resolution; dumps grid-value snapshots as CSV.
diagnose   Path-norm moment diagnostics across samples.

Option precedence is defaults < config file < command-line flags.  The config
file is flat ``key = value`` text with ``#`` comments.  Exit codes: 0 success,
2 usage error, 3 I/O error, 4 numerical blowup.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import BlowupError
from .experiments import (
    RunConfig,
    moment_diagnostics,
    strong_error_study,
)
from .model import ModelParams
from .noise import IncrementStream, NoiseGrid
from .reporting import emit_csv, emit_loglog_plot, print_report
from .spectral import SQRT2, SpectralField, _synthesize_raw, grid_points
from .stepper import PathBlock

USAGE_ERROR, IO_ERROR, BLOWUP_ERROR = 2, 3, 4

_INT_KEYS = {"ref", "samples", "seed", "threads", "steps", "snapshots"}
_FLOAT_KEYS = {"horizon", "a3", "a2", "a1", "a0"}
_STR_KEYS = {"mode", "resolutions", "out", "plot"}

_DEFAULTS = {
    "mode": "joint",
    "resolutions": "4,8,16,32,64,128",
    "ref": 1024,
    "samples": 200,
    "seed": 0,
    "threads": 1,
    "horizon": 1.0,
    "a3": -1.0,
    "a2": 0.0,
    "a1": 1.0,
    "a0": 0.0,
    "steps": None,
    "snapshots": 11,
    "out": None,
    "plot": None,
}
_DIAGNOSE_DEFAULTS = {"resolutions": "64", "samples": 100}
_SIMULATE_DEFAULTS = {"resolutions": "64"}


class UsageError(Exception):
    pass


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--resolutions", help="comma-separated ascending resolutions")
    sub.add_argument("--samples", type=int, help="Monte Carlo sample count")
    sub.add_argument("--seed", type=int, help="master seed; the single source of randomness")
    sub.add_argument("--threads", type=int, help="worker processes (1 = byte-exact output)")
    sub.add_argument("--horizon", type=float, help="time horizon T")
    sub.add_argument("--a3", type=float, help="cubic drift coefficient (< 0)")
    sub.add_argument("--a2", type=float, help="quadratic drift coefficient")
    sub.add_argument("--a1", type=float, help="linear drift coefficient")
    sub.add_argument("--a0", type=float, help="constant drift coefficient")
    sub.add_argument("--out", help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamedac",
        description="Tamed exponential-integrator solver and strong-convergence "
                    "benchmark for the stochastic Allen-Cahn equation on (0, 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", help="run a strong-error convergence study")
    _add_common(conv)
    conv.add_argument("--mode", choices=("joint", "spatial", "temporal"))
    conv.add_argument("--ref", type=int, help="reference resolution (N_ref = M_ref)")
    conv.add_argument("--plot", help="output SVG log-log plot path")
    conv.add_argument("--paper-scale", action="store_true",
                      help="full-scale run: ref 2048, 1000 samples")

    sim = sub.add_parser("simulate", help="simulate a single path and dump snapshots")
    _add_common(sim)
    sim.add_argument("--steps", type=int, help="time steps (default: equal to the resolution)")
    sim.add_argument("--snapshots", type=int, help="number of snapshot times incl. endpoints")

    diag = sub.add_parser("diagnose", help="path-norm moment diagnostics")
    _add_common(diag)
    diag.add_argument("--steps", type=int, help="time steps (default: equal to the resolution)")

    return parser


def _parse_config_file(path: str) -> dict:
    allowed = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key or not value:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                if key not in allowed:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    if key in _INT_KEYS:
                        out[key] = int(value)
                    elif key in _FLOAT_KEYS:
                        out[key] = float(value)
                    else:
                        out[key] = value
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from None
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return out


def _merge_options(args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS)
    if args.command == "diagnose":
        opts.update(_DIAGNOSE_DEFAULTS)
    elif args.command == "simulate":
        opts.update(_SIMULATE_DEFAULTS)
    if getattr(args, "config", None):
        opts.update(_parse_config_file(args.config))
    explicit = {k: v for k, v in vars(args).items()
                if k in opts and v is not None}
    opts.update(explicit)
    if getattr(args, "paper_scale", False):
        if "ref" not in explicit:
            opts["ref"] = 2048
        if "samples" not in explicit:
            opts["samples"] = 1000
    if opts["threads"] < 1:
        raise UsageError("threads must be positive")
    return opts


def _parse_resolutions(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse resolutions {text!r}") from None
    if not values:
        raise UsageError("resolutions must not be empty")
    return values


def _model_params(opts: dict) -> ModelParams:
    try:
        return ModelParams(a3=opts["a3"], a2=opts["a2"], a1=opts["a1"], a0=opts["a0"],
                           horizon_T=opts["horizon"],
                           initial_data=SpectralField([1.0 / SQRT2]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_converge(opts: dict) -> int:
    params = _model_params(opts)
    try:
        config = RunConfig(mode=opts["mode"], resolutions=_parse_resolutions(opts["resolutions"]),
                           ref_resolution=opts["ref"], samples=opts["samples"],
                           master_seed=opts["seed"], horizon_T=opts["horizon"], params=params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if len(config.resolutions) < 2:
        raise UsageError("converge needs at least two resolutions to fit a slope")

    report = strong_error_study(config, threads=opts["threads"])
    print_report(report, sys.stdout)
    if opts["out"]:
        emit_csv(report, opts["out"])
        print(f"wrote {opts['out']}")
    if opts["plot"]:
        emit_loglog_plot(report, opts["plot"])
        print(f"wrote {opts['plot']}")
    return 0


def _snapshot_steps(n_steps: int, count: int) -> list[int]:
    count = max(2, count)
    return sorted({round(j * n_steps / (count - 1)) for j in range(count)})


def _run_simulate(opts: dict) -> int:
    params = _model_params(opts)
    resolutions = _parse_resolutions(opts["resolutions"])
    if len(resolutions) != 1:
        raise UsageError("simulate takes a single resolution")
    n_modes = resolutions[0]
    if n_modes < 1:
        raise UsageError("resolution must be positive")
    n_steps = opts["steps"] if opts["steps"] is not None else n_modes
    if n_steps < 1:
        raise UsageError("steps must be positive")
    if not 0 <= opts["seed"] < 2 ** 64:
        raise UsageError("master_seed must fit in an unsigned 64-bit integer")

    # The noise grid is the path's own, so its increments stream uncoarsened.
    noise = IncrementStream(NoiseGrid.for_horizon(opts["horizon"], n_steps, n_modes),
                            opts["seed"], (0,))
    path = PathBlock.at_initial_data(params, n_modes, n_steps, (0,))
    record = _snapshot_steps(n_steps, opts["snapshots"])
    snapshots = {0: path.coeffs[0]}
    for m in range(1, n_steps + 1):
        path.step(noise.at(m - 1))
        if m in record:
            snapshots[m] = path.coeffs[0]

    render = 4 * n_modes
    tau = opts["horizon"] / n_steps
    x = grid_points(render)
    columns = [_synthesize_raw(snapshots[m], render) for m in record]
    header = "x," + ",".join(f"t={m * tau:.6g}" for m in record)
    lines = [header]
    for k in range(render):
        row = [f"{x[k]:.8g}"] + [f"{col[k]:.8g}" for col in columns]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {opts['out']}")
    else:
        sys.stdout.write(text)
    return 0


def _run_diagnose(opts: dict) -> int:
    params = _model_params(opts)
    resolutions = _parse_resolutions(opts["resolutions"])
    if any(r < 1 for r in resolutions):
        raise UsageError("resolutions must be positive")
    if opts["steps"] is not None and opts["steps"] < 1:
        raise UsageError("steps must be positive")
    ref = 2 * math.lcm(*resolutions)
    try:
        config = RunConfig(mode="joint", resolutions=resolutions, ref_resolution=ref,
                           samples=opts["samples"], master_seed=opts["seed"],
                           horizon_T=opts["horizon"], params=params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    reports = moment_diagnostics(config, n_steps=opts["steps"])
    lines = ["resolution,steps,tau,samples,sup_max,sup_mean,sup_p99,"
             "l2_max,l2_mean,l2_p99,max_drift_norm,blowups,all_finite"]
    for d in reports:
        print(f"resolution {d.resolution} (steps {d.n_steps}, tau {d.tau:.6g}): "
              f"sup max {d.sup_max:.4g} mean {d.sup_mean:.4g} p99 {d.sup_p99:.4g} | "
              f"l2 max {d.l2_max:.4g} mean {d.l2_mean:.4g} p99 {d.l2_p99:.4g} | "
              f"max drift norm {d.max_drift_norm:.4g} (1/tau = {1 / d.tau:.4g}) | "
              f"blowups {d.blowups} | finite {d.all_finite}")
        lines.append(
            f"{d.resolution},{d.n_steps},{d.tau:.8g},{d.samples},"
            f"{d.sup_max:.8g},{d.sup_mean:.8g},{d.sup_p99:.8g},"
            f"{d.l2_max:.8g},{d.l2_mean:.8g},{d.l2_p99:.8g},"
            f"{d.max_drift_norm:.8g},{d.blowups},{d.all_finite}"
        )
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {opts['out']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _merge_options(args)
        if args.command == "converge":
            return _run_converge(opts)
        if args.command == "simulate":
            return _run_simulate(opts)
        return _run_diagnose(opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BlowupError as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        return BLOWUP_ERROR
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return IO_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
