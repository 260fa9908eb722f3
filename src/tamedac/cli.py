"""Command-line front end: convergence studies, single paths, diagnostics.

Subcommands
-----------
converge   Monte Carlo strong-error study (modes joint | spatial | temporal),
           CSV table and optional SVG log-log plot.
simulate   One path at a single resolution; dumps grid-value snapshots as CSV.
diagnose   Path-norm moment diagnostics across samples.

Option precedence is defaults < config file < command-line flags.  The config
file is flat ``key = value`` text with ``#`` comments; each value passes the
check of the flag of the same name.  Counts, the seed, the horizon and the
drift coefficients are checked by ``errors._integer`` / ``_real`` under the
library's name for their field (``--seed``: master_seed, ``--ref``:
ref_resolution, ``--steps``: n_steps, ``--horizon``: horizon_T, ``--a3``: a3),
so a bad value fails with the library's message after ``argument --<flag>:``
(and ``path:lineno:`` on a config line).
Exit codes: 0 success, 2 usage error, 3 I/O error, 4 numerical blowup.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import BlowupError, _integer, _real
from .experiments import MODES, RunConfig, moment_diagnostics, strong_error_study
from .model import ModelParams
from .noise import IncrementStream, NoiseGrid
from .reporting import emit_csv, emit_loglog_plot, print_report, write_text
from .spectral import _synthesize_raw, grid_points
from .stepper import PathBlock

USAGE_ERROR, IO_ERROR, BLOWUP_ERROR = 2, 3, 4
# The problem every option left unset takes from the library.
DEFAULT_PARAMS = ModelParams.cubic_double_well()


class UsageError(Exception):
    pass


def _checked(convert, check, name: str, *bounds):
    """An argparse type: `convert` the text, then pass it to the library's
    `check(name, value, *bounds)`; argparse reports its message unchanged."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        try:
            return check(name, value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_options(p: argparse.ArgumentParser, command: str | None) -> argparse.ArgumentParser:
    """Declare the options (the config keys) of `command`, or of every command."""
    resolution = _checked(int, _integer, "resolutions", 1)
    p.add_argument("--resolutions", type=lambda text: tuple(map(resolution, text.split(","))),
                   default=(4, 8, 16, 32, 64, 128) if command == "converge" else (64,),
                   help="comma-separated ascending resolutions")
    if command != "simulate":
        p.add_argument("--samples", type=_checked(int, _integer, "samples", 1),
                       default=100 if command == "diagnose" else 200,
                       help="Monte Carlo sample count")
    p.add_argument("--seed", type=_checked(int, _integer, "master_seed", 0), default=0,
                   help="master seed; the single source of randomness")
    if command in (None, "converge"):
        p.add_argument("--threads", type=_checked(int, _integer, "threads", 1),
                       default=1,
                       help="processes, this one included (output is byte-identical at any count)")
    p.add_argument("--horizon", type=_checked(float, _real, "horizon_T", "positive"),
                   default=DEFAULT_PARAMS.horizon_T, help="time horizon T")
    for name, sign, what in (("a3", "negative", "cubic drift coefficient (< 0)"),
                             ("a2", "", "quadratic drift coefficient"),
                             ("a1", "", "linear drift coefficient"),
                             ("a0", "", "constant drift coefficient")):
        p.add_argument(f"--{name}", type=_checked(float, _real, name, sign),
                       default=getattr(DEFAULT_PARAMS, name),
                       help=f"{what}; negative exponent notation needs --{name}=-1e120")
    p.add_argument("--out", help="output CSV path")
    if command in (None, "converge"):
        p.add_argument("--mode", choices=MODES, default="joint")
        p.add_argument("--ref", type=_checked(int, _integer, "ref_resolution", 1), default=1024,
                       help="reference resolution (N_ref = M_ref)")
        p.add_argument("--plot", help="output SVG log-log plot path")
    if command != "converge":
        p.add_argument("--steps", type=_checked(int, _integer, "n_steps", 1),
                       help="time steps (default: equal to the resolution)")
    if command in (None, "simulate"):
        p.add_argument("--snapshots", type=_checked(int, _integer, "snapshots", 2),
                       default=11, help="number of snapshot times incl. endpoints")
    return p


def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="tamedac",
        description="Tamed exponential-integrator solver and strong-convergence "
                    "benchmark for the stochastic Allen-Cahn equation on (0, 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text in (("converge", "run a strong-error convergence study"),
                            ("simulate", "simulate a single path and dump snapshots"),
                            ("diagnose", "path-norm moment diagnostics")):
        command = commands[name] = sub.add_parser(name, help=help_text)
        command.add_argument("--config", help="flat key = value config file")
        _add_options(command, name)
    commands["converge"].add_argument("--paper-scale", action="store_true",
                                      help="full-scale run: ref 2048, 1000 samples")
    return parser, commands


def _read_config(path: str) -> dict:
    """The values of a config file, each ``key = value`` parsed as ``--key=value``."""
    checker = _add_options(argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                                   exit_on_error=False), None)
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
                try:
                    parsed, unknown = checker.parse_known_args([f"--{key}={value}"])
                except argparse.ArgumentError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from None
                if unknown:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                out[key] = getattr(parsed, key)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return out


def parse_options(argv: list[str] | None = None) -> dict:
    """The command and its options: defaults < config file < flags.

    ``--paper-scale`` sets ref and samples over the config file's values.
    A config key of another command is checked like its flag, then ignored.
    """
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    config = _read_config(args.config) if args.config else {}
    defaults = {key: value for key, value in config.items() if key in vars(args)}
    if getattr(args, "paper_scale", False):
        defaults.update(ref=2048, samples=1000)
    if not defaults:
        return vars(args)
    commands[args.command].set_defaults(**defaults)
    return vars(parser.parse_args(argv))


def _check_writable(*paths: str | None) -> None:
    """Fail before any work if an output file could not be written."""
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise OSError(f"cannot write {path}: not a file in a writable directory")


def _usage(check, *args, **kwargs):
    """`check(*args, **kwargs)`, with a ValueError reported as a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _model_params(opts: dict) -> ModelParams:
    return dataclasses.replace(DEFAULT_PARAMS, a3=opts["a3"], a2=opts["a2"], a1=opts["a1"],
                               a0=opts["a0"], horizon_T=opts["horizon"])


def _run_converge(opts: dict) -> int:
    params = _model_params(opts)
    config = _usage(RunConfig, mode=opts["mode"], resolutions=opts["resolutions"],
                    ref_resolution=opts["ref"], samples=opts["samples"],
                    master_seed=opts["seed"], horizon_T=opts["horizon"], params=params)
    if len(config.resolutions) < 2:
        raise UsageError("converge needs at least two resolutions to fit a slope")
    out, plot = opts["out"], opts["plot"]
    if out and plot and os.path.realpath(out) == os.path.realpath(plot):
        raise UsageError(f"--out {out} and --plot {plot} name the same file")
    _check_writable(out, plot)

    report = _usage(strong_error_study, config, threads=opts["threads"])
    print_report(report, sys.stdout)
    if out:
        emit_csv(report, out)
        print(f"wrote {out}")
    if plot:
        emit_loglog_plot(report, plot)
        print(f"wrote {plot}")
    return 0


def _run_simulate(opts: dict) -> int:
    params = _model_params(opts)
    if len(opts["resolutions"]) != 1:
        raise UsageError("simulate takes a single resolution")
    n_modes, = opts["resolutions"]
    n_steps = opts["steps"] or n_modes
    tau = _usage(_real, "horizon / steps", opts["horizon"] / n_steps, "positive")
    _check_writable(opts["out"])

    # The noise grid is the path's own, so its increments stream uncoarsened.
    noise = IncrementStream(NoiseGrid.for_horizon(opts["horizon"], n_steps, n_modes),
                            opts["seed"], (0,))
    path = PathBlock.at_initial_data(params, n_modes, n_steps, (0,))
    # More than n_steps + 1 snapshot times round to every step all the same.
    count = min(opts["snapshots"], n_steps + 1)
    record = sorted({round(j * n_steps / (count - 1)) for j in range(count)})
    snapshots = {0: path.coeffs[0]}
    for m in range(1, n_steps + 1):
        path.step(noise.at(m - 1))
        if m in record:
            snapshots[m] = path.coeffs[0]

    render = 4 * n_modes
    x = grid_points(render)
    columns = [_synthesize_raw(snapshots[m], render) for m in record]
    header = "x," + ",".join(f"t={m * tau:.6g}" for m in record)
    lines = [header]
    for k in range(render):
        row = [f"{x[k]:.8g}"] + [f"{col[k]:.8g}" for col in columns]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if opts["out"]:
        write_text(opts["out"], text)
        print(f"wrote {opts['out']}")
    else:
        sys.stdout.write(text)
    return 0


def _run_diagnose(opts: dict) -> int:
    params = _model_params(opts)
    resolutions = opts["resolutions"]
    if list(resolutions) != sorted(set(resolutions)):
        raise UsageError("resolutions must be strictly ascending")
    # Each resolution runs on its own, with the least reference it admits.
    configs = [_usage(RunConfig, mode="joint", resolutions=(r,), ref_resolution=2 * r,
                      samples=opts["samples"], master_seed=opts["seed"],
                      horizon_T=opts["horizon"], params=params) for r in resolutions]
    if opts["steps"]:
        _usage(_real, "horizon / steps", opts["horizon"] / opts["steps"], "positive")
    _check_writable(opts["out"])

    reports = [d for config in configs for d in moment_diagnostics(config, n_steps=opts["steps"])]
    lines = ["resolution,steps,tau,samples,sup_max,sup_mean,sup_p99,"
             "l2_max,l2_mean,l2_p99,max_drift_norm,blowups,all_finite"]
    for d in reports:
        print(f"resolution {d.resolution} (steps {d.n_steps}, tau {d.tau:.6g}): "
              f"sup max {d.sup_max:.4g} mean {d.sup_mean:.4g} p99 {d.sup_p99:.4g} | "
              f"l2 max {d.l2_max:.4g} mean {d.l2_mean:.4g} p99 {d.l2_p99:.4g} | "
              f"max drift norm {d.max_drift_norm:.4g} (1/tau = {1 / d.tau:.4g}) | "
              f"blowups {d.blowups} | finite {d.all_finite}")
        lines.append(",".join(f"{v:.8g}" if isinstance(v, float) else str(v)
                              for v in dataclasses.astuple(d)))
    if opts["out"]:
        write_text(opts["out"], "\n".join(lines) + "\n")
        print(f"wrote {opts['out']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        opts = parse_options(argv)
        run = {"converge": _run_converge, "simulate": _run_simulate, "diagnose": _run_diagnose}
        return run[opts["command"]](opts)
    except SystemExit as exc:
        return int(exc.code or 0)
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
