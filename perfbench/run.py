"""Benchmark of `tamedac converge` on four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload joint --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
shipped command line is run in fresh interpreters for ``--seconds`` seconds
and the end-to-end metrics are reported as medians over those invocations,
scaled to a reference machine speed (see ``REFERENCE_CAL_S``).
With ``--trace 1`` a separate traced run (``traced.py``) times the calls into
each module's public functions and reports the per-layer metrics.  Every
output is checked; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.

This file uses the standard library only, so the harness itself adds no
import cost to what it measures.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
GOLDEN = HERE / "golden"

REF = 1024
GOLDEN_SEED = 0          # the command line's default seed
GOLDEN_SAMPLES = 2
MIN_RUNS = 3
RUN_DEADLINE_S = 170.0   # a benchmark run must end within 180 s
CSV_HEADER = "resolution,rms_error,mc_std_error,samples"
# Any coupled error that decays with the resolution fits a slope in here
# (about 0.5 joint and spatial, about 1 temporal).  A sanity check on
# arbitrary seeds; the golden CSVs pin the exact values.
SLOPE_WINDOW = (0.2, 1.5)
# Times are reported at the machine speed at which invoke.py's calibration
# kernel takes this long (about its time on the reference 2-core Xeon when
# the host is quiet): each invocation's times are multiplied by
# REFERENCE_CAL_S / (its calibration time).
REFERENCE_CAL_S = 0.0065


@dataclass(frozen=True)
class Workload:
    mode: str
    resolutions: str
    threads: int
    samples: int   # Monte Carlo samples per timed invocation (about 1 s)
    golden: str    # name of the golden CSV this workload must reproduce

    def cpus(self) -> str:
        """CPUs the invocation may use: one for a serial run, so that the
        calibration times the CPU the run is on; else all of them."""
        cpus = sorted(os.sched_getaffinity(0))
        return ",".join(map(str, cpus if self.threads > 1 else cpus[-1:]))

    def argv(self, seed: int, samples: int, out: Path) -> list[str]:
        return ["converge", "--mode", self.mode, "--resolutions", self.resolutions,
                "--ref", str(REF), "--samples", str(samples), "--seed", str(seed),
                "--threads", str(self.threads),
                "--out", str(out.with_suffix(".csv")), "--plot", str(out.with_suffix(".svg"))]


# Short invocations, many per run: the machine's speed changes within
# seconds, and an invocation that straddles a change is scaled less exactly.
# Per-sample shares quoted below were measured at ref 1024 on 2 cores.
WORKLOADS = {
    # The reference path dominates (~78%, mostly DSTs at the N = 1024 dealias
    # grid), then keyed noise generation (~14%): transform and noise work.
    "joint": Workload("joint", "4,8,16,32,64,128", 1, 3, "joint"),
    # 6 x 1024 steps at N <= 128 (~58% coarse ladder): per-step call overhead;
    # the contrast workload for a transform-only change.
    "spatial": Workload("spatial", "4,8,16,32,64,128", 1, 2, "spatial"),
    # Every rung coarsens the full 1024-mode noise matrix: the only workload
    # where time coarsening is a visible cost (~12%).
    "temporal": Workload("temporal", "8,16,32,64,128,256", 1, 3, "temporal"),
    # joint on 2 worker processes (no more than nproc = 2): the process-pool
    # dispatch and pickling; its CSV must be byte-identical to joint's.
    "joint-par2": Workload("joint", "4,8,16,32,64,128", 2, 6, "joint"),
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# child processes


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(script: str, args: list[str], timeout: float) -> tuple[dict | None, str, float]:
    """Run a benchmark script in a fresh interpreter and wait for it to end.

    Returns (result, error, spawn_time): the parsed ``PERFBENCH`` line (None
    on failure), an error message ('' on success) and the monotonic time
    just before the interpreter was started.  A failing or hanging child is
    reported, never raised; its whole process group is killed.
    """
    cmd = [sys.executable, str(HERE / script), str(SRC), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s", t_spawn
    _kill_group(proc)
    lines = [ln for ln in out.splitlines() if ln.startswith("PERFBENCH ")]
    if not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail[0], t_spawn
    result = json.loads(lines[-1][len("PERFBENCH "):])
    if proc.returncode != 0 or result.get("code", 0) != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return None, f"exit code {result.get('code', proc.returncode)}: {tail[0]}", t_spawn
    return result, "", t_spawn


@dataclass
class Invocation:
    label: str
    samples: int
    error: str = ""
    setup_s: float = math.nan
    wall_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    cal_before_s: float = math.nan
    cal_after_s: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.error

    def scaled(self) -> dict:
        """End-to-end figures at the reference machine speed."""
        main = REFERENCE_CAL_S / (0.5 * (self.cal_before_s + self.cal_after_s))
        return {
            "setup_s": self.setup_s * REFERENCE_CAL_S / self.cal_before_s,
            "samples_per_s": self.samples / (self.wall_s * main),
            "cpu_s_per_sample": self.cpu_s * main / self.samples,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def raw(self) -> dict:
        """The same figures as measured, unscaled."""
        return {"setup_s": self.setup_s, "samples_per_s": self.samples / self.wall_s,
                "cpu_s_per_sample": self.cpu_s / self.samples,
                "peak_rss_mb": self.peak_rss_mb}


def invoke(label: str, cpus: str, argv: list[str], samples: int,
           timeout: float) -> Invocation:
    """Run `tamedac <argv>` once through invoke.py, on the given CPUs."""
    result, error, t_spawn = spawn("invoke.py", [cpus, *argv], timeout)
    if result is None:
        return Invocation(label, samples, error=error)
    return Invocation(label, samples, setup_s=result["ready"] - t_spawn,
                      wall_s=result["wall_s"], cpu_s=result["cpu_s"],
                      peak_rss_mb=result["peak_rss_mb"], cal_before_s=result["cal_before_s"],
                      cal_after_s=result["cal_after_s"])


# --------------------------------------------------------------------------
# output checks


def read_csv(path: Path) -> tuple[list[tuple[int, float, float, int]], float]:
    """Rows (resolution, rms_error, mc_std_error, samples) and the fitted slope."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: unexpected header")
    rows, slope = [], None
    for line in lines[1:]:
        if line.startswith("# fitted_slope="):
            slope = float(line.partition("=")[2])
        else:
            res, rms, se, n = line.split(",")
            rows.append((int(res), float(rms), float(se), int(n)))
    if slope is None:
        raise ValueError(f"{path.name}: no fitted_slope footer")
    return rows, slope


def check_csv(path: Path, wl: Workload, samples: int) -> str:
    """'' if the CSV is a plausible report of this workload, else the reason."""
    try:
        rows, slope = read_csv(path)
    except (OSError, ValueError) as exc:
        return f"unreadable CSV: {exc}"
    if [r[0] for r in rows] != [int(x) for x in wl.resolutions.split(",")]:
        return f"{path.name}: resolutions differ from the workload's"
    for res, rms, se, n in rows:
        if n != samples:
            return f"{path.name}: resolution {res} reports {n} samples, not {samples}"
        if not (math.isfinite(rms) and rms > 0 and math.isfinite(se) and se > 0):
            return f"{path.name}: resolution {res} has rms {rms}, std error {se}"
    if not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        return f"{path.name}: fitted slope {slope} outside {SLOPE_WINDOW}"
    svg = path.with_suffix(".svg")
    text = svg.read_text(encoding="utf-8") if svg.is_file() else ""
    if "<svg" not in text or not text.rstrip().endswith("</svg>"):
        return f"{svg.name}: missing or not an SVG"
    return ""


def rel_dev(path: Path, golden: Path) -> float:
    """Largest relative deviation of any rms_error, mc_std_error or slope."""
    rows, slope = read_csv(path)
    grows, gslope = read_csv(golden)
    if [(r[0], r[3]) for r in rows] != [(g[0], g[3]) for g in grows]:
        return math.inf
    pairs = [(r[k], g[k]) for r, g in zip(rows, grows) for k in (1, 2)]
    pairs.append((slope, gslope))
    return max(abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf)
               for a, b in pairs)


# --------------------------------------------------------------------------
# runs


def run_end_to_end(name: str, seed: int, seconds: int, work: Path) -> dict:
    """Timed invocations for `seconds`, then the golden check at the pinned seed."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    runs: list[Invocation] = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        out = work / f"run{len(runs)}"
        inv = invoke(out.name, wl.cpus(), wl.argv(seed, wl.samples, out), wl.samples,
                     deadline - time.monotonic())
        if inv.ok:
            inv.error = check_csv(out.with_suffix(".csv"), wl, wl.samples)
        if inv.ok and runs:
            first = work / "run0"
            for suffix in (".csv", ".svg"):
                if out.with_suffix(suffix).read_bytes() != first.with_suffix(suffix).read_bytes():
                    inv.error = f"{out.name}{suffix} differs from run0{suffix} (same seed)"
        runs.append(inv)
        if not inv.ok:
            break

    out = work / "golden"
    gold = invoke(out.name, wl.cpus(), wl.argv(GOLDEN_SEED, GOLDEN_SAMPLES, out), GOLDEN_SAMPLES,
                  deadline - time.monotonic())
    golden = GOLDEN / f"{wl.golden}.csv"
    deviation = math.nan
    if gold.ok:
        gold.error = check_csv(out.with_suffix(".csv"), wl, GOLDEN_SAMPLES)
    if gold.ok:
        try:
            deviation = rel_dev(out.with_suffix(".csv"), golden)
        except (OSError, ValueError) as exc:
            gold.error = f"golden/{golden.name} unreadable: {exc}"
    if gold.ok:
        if out.with_suffix(".csv").read_bytes() != golden.read_bytes():
            gold.error = (f"CSV at seed {GOLDEN_SEED} differs from golden/{golden.name} "
                          f"(result_rel_dev {deviation:.3g})")

    invocations = runs + [gold]
    timed = [r for r in runs if r.ok]

    def summary(figures) -> dict:
        stats = {key: statistics.median(figures(r)[key] for r in timed)
                 for key in ("samples_per_s", "cpu_s_per_sample", "peak_rss_mb")}
        # Set-up is paid by every invocation, the golden check's too.
        stats["setup_s"] = statistics.median(figures(r)["setup_s"] for r in invocations if r.ok)
        return stats

    failed = sum(not r.ok for r in invocations)
    return {
        "attempted": len(invocations), "failed": failed,
        "metrics": summary(Invocation.scaled) if timed else {},
        "raw": summary(Invocation.raw) if timed else {},
        "report": {"result_rel_dev": (deviation, "ratio"),
                   "error_rate": (failed / len(invocations), "ratio")},
        "errors": [f"{r.label}: {r.error}" for r in invocations if not r.ok],
        "invocations": [asdict(r) for r in invocations],
    }


def run_traced(name: str, seed: int, seconds: int, work: Path) -> dict:
    """One traced run in a fresh interpreter (see traced.py)."""
    wl = WORKLOADS[name]
    args = [wl.mode, wl.resolutions, str(REF), str(wl.threads), str(seed),
            str(seconds), str(work)]
    result, error, _ = spawn("traced.py", args, RUN_DEADLINE_S)
    if result is None:
        return {"attempted": 1, "failed": 1, "metrics": {}, "report": {},
                "errors": [f"trace: {error}"]}
    return {"attempted": result["attempted"], "failed": len(result["errors"]),
            "metrics": result["metrics"], "errors": result["errors"],
            "report": {name: (share, "ratio") for name, share in result["shares"].items()}}


# --------------------------------------------------------------------------
# machine facts and output


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _commit() -> str:
    """HEAD of the git checkout, or 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tamedac" / "cli.py").is_file():
        print(f"error: no tamedac sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    facts = machine_facts()
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = run_traced if args.trace else run_end_to_end
        result = run(name, args.seed, seconds, work)
        missing = sorted(set(units) - set(result["metrics"]))
        if missing and not result["errors"]:
            result["errors"].append("metrics not produced: " + ", ".join(missing))
            result["failed"] += 1
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"workload {name}: seed {args.seed}, {result['attempted']} attempted, "
              f"{result['failed']} failed")
        for key, unit in units.items():
            if key in result["metrics"]:
                value = result["metrics"][key]
                print(f"  {key:<34} {value:.6g} {unit}")
                metrics[prefix + key] = {"value": value, "unit": unit}
        rows = {f"{k} (raw)": (v, units[k]) for k, v in result.get("raw", {}).items()}
        for key, (value, unit) in {**rows, **result["report"]}.items():
            print(f"  {key:<34} {value:.6g} {unit}")
        for error in result["errors"]:
            print(f"  FAILED {error}")
        (work / "report.json").write_text(json.dumps(
            {"machine": facts, "workload": name, "seed": args.seed, "seconds": seconds,
             "trace": args.trace, **result}, indent=1, default=str) + "\n", encoding="utf-8")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
