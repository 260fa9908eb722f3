"""Capture the golden CSVs the benchmark compares against.

Usage (from the repository root): python3 perfbench/pin_golden.py

Runs each serial workload once at the pinned seed and sample count and
writes ``golden/<workload>.csv``.  Re-pin only in a change that states the
numerical difference it makes (``result_rel_dev`` of the old goldens).
"""

import shutil
import sys

import run


def main() -> int:
    run.GOLDEN.mkdir(exist_ok=True)
    work = run.WORK / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, wl in run.WORKLOADS.items():
        if wl.threads != 1 or wl.golden != name:
            continue
        out = work / name
        inv = run.invoke(name, wl.cpus(), wl.argv(run.GOLDEN_SEED, run.GOLDEN_SAMPLES, out),
                         run.GOLDEN_SAMPLES, run.RUN_DEADLINE_S)
        error = inv.error or run.check_csv(out.with_suffix(".csv"), wl, run.GOLDEN_SAMPLES)
        if error:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        shutil.copyfile(out.with_suffix(".csv"), run.GOLDEN / f"{name}.csv")
        print(f"wrote golden/{name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
