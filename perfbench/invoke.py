"""Time one `tamedac` command-line invocation in a fresh interpreter.

Usage: python3 invoke.py <src-dir> <cpus> <tamedac arguments...>

<cpus> is a comma-separated list of the CPUs the invocation may use.

The parent records the monotonic clock just before it starts this process;
the ``ready`` time printed here closes the set-up span (interpreter start
until ``tamedac.cli`` is imported).  ``main(argv)`` is then timed as a user
would wait for it, first-call FFT warm-up and CSV/SVG writes included.

The machine this runs on changes speed by up to 1.5x within seconds, as
other tenants load the host.  So a fixed calibration kernel, which does the
solver's kind of work (DST-I at the N = 1024 dealias grid, a pointwise
cubic, keyed Philox normals, interpreted Python) but none of its code, is
timed just before and just after ``main``; the parent scales the times by
it (see run.py).

The last line of standard output is ``PERFBENCH <json>`` with the exit
code, the wall time of ``main``, the user+sys CPU time of this process and
of the worker processes it waited for, their peak resident sizes and the
two calibration times.
"""

import os
import sys
import time

CPUS = {int(c) for c in sys.argv[2].split(",")}
os.sched_setaffinity(0, CPUS)
sys.path.insert(0, sys.argv[1])
import tamedac.cli  # noqa: E402

ready = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
from numpy.random import Generator, Philox  # noqa: E402
from scipy.fft import dst  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _kernel_s() -> float:
    """Median of five timings of the calibration kernel, in seconds."""
    x = np.sin(np.arange(1, 4096) * 0.001)
    small = x[:63].copy()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for step in range(8):
            y = dst(x, type=1) / 4096
            dst(y * (1 - y * y), type=1)
            Generator(Philox(key=[0, step], counter=0)).standard_normal(16384)
        for _ in range(80):
            dst(small, type=1)
        acc = 0
        for i in range(20_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def _calibrate() -> float:
    """Mean kernel time over the CPUs of the invocation, each timed pinned.

    The CPUs of this machine slow down independently of each other.
    """
    times = []
    for cpu in sorted(CPUS):
        os.sched_setaffinity(0, {cpu})
        times.append(_kernel_s())
    os.sched_setaffinity(0, CPUS)
    return sum(times) / len(times)


cal_before = _calibrate()
cpu0 = _cpu_s()
t0 = time.perf_counter()
code = tamedac.cli.main(sys.argv[3:])
wall = time.perf_counter() - t0
cpu = _cpu_s() - cpu0
cal_after = _calibrate()
# ru_maxrss is in KiB on Linux; for workers it is the largest single worker.
rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.stdout.flush()
print("PERFBENCH " + json.dumps({
    "ready": ready, "code": code, "wall_s": wall, "cpu_s": cpu,
    "peak_rss_mb": rss_kib * 1024 / 1e6,
    "cal_before_s": cal_before, "cal_after_s": cal_after,
}))
