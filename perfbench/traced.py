"""Traced run: per-layer spans around the public calls of one workload.

Usage: python3 traced.py <src-dir> <mode> <resolutions> <ref> <threads> <seed> <seconds> <out-dir>

Spans are recorded here, in the benchmark, around calls into each module's
public functions; nothing inside the package is instrumented.  Each traced
sample is rebuilt from public calls (``NoiseRealization.fine_matrix``,
``NoiseRealization.increments``, ``simulate_path`` for the reference and
every rung) and must equal ``sample_squared_errors`` bitwise, so the spans
measure the same program as the untraced runs.  The same samples are then
run as one ``strong_error_study`` at the workload's thread count, whose
errors must equal the reduction of the per-sample results.

The last line of standard output is ``PERFBENCH <json>`` with the per-layer
metrics, each layer's share of the sample time, the number of checks
attempted and the errors found.  The spans
are written to ``<out-dir>/spans.json``.
"""

import sys

sys.path.insert(0, sys.argv[1])

import json  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import tamedac.noise as noise_module  # noqa: E402
from tamedac import (  # noqa: E402
    GridField,
    ModelParams,
    NoiseGrid,
    NoiseRealization,
    RunConfig,
    SpectralField,
    analyze,
    dealias_grid_size,
    emit_csv,
    emit_loglog_plot,
    resolution_pair,
    sample_squared_errors,
    simulate_path,
    strong_error_study,
    synthesize,
    tamed_drift,
)

MICRO_SIZES = (16, 128, 1024)
MIN_SAMPLES = 3
MAX_SAMPLES = 64
# Share of the run given to the traced samples; the study over the same
# samples and the micro-benchmarks take the rest.
SAMPLE_SHARE = 0.5


class Tracer:
    """In-memory spans: name, start, end, parent span and sample index."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, sample: int | None = None):
        record = {"id": len(self.spans), "name": name, "sample": sample,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total_ms(self, name: str, sample: int) -> float:
        """Summed duration of the named spans of one sample."""
        return 1e3 * sum(s["end"] - s["start"] for s in self.spans
                         if s["name"] == name and s["sample"] == sample)


def traced_sample(tracer: Tracer, config: RunConfig, s: int) -> tuple[np.ndarray, int]:
    """sample_squared_errors(config, s) rebuilt from public calls under spans.

    Returns the squared errors and the number of step_normals calls made.
    """
    calls = 0
    step_normals = noise_module.step_normals

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return step_normals(*args, **kwargs)

    ref = config.ref_resolution
    noise_module.step_normals = counted
    try:
        with tracer.span("experiments.sample", s):
            grid = NoiseGrid.for_horizon(config.horizon_T, m_fine=ref, n_modes=ref)
            realization = NoiseRealization(grid, config.master_seed, s)
            with tracer.span("noise.generate", s):
                realization.fine_matrix
            with tracer.span("noise.ref_increments", s):
                inc = realization.increments(ref, ref)
            with tracer.span("stepper.ref_path", s):
                reference = simulate_path(config.params, ref, ref, inc,
                                          sample_index=s).terminal.coeffs
            out = np.empty(len(config.resolutions))
            for j, r in enumerate(config.resolutions):
                n_modes, n_steps = resolution_pair(config.mode, r, ref)
                with tracer.span("noise.coarsen", s):
                    inc = realization.increments(n_modes, n_steps)
                with tracer.span("stepper.ladder", s):
                    coarse = simulate_path(config.params, n_modes, n_steps, inc,
                                           sample_index=s).terminal.coeffs
                diff = reference.copy()
                diff[:n_modes] -= coarse
                out[j] = float(diff @ diff)
    finally:
        noise_module.step_normals = step_normals
    return out, calls


def per_call_us(fn, calls: int, repeats: int = 15) -> float:
    """Median time of one call over `repeats` batches, after a warm-up batch."""
    for _ in range(calls):
        fn()
    batches = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - t0) / calls)
    return 1e6 * median(batches)


def micro_metrics(params: ModelParams, seed: int) -> dict:
    """Public spectral and model calls at N = 16, 128, 1024 and tau = T / 1024."""
    rng = np.random.default_rng(seed)
    tau = params.horizon_T / 1024
    out = {}
    for n in MICRO_SIZES:
        fld = SpectralField(rng.standard_normal(n) / np.arange(1, n + 1))
        k = dealias_grid_size(n)
        values = synthesize(fld, k)
        calls = max(10, 3200 // n)
        out[f"spectral.synthesize_us.n{n}"] = per_call_us(lambda: synthesize(fld, k), calls)
        out[f"spectral.analyze_us.n{n}"] = per_call_us(lambda: analyze(values, n), calls)
        out[f"model.tamed_drift_us.n{n}"] = per_call_us(
            lambda: tamed_drift(params, fld, tau), calls)
    return out


def path_steps(config: RunConfig) -> list[tuple[int, int]]:
    """(n_modes, n_steps) of every path in one sample, the reference first."""
    ref = config.ref_resolution
    return [(ref, ref)] + [resolution_pair(config.mode, r, ref) for r in config.resolutions]


def main(argv: list[str]) -> int:
    mode, resolutions, ref, threads, seed, seconds, out_dir = argv
    threads, seconds, out_dir = int(threads), float(seconds), Path(out_dir)
    params = ModelParams.cubic_double_well()
    config = RunConfig(mode=mode, resolutions=tuple(int(r) for r in resolutions.split(",")),
                       ref_resolution=int(ref), samples=1, master_seed=int(seed),
                       horizon_T=params.horizon_T, params=params)
    start = time.perf_counter()
    errors: list[str] = []
    metrics = micro_metrics(params, int(seed))

    tracer = Tracer()
    rows, plain_s, calls = [], [], []
    s = 0
    while s < MIN_SAMPLES or (time.perf_counter() - start < SAMPLE_SHARE * seconds
                              and s < MAX_SAMPLES):
        # Alternate which of the two runs of a sample goes first, so that
        # warm-up favours neither side of the overhead comparison.
        order = (False, True) if s % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                rebuilt, n_calls = traced_sample(tracer, config, s)
            else:
                t0 = time.perf_counter()
                plain = sample_squared_errors(config, s)
                plain_s.append(time.perf_counter() - t0)
        if rebuilt.tobytes() != plain.tobytes():
            errors.append(f"sample {s}: traced rebuild {rebuilt.tolist()} differs from "
                          f"sample_squared_errors {plain.tolist()}")
        rows.append(plain)
        calls.append(n_calls)
        s += 1
    samples = s

    t0 = time.perf_counter()
    report = strong_error_study(replace(config, samples=samples), threads=threads)
    study_s = time.perf_counter() - t0
    expected = np.sqrt(np.stack(rows).mean(axis=0))
    got = np.array([p.rms_error for p in report.points])
    if got.tobytes() != expected.tobytes():
        errors.append(f"strong_error_study with {threads} thread(s) gives rms {got.tolist()}, "
                      f"the traced samples {expected.tolist()}")

    csv_path, svg_path = out_dir / "trace.csv", out_dir / "trace.svg"

    def write():
        emit_csv(report, str(csv_path))
        emit_loglog_plot(report, str(svg_path))

    metrics["reporting.write_ms"] = 1e-3 * per_call_us(write, 5)

    def per_sample(name):
        return [tracer.total_ms(name, s) for s in range(samples)]

    sample_ms = per_sample("experiments.sample")
    children = ("noise.generate", "noise.ref_increments", "noise.coarsen",
                "stepper.ref_path", "stepper.ladder")
    child_ms = np.sum([per_sample(c) for c in children], axis=0)
    steps = path_steps(config)
    ref_steps, ladder_steps = steps[0][1], sum(m for _, m in steps[1:])
    ref_ms, ladder_ms = median(per_sample("stepper.ref_path")), median(per_sample("stepper.ladder"))
    fine = NoiseGrid.for_horizon(config.horizon_T, config.ref_resolution, config.ref_resolution)
    metrics.update({
        "experiments.sample_ms.p50": float(np.percentile(sample_ms, 50)),
        "experiments.sample_ms.p90": float(np.percentile(sample_ms, 90)),
        "experiments.unaccounted_ms": median(np.array(sample_ms) - child_ms),
        "experiments.par_efficiency": sum(sample_ms) / 1e3 / (threads * study_s),
        "noise.generate_ms": median(per_sample("noise.generate")),
        "noise.step_normals_calls": median(calls),
        "noise.variates": fine.m_fine * fine.n_modes,
        "noise.fine_mb": fine.m_fine * fine.n_modes * np.dtype(np.float64).itemsize / 1e6,
        "noise.coarsen_ms": median(per_sample("noise.coarsen")),
        "stepper.ref_path_ms": ref_ms,
        "stepper.ref_step_us": 1e3 * ref_ms / ref_steps,
        "stepper.ladder_ms": ladder_ms,
        "stepper.ladder_step_us": 1e3 * ladder_ms / ladder_steps,
        "stepper.steps": ref_steps + ladder_steps,
        # Each step synthesizes and analyzes once: two DST-I of length
        # 2 (K + 1) on the dealias grid K of its mode count.
        "spectral.fft_points": sum(m * 2 * 2 * (dealias_grid_size(n) + 1) for n, m in steps),
        "trace.overhead_frac": (sum(sample_ms) / 1e3 - sum(plain_s)) / sum(plain_s),
    })

    # Each layer's share of the traced sample time, summed over samples.
    shares = {f"{c} share": sum(per_sample(c)) / sum(sample_ms) for c in children}
    shares["unaccounted share"] = 1.0 - sum(shares.values())

    with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    print("PERFBENCH " + json.dumps({"attempted": samples + 1, "errors": errors,
                                     "metrics": metrics, "shares": shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))
