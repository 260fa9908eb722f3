"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


run = _load("perfbench_run", BENCH_DIR / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def test_benchmark_json_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][1] == "perfbench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for wl in SPEC["workloads"]:
        assert set(wl) == {"name", "why"}
        assert "\n" not in wl["why"] and len(wl["why"]) <= 200


def test_metric_names_and_units_are_valid():
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    for name in names:
        assert NAME.fullmatch(name), name
    for group in ("end_to_end", "per_layer"):
        assert len({m["name"] for m in SPEC[group]}) == len(SPEC[group])
        for metric in SPEC[group]:
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric


def test_end_to_end_bounds_and_setup():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_every_named_workload_is_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == {"joint", "spatial", "temporal", "joint-par2"}
    for wl in run.WORKLOADS.values():
        assert (run.GOLDEN / f"{wl.golden}.csv").is_file()
    assert run.WORKLOADS["joint-par2"].golden == "joint"
    assert run.WORKLOADS["joint-par2"].threads == 2


def test_scaled_figures_are_the_end_to_end_metrics():
    inv = run.Invocation("x", samples=4, setup_s=0.5, wall_s=2.0, cpu_s=2.2,
                         peak_rss_mb=80.0, cal_before_s=run.REFERENCE_CAL_S,
                         cal_after_s=2 * run.REFERENCE_CAL_S)
    scaled = inv.scaled()
    assert set(scaled) == {m["name"] for m in SPEC["end_to_end"]}
    assert scaled["setup_s"] == 0.5
    assert scaled["samples_per_s"] == pytest.approx(4 / 2.0 * 1.5)
    assert scaled["cpu_s_per_sample"] == pytest.approx(2.2 / 1.5 / 4)
    assert set(inv.raw()) == set(scaled)


def test_rel_dev_against_golden(tmp_path):
    golden = run.GOLDEN / "joint.csv"
    assert run.rel_dev(golden, golden) == 0.0
    text = golden.read_text(encoding="utf-8")
    rows = text.splitlines()
    res, rms, se, n = rows[1].split(",")
    rows[1] = ",".join([res, repr(float(rms) * 1.01), se, n])
    changed = tmp_path / "changed.csv"
    changed.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run.rel_dev(changed, golden) == pytest.approx(0.01)


def test_check_csv_rejects_wrong_sample_count(tmp_path):
    csv = tmp_path / "g.csv"
    shutil.copyfile(run.GOLDEN / "joint.csv", csv)
    csv.with_suffix(".svg").write_text("<svg></svg>\n", encoding="utf-8")
    assert run.check_csv(csv, run.WORKLOADS["joint"], run.GOLDEN_SAMPLES) == ""
    assert "samples" in run.check_csv(csv, run.WORKLOADS["joint"], 5)


def test_forced_failure_counts_in_error_rate(work, monkeypatch, capsys):
    bad = run.Workload("joint", "4,eight,16", 1, 1, "joint")
    monkeypatch.setitem(run.WORKLOADS, "bad", bad)
    code = run.main(["--workload", "bad", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["metrics"] == {}
    assert re.search(r"error_rate\s+1 ratio", out)


def test_end_to_end_run_reports_every_metric(work, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_RUNS", 2)
    code = run.main(["--workload", "joint-par2", "--seed", "5", "--seconds", "1"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 3
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert re.search(r"result_rel_dev\s+0 ratio", out)
    assert "machine: nproc=" in out


def test_golden_mismatch_fails_the_run(work, monkeypatch, capsys, tmp_path):
    golden = tmp_path / "golden"
    golden.mkdir()
    rows = (run.GOLDEN / "joint.csv").read_text(encoding="utf-8").splitlines()
    res, rms, se, n = rows[1].split(",")
    rows[1] = ",".join([res, f"{float(rms) * 1.001:.8g}", se, n])
    (golden / "joint.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN", golden)
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    code = run.main(["--workload", "joint", "--seed", "5", "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert _last_json(out)["failed"] == 1
    assert "differs from golden/joint.csv" in out
    assert re.search(r"result_rel_dev\s+0\.000999", out)


def test_traced_run_reports_every_per_layer_metric(work, capsys):
    code = run.main(["--workload", "joint", "--seed", "2", "--seconds", "1",
                     "--trace", "1"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0, out
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["noise.step_normals_calls"] == 1024
    assert values["noise.variates"] == 1024 * 1024
    assert values["stepper.steps"] == 1024 + sum((4, 8, 16, 32, 64, 128))
    spans = json.loads((run.WORK / "joint" / "spans.json").read_text(encoding="utf-8"))
    assert {s["name"] for s in spans} >= {"experiments.sample", "noise.generate",
                                          "stepper.ref_path", "stepper.ladder"}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "joint",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
