"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Takes about fifteen seconds: a few short benchmark runs go through run.py
as a subprocess, exactly as the benchmark is invoked.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from ecrank import records  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("workload,trace", [("recheck-grid", "0"), ("recheck-grid", "1"),
                                            ("sweep-grid", "1")])
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace,
                 "--spans-out", str(spans))
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else {k: u for k, (u, _) in run.PER_LAYER.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = proc.stdout.splitlines()
    kind = "metric" if trace == "0" else "layer"
    for name, unit in expected.items():
        assert any(ln.startswith(f"{kind} {name} = ") and ln.endswith(f" {unit}") for ln in lines)
    assert any(ln.startswith("metric failed_frac = ") for ln in lines)
    if trace == "0":
        assert any(ln.startswith("wall curves_per_s = ") for ln in lines)
        assert any(ln.startswith("pace reference = ") for ln in lines)
    header = json.loads(next(ln for ln in lines if ln.startswith("header "))[len("header "):])
    for key in ("python", "nproc", "cpu", "revision", "seed", "samples", "curve_ms_tail"):
        assert key in header
    if trace == "1":
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"name", "start", "end", "parent", "curve"}
    if workload == "sweep-grid":
        assert result["metrics"]["records.sweep.pool_efficiency"]["value"] > 0


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "recheck-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _boom(arg):
    if arg == "boom":
        raise ValueError("injected")
    return arg


def _same(expected, output):
    return None if expected == output else f"got {output!r}"


def test_injected_exception_is_counted_and_the_run_goes_on():
    result = workloads.run_serial([("ok", "ok"), ("boom", "ok")], _boom, _same, 0.05)
    assert len(result.curves) >= 2
    failed = [c for c in result.curves if c.failed]
    assert result.failed == len(failed) == len(result.curves) // 2
    assert all("ValueError" in c.error for c in failed)
    assert not result.correct


def test_exception_the_seed_also_raised_fails_but_stays_correct():
    result = workloads.run_serial([("boom", {"raises": "ValueError"})], _boom, _same, 0)
    assert result.failed == 1 and result.correct
    result = workloads.run_serial([("fine", {"raises": "ValueError"})], _boom, _same, 0)
    assert result.failed == 1 and not result.correct


def _raising_check(expected, output):
    raise KeyError("timings")


def test_check_that_raises_is_counted_and_the_run_goes_on():
    result = workloads.run_serial([("ok", "ok")], _boom, _raising_check, 0.05)
    assert len(result.curves) >= 2 and result.failed == len(result.curves)
    assert all(c.error.startswith("check raised KeyError") for c in result.curves)
    assert not result.correct


def test_unreadable_sweep_record_is_counted(tmp_path, monkeypatch):
    expected = workloads.grid_expectations()
    lines = workloads.load_grid_lines()
    garbled = ["{not json"] + lines[1:]

    def fake_sweep(spec, threads=1, progress=None):
        Path(spec.output_path).write_text("\n".join(garbled) + "\n", encoding="utf-8")
        return garbled

    monkeypatch.setattr(records, "run_sweep", fake_sweep)
    result = workloads.run_sweep_grid(expected, 0, 1, tmp_path)
    assert len(result.curves) == len(expected)
    assert result.failed == 1 and result.curves[0].error.startswith("record unreadable")
    assert not result.correct


def test_certificate_where_the_seed_raised_passes_when_it_checks_out():
    params = list(workloads.TINY_PARAMS)
    record = workloads.call_torsion(params)
    seed_raised = {"raises": "FactorizationIncomplete", "params": params}
    assert workloads.check_torsion(seed_raised, record) is None
    result = workloads.run_serial([(params, seed_raised)], workloads.call_torsion,
                                  workloads.check_torsion, 0)
    assert result.failed == 0 and result.correct
    bad = json.loads(json.dumps(record))
    ell, n = bad["torsion"]["reduction_counts"][0]
    bad["torsion"]["reduction_counts"][0] = [ell, str(int(n) + 2)]
    assert workloads.check_torsion(seed_raised, bad) is not None
    other = {"raises": "FactorizationIncomplete", "params": [34, 3, 5, 7]}
    assert "record is for" in workloads.check_torsion(other, record)


def test_tampered_records_are_flagged():
    items = workloads.recheck_items(seed=5)
    originals = workloads.load_grid_lines()
    tampered = [i for i, (_, ok) in enumerate(items) if not ok]
    assert len(tampered) == workloads.TAMPERED_PER_RUN
    for i in tampered:
        line = json.dumps(items[i][0], separators=(",", ":"))
        assert len(line) == len(originals[i])
        assert sum(a != b for a, b in zip(line, originals[i])) == 1
    record, ok = items[tampered[0]]
    assert workloads.run_serial([(record, ok)], records.recheck_record,
                                workloads.check_recheck, 0).failed == 0
    wrong = workloads.run_serial([(record, True)], records.recheck_record,
                                 workloads.check_recheck, 0)
    assert wrong.failed == 1 and not wrong.correct


def test_same_seed_same_inputs_other_seed_other_draws():
    expected = workloads.load_expected()
    assert workloads.verify_items(expected, 1) == workloads.verify_items(expected, 1)
    assert workloads.verify_items(expected, 1) != workloads.verify_items(expected, 2)
    assert workloads.torsion_items(expected, 1) == workloads.torsion_items(expected, 1)
    assert workloads.torsion_items(expected, 1) != workloads.torsion_items(expected, 2)
    assert workloads.recheck_items(1) == workloads.recheck_items(1)


def test_pace_scales_each_unit_by_the_reference_around_it():
    nominal = workloads.REF_NOMINAL_S
    pace = workloads.Pace()
    pace.gaps = [[2 * nominal], [3 * nominal, 4 * nominal, 1.0], [nominal]]
    assert pace.speed(0) == pytest.approx(1 / 3.5)
    assert pace.speed(1) == pytest.approx(1 / 3.5)
    assert len(pace.samples) == 5
    pace.gap(0.0)
    assert len(pace.gaps) == 4 and len(pace.gaps[-1]) == 1
    pace.gap(30 * pace.gaps[-1][0])
    assert len(pace.gaps[-1]) >= 2  # at least SHARE of the unit's time


def test_pace_for_a_pool_samples_on_every_worker_at_once():
    pace = workloads.Pace(workers=2)
    try:
        pace.gap(0.0)
    finally:
        pace.close()
    assert len(pace.gaps) == 1 and len(pace.gaps[0]) == 2 and min(pace.gaps[0]) > 0


def test_serial_run_times_each_call_as_a_unit():
    pace = workloads.Pace()
    result = workloads.run_serial([("ok", "ok")], _boom, _same, 0.05, pace=pace)
    assert len(result.unit_s) == len(result.curves) == len(pace.gaps) - 1
    assert [c.unit for c in result.curves] == list(range(len(result.curves)))


def test_tail_is_highest_percentile_with_ten_samples_above():
    value, label = run.tail([float(x) for x in range(30, 0, -1)])
    assert value == 20.0 and label.startswith("p66.7 (n=30")
    value, label = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and label.startswith("max")


def test_pass_tail_is_the_median_of_each_full_pass_tail():
    passes = [[float(x) for x in range(1, 21)], [float(x) for x in range(101, 121)],
              [float(x) for x in range(201, 221)]]
    value, label = run.pass_tail(passes[0] + passes[1] + passes[2] + [1000.0], 20)
    assert value == 110.0 and label.startswith("median over 3 passes of each pass's p50.0")
    value, label = run.pass_tail([5.0, 1.0], 20)
    assert value == 5.0 and "partial pass" in label


def test_tracer_wraps_where_callers_look_and_restores():
    import ecrank.arith
    import ecrank.cli
    import ecrank.records
    import ecrank.torsion

    factorize, build = ecrank.arith.factorize, ecrank.records.build_curve_record
    tracer = Tracer()
    tracer.install()
    try:
        assert ecrank.torsion.factorize is not factorize
        assert ecrank.cli.build_curve_record is not build
        workloads.tiny_certificate()
    finally:
        tracer.remove()
    assert ecrank.torsion.factorize is factorize and ecrank.cli.build_curve_record is build
    names = {s.name for s in tracer.spans}
    assert {"records.build_curve_record", "arith.factorize", "torsion.nagell_lutz"} <= names
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "records.build_curve_record")
    assert tracer.spans[root].parent == -1
    assert all(s.parent >= 0 for i, s in enumerate(tracer.spans) if i != root)
    self_s = tracer.self_times()
    total = tracer.spans[root].end - tracer.spans[root].start
    assert abs(sum(self_s.values()) - total) < 1e-6
    assert tracer.counts["arith.is_prime.calls"] > 0
