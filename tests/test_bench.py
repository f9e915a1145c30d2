"""Benchmark harness: configs, fits, CSV output, and each experiment."""

import csv
import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from confidec.bench import harness
from confidec.bench.harness import (
    CSV_HEADER,
    EXPERIMENTS,
    BenchConfig,
    BenchRow,
    _measure_ladder,
    linear_fit,
    run_benchmark,
    write_csv,
)
from confidec.dmn.engine import kernel_backend
from confidec.enclave import ccu


def test_experiment_catalogue_is_fixed():
    assert EXPERIMENTS == (
        "scaleRecords", "scaleColumns", "scaleRules", "aggregationOverhead",
        "plainVsEnclave", "memorySaving",
    )


@pytest.mark.parametrize("kwargs", [
    {"experiment": "scaleEverything"},
    {"experiment": "scaleRecords", "records": 0},
    {"experiment": "scaleRecords", "columns": 0},
    {"experiment": "scaleRecords", "rules": -5},
    {"experiment": "scaleRecords", "repetitions": 2},
])
def test_bench_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        BenchConfig(**kwargs)


def test_bench_config_defaults():
    config = BenchConfig("scaleRules")
    assert (config.records, config.columns, config.rules) == (4000, 7, 300)
    assert config.repetitions == 5


def test_linear_fit_recovers_an_exact_line():
    xs = [1.0, 2.0, 4.0, 8.0, 16.0]
    fit = linear_fit(xs, [3.0 * x + 2.0 for x in xs])
    assert fit.slope == pytest.approx(3.0)
    assert fit.intercept == pytest.approx(2.0)
    assert fit.r2 == pytest.approx(1.0)


def test_linear_fit_handles_flat_data():
    fit = linear_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert fit.slope == pytest.approx(0.0)
    assert fit.r2 == 1.0  # a flat line explains flat data perfectly


def test_linear_fit_sees_noise():
    fit = linear_fit([1.0, 2.0, 3.0, 4.0], [1.0, 4.0, 2.0, 5.0])
    assert 0.0 < fit.r2 < 1.0
    assert fit.slope > 0


def test_linear_fit_input_validation():
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_rows_serialize_with_rounded_times(tmp_path):
    rows = [
        BenchRow("scaleRules", 10, 2, 5, "c", 3, 1.23456, 4096),
        BenchRow("scaleRules", 10, 2, 8, "py", 3, 7.0, 812),
    ]
    assert rows[0].as_csv() == ["scaleRules", 10, 2, 5, "c", 3, 1.235, 4096]

    path = tmp_path / "bench.csv"
    write_csv(rows, path)
    with open(path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert list(parsed[0]) == list(CSV_HEADER)
    assert parsed[0]["wallTimeMs"] == "1.235"
    assert parsed[1]["mode"] == "py"
    assert len(parsed) == 2


def _tiny(experiment, **kwargs):
    defaults = {"records": 60, "columns": 3, "rules": 10, "repetitions": 3}
    defaults.update(kwargs)
    return run_benchmark(BenchConfig(experiment, **defaults))


def test_scale_records_walks_a_doubling_ladder():
    rows = _tiny("scaleRecords", records=2500)
    assert [r.records for r in rows] == [1000, 2000, 2500]
    for row in rows:
        assert row.experiment == "scaleRecords"
        assert (row.columns, row.rules) == (3, 10)
        assert row.mode == kernel_backend()
        assert row.repetition == 3
        assert row.wall_time_ms > 0
        assert row.peak_mem_bytes > 0


def test_small_limits_collapse_to_a_single_step():
    assert [r.records for r in _tiny("scaleRecords", records=500)] == [500]
    assert [r.rules for r in _tiny("scaleRules", rules=50)] == [50]


def test_scale_columns_clips_its_ladder():
    rows = _tiny("scaleColumns", columns=14)
    assert [r.columns for r in rows] == [1, 7, 14]
    assert all(r.records == 60 for r in rows)


def test_scale_rules_clips_its_ladder():
    rows = _tiny("scaleRules", rules=300)
    assert [r.rules for r in rows] == [100, 300]


def test_ladder_rungs_are_timed_interleaved_with_the_collector_off():
    calls = []

    def rung(i):
        return lambda: calls.append((i, gc.isenabled()))

    results = _measure_ladder([rung(0), rung(1)], repetitions=3)
    assert len(results) == 2
    # one untimed call per rung, three interleaved timed rounds, one traced run per rung
    assert [i for i, _ in calls] == [0, 1] * 5
    assert [enabled for _, enabled in calls[2:8]] == [False] * 6
    assert gc.isenabled()


def test_aggregation_overhead_widens_the_table():
    rows = _tiny("aggregationOverhead", columns=2)
    assert [r.columns for r in rows] == [2, 9, 16, 23]
    assert all(r.rules == 10 for r in rows)


def test_plain_vs_enclave_compares_the_same_workload():
    rows = _tiny("plainVsEnclave", records=30)
    assert [r.mode for r in rows] == ["plain", "enclave"]
    # the table shape columns describe the bundled patient table
    assert all(r.columns == 8 and r.rules == 4 for r in rows)


@pytest.mark.parametrize("experiment, modes", [("plainVsEnclave", 1)])
def test_each_timed_enclave_decision_opens_every_record(monkeypatch, experiment, modes):
    """A slim dataset is one sealed blob: each timed decision opens it once,
    so every record it decides on was decrypted within the timed call."""
    opened = []
    per_decision = []
    real_open_wire = ccu.open_wire
    real_roundtrip = harness._roundtrip

    def counting_open_wire(*args):
        opened.append(1)
        return real_open_wire(*args)

    def roundtrip(unit, session, request_type, payload):
        before = len(opened)
        answer = real_roundtrip(unit, session, request_type, payload)
        if request_type == "decision":
            per_decision.append(len(opened) - before)
        return answer

    monkeypatch.setattr(ccu, "open_wire", counting_open_wire)
    monkeypatch.setattr(harness, "_roundtrip", roundtrip)
    _tiny(experiment, records=30)
    # per mode, three timed decisions and the one its peak memory comes from
    assert per_decision == [1] * (4 * modes)


def test_memory_saving_reports_stored_bytes_per_role():
    rows = _tiny("memorySaving", records=40)
    assert [r.mode for r in rows] == [
        "Patient/full", "Patient/slim",
        "VaccinationCenter/full", "VaccinationCenter/slim",
        "Carrier/full", "Carrier/slim",
    ]
    by_mode = {r.mode: r for r in rows}
    for role in ("Patient", "VaccinationCenter", "Carrier"):
        full = by_mode[f"{role}/full"].peak_mem_bytes
        slim = by_mode[f"{role}/slim"].peak_mem_bytes
        assert 0 < slim < full
    assert all(r.repetition == 1 for r in rows)


@pytest.mark.parametrize("workload", ["mixed", "refresh"])
def test_the_benchmark_runs_one_short_workload_correctly(workload):
    """perfbench drives the unit through its public API, so a change there
    that every test under tests/ misses would fail each of its requests;
    `refresh` provisions again and again, so it runs the write path too."""
    run = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    out = subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    last = json.loads(out.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0)
