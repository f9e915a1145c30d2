"""Benchmark harness: six experiments over the decision engine.

Four experiments scale the bare evaluator (records, columns, rules and
aggregation count), two exercise the full confidential pipeline
(plaintext versus enclave decisions, and the slim/full storage
footprint).  Every experiment emits rows in one
fixed CSV schema; timing rows report the median over the configured
repetitions, and peak memory is sampled in one extra instrumented run so
tracing never skews the timings. The ladder experiments time their rungs
interleaved, with the garbage collector off, so a change in machine speed
or a collection pause lands on every rung alike instead of bending the
shape of the ladder.
"""

from __future__ import annotations

import csv
import gc
import secrets
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from datetime import timedelta
from typing import Callable, Iterable, Sequence

from confidec.bench.tablegen import synth_aggregations, synth_records, synth_table
from confidec.bench.vax import VAX_ROLES, VaxSpec, generate_vax
from confidec.crypto.certs import issue_certificate
from confidec.crypto.keys import SigningKeyPair
from confidec.dmn.aggregate import evaluate_aggregate
from confidec.dmn.engine import decide_records, kernel_backend
from confidec.dmn.program import compile_table
from confidec.dmn.tables import record_to_obj
from confidec.enclave.ccu import Ccu, generate_seed
from confidec.enclave.measurement import CodeBundle
from confidec.fixtures import (
    load_patient_aggregation_docs,
    load_table,
    load_table_doc,
    load_patient_aggregations,
    load_policy_text,
)
from confidec.gateway.client import ClientSession
from confidec.storage.node import StorageNode
from confidec.util import utcnow

EXPERIMENTS = (
    "scaleRecords",
    "scaleColumns",
    "scaleRules",
    "aggregationOverhead",
    "plainVsEnclave",
    "memorySaving",
)

CSV_HEADER = (
    "experiment", "records", "columns", "rules", "mode",
    "repetition", "wallTimeMs", "peakMemBytes",
)

_RECORD_LADDER_BASE = 1000
_RULE_LADDER = (100, 300, 600, 1200)
_COLUMN_LADDER = (1, 7, 14, 21, 28)
_AGG_LADDER = (0, 7, 14, 21)

_FUNC_FOR_ROLE = {
    "Patient": "PatientPrioritizationWithAggr",
    "VaccinationCenter": "Restock",
    "Carrier": "ChooseCarrier",
}
_DATASET_FOR_ROLE = {
    "Patient": "patients",
    "VaccinationCenter": "centers",
    "Carrier": "carriers",
}


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark invocation: which experiment, at what scale."""

    experiment: str
    records: int = 4000
    columns: int = 7
    rules: int = 300
    seed: int = 7
    repetitions: int = 5

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.records < 1 or self.columns < 1 or self.rules < 1:
            raise ValueError("records, columns and rules must all be >= 1")
        # median over fewer than 3 runs is just noise
        if self.repetitions < 3:
            raise ValueError("repetitions must be >= 3")


@dataclass(frozen=True)
class BenchRow:
    experiment: str
    records: int
    columns: int
    rules: int
    mode: str
    repetition: int
    wall_time_ms: float
    peak_mem_bytes: int

    def as_csv(self) -> list:
        return [
            self.experiment, self.records, self.columns, self.rules,
            self.mode, self.repetition, round(self.wall_time_ms, 3),
            self.peak_mem_bytes,
        ]


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r2: float


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares line through (xs, ys) with its coefficient of determination."""

    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("x values are all equal")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r2=r2)


def write_csv(rows: Iterable[BenchRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())


def run_benchmark(config: BenchConfig) -> list[BenchRow]:
    runner = {
        "scaleRecords": _bench_scale_records,
        "scaleColumns": _bench_scale_columns,
        "scaleRules": _bench_scale_rules,
        "aggregationOverhead": _bench_aggregation_overhead,
        "plainVsEnclave": _bench_plain_vs_enclave,
        "memorySaving": _bench_memory_saving,
    }[config.experiment]
    return runner(config)


# -- measurement core ---------------------------------------------------------

def _measure(fn: Callable[[], object], repetitions: int) -> tuple[float, int]:
    """Median wall time in ms over `repetitions` runs, plus the peak traced
    memory of one extra run."""

    times = []
    for _ in range(repetitions):
        start = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times), _peak_memory(fn)


def _measure_ladder(
    fns: Sequence[Callable[[], object]], repetitions: int
) -> list[tuple[float, int]]:
    """Median wall time in ms and peak traced memory for each rung of a ladder.

    Every rung gets one untimed call first. Then repetition k of every rung
    runs before repetition k+1 of any, with the garbage collector off, so
    a speed change or a collection pause part-way through cannot fall on
    the large rungs only. Peak memory comes from one separate traced run
    per rung, as in `_measure`.
    """

    for fn in fns:
        fn()
    times: list[list[float]] = [[] for _ in fns]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            gc.collect()
            for fn, rung_times in zip(fns, times):
                start = time.perf_counter_ns()
                fn()
                rung_times.append((time.perf_counter_ns() - start) / 1e6)
    finally:
        if was_enabled:
            gc.enable()
    return [
        (statistics.median(rung_times), _peak_memory(fn))
        for fn, rung_times in zip(fns, times)
    ]


def _peak_memory(fn: Callable[[], object]) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _records_ladder(limit: int) -> list[int]:
    ladder = []
    n = _RECORD_LADDER_BASE
    while n <= limit:
        ladder.append(n)
        n *= 2
    if not ladder or ladder[-1] != limit:
        ladder.append(limit)
    return ladder


def _decide_on(table, records, specs=()) -> Callable[[], object]:
    """A decision over the records, with the table lowered before timing.

    The timed call aggregates and decides, as `decide_all` does, but does
    not look the table up in `compile_table`'s cache, whose hash of the
    whole table would be timed with it.
    """
    program = compile_table(table)

    def decide():
        aggregates = {spec.name: evaluate_aggregate(spec, records) for spec in specs}
        return decide_records(program, records, aggregates)

    return decide


def _clipped(ladder: Sequence[int], limit: int) -> list[int]:
    kept = [x for x in ladder if x <= limit]
    return kept or [limit]


# -- evaluator-only experiments ----------------------------------------------

def _bench_scale_records(config: BenchConfig) -> list[BenchRow]:
    table = synth_table(config.columns, config.rules, seed=config.seed)
    ladder = _records_ladder(config.records)
    records = synth_records(config.columns, ladder[-1], seed=config.seed)
    backend = kernel_backend()
    runs = [_decide_on(table, records[:n]) for n in ladder]
    return [
        BenchRow(
            config.experiment, n, config.columns, config.rules,
            backend, config.repetitions, median_ms, peak,
        )
        for n, (median_ms, peak) in zip(ladder, _measure_ladder(runs, config.repetitions))
    ]


def _bench_scale_columns(config: BenchConfig) -> list[BenchRow]:
    ladder = _clipped(_COLUMN_LADDER, config.columns)
    backend = kernel_backend()
    runs = [
        _decide_on(
            synth_table(width, config.rules, seed=config.seed),
            synth_records(width, config.records, seed=config.seed),
        )
        for width in ladder
    ]
    return [
        BenchRow(
            config.experiment, config.records, width, config.rules,
            backend, config.repetitions, median_ms, peak,
        )
        for width, (median_ms, peak) in zip(ladder, _measure_ladder(runs, config.repetitions))
    ]


def _bench_scale_rules(config: BenchConfig) -> list[BenchRow]:
    ladder = _clipped(_RULE_LADDER, config.rules)
    records = synth_records(config.columns, config.records, seed=config.seed)
    backend = kernel_backend()
    runs = [
        _decide_on(synth_table(config.columns, depth, seed=config.seed), records)
        for depth in ladder
    ]
    return [
        BenchRow(
            config.experiment, config.records, config.columns, depth,
            backend, config.repetitions, median_ms, peak,
        )
        for depth, (median_ms, peak) in zip(ladder, _measure_ladder(runs, config.repetitions))
    ]


def _bench_aggregation_overhead(config: BenchConfig) -> list[BenchRow]:
    records = synth_records(config.columns, config.records, seed=config.seed)
    backend = kernel_backend()
    rows = []
    for extra in _AGG_LADDER:
        table = synth_table(config.columns, config.rules, seed=config.seed, agg_columns=extra)
        specs = synth_aggregations(extra, config.columns)
        median_ms, peak = _measure(_decide_on(table, records, specs), config.repetitions)
        rows.append(BenchRow(
            config.experiment, config.records, config.columns + extra, config.rules,
            backend, config.repetitions, median_ms, peak,
        ))
    return rows


# -- pipeline experiments ------------------------------------------------------

def _make_stack() -> tuple[Ccu, ClientSession]:
    """A booted, deployed, seeded unit plus an attested client session."""

    authority = SigningKeyPair.generate()
    unit = Ccu.boot(
        "bench-unit",
        authority,
        platform_secret=secrets.token_bytes(32),
        storage=StorageNode.in_memory(),
    )
    bundle = CodeBundle.assemble(
        load_policy_text(),
        [load_table_doc(name) for name in _FUNC_FOR_ROLE.values()],
        load_patient_aggregation_docs(),
    )
    unit.deploy(bundle)
    unit.install_seed(generate_seed())

    client_key = SigningKeyPair.generate()
    now = utcnow()
    certificate = issue_certificate(
        authority,
        subject="bench-hub",
        attributes={"Role": "MedicalHub", "Country": "Italy"},
        subject_verify_key=client_key.verify_key,
        not_before=now - timedelta(minutes=5),
        not_after=now + timedelta(days=30),
    )
    session = ClientSession(certificate, client_key, authority.verify_key)
    session.attest(unit.evidence(), unit.measurement)
    return unit, session


def _roundtrip(unit: Ccu, session: ClientSession, request_type: str, payload: dict) -> tuple[dict, float]:
    envelope, key = session.build_request(request_type, payload)
    correlation = secrets.token_hex(16)
    start = time.perf_counter_ns()
    response = unit.handle(correlation, envelope)
    elapsed_ms = (time.perf_counter_ns() - start) / 1e6
    return session.open_response(response, key), elapsed_ms


def _provision(unit, session, role: str, records) -> tuple[dict, float]:
    payload = {
        "dataName": _DATASET_FOR_ROLE[role],
        "structure": role,
        "records": [record_to_obj(r) for r in records],
    }
    return _roundtrip(unit, session, "provision", payload)


def _patient_decision(unit: Ccu, session: ClientSession) -> Callable[[], object]:
    """One enclave decision over the provisioned patients, round trip
    through `Ccu.handle`."""
    payload = {
        "funcName": "PatientPrioritizationWithAggr",
        "dataName": _DATASET_FOR_ROLE["Patient"],
    }
    return lambda: _roundtrip(unit, session, "decision", payload)


def _bench_plain_vs_enclave(config: BenchConfig) -> list[BenchRow]:
    patients = generate_vax(VaxSpec("Patient", config.records, config.seed))
    table = load_table("PatientPrioritizationWithAggr")
    specs = load_patient_aggregations()
    rows = []

    median_ms, peak = _measure(_decide_on(table, patients, specs), config.repetitions)
    rows.append(BenchRow(
        config.experiment, config.records, len(table.condition_columns),
        len(table.rules), "plain", config.repetitions, median_ms, peak,
    ))

    unit, session = _make_stack()
    _provision(unit, session, "Patient", patients)
    median_ms, peak = _measure(_patient_decision(unit, session), config.repetitions)
    rows.append(BenchRow(
        config.experiment, config.records, len(table.condition_columns),
        len(table.rules), "enclave", config.repetitions, median_ms, peak,
    ))
    return rows


def _bench_memory_saving(config: BenchConfig) -> list[BenchRow]:
    """Stored bytes of the slim versus full dataset per record shape.

    Rows reuse peakMemBytes for the at-rest byte count since that is the
    quantity this experiment exists to compare.
    """

    unit, session = _make_stack()
    rows = []
    for role in VAX_ROLES:
        records = generate_vax(VaxSpec(role, config.records, config.seed))
        table = load_table(_FUNC_FOR_ROLE[role])
        receipt, elapsed_ms = _provision(unit, session, role, records)
        for variant in ("full", "slim"):
            rows.append(BenchRow(
                config.experiment, config.records, len(table.condition_columns),
                len(table.rules), f"{role}/{variant}", 1, elapsed_ms,
                int(receipt[variant]["storedBytes"]),
            ))
    return rows
