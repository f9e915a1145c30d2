"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the checkout's src/. With
--trace 0 the last stdout line carries the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 the run measures half its time untraced and
half with the out-of-program tracer installed, and the last line carries the
per-layer metrics. The line before it is a full report (environment,
machine-speed probe, workload-specific figures). Both, and the traced run's
spans, are also written under perfbench/out/. The exit code is 1 when any
operation failed or any answer differs from the oracle (an error where the
oracle expects a body counts as a wrong answer), 2 when the benchmark cannot
run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# per-layer metrics read from spans: metric -> (request kind, span, self or total)
SPAN_METRICS = {
    "crypto.channel_key_ms": ("decision", "crypto.channel_key", "self"),
    "crypto.cert_verify_ms": ("decision", "crypto.cert_verify", "self"),
    "policy.check_ms": ("decision", "policy.check", "self"),
    "storage.manifest_fetch_ms": ("decision", "storage.manifest_fetch", "total"),
    "storage.blob_get_ms": ("decision", "storage.blob_get", "self"),
    "crypto.record_key_ms": ("decision", "crypto.record_key", "self"),
    "crypto.aead_decrypt_ms": ("decision", "crypto.aead_decrypt", "self"),
    "dmn.parse_record_ms": ("decision", "dmn.parse_record", "self"),
    "enclave.decrypt_data_self_ms": ("decision", "enclave.decrypt_data", "self"),
    "dmn.aggregate_ms": ("decision", "dmn.aggregate", "self"),
    "dmn.compile_ms": ("decision", "dmn.compile", "self"),
    "dmn.build_matrix_ms": ("decision", "dmn.build_matrix", "self"),
    "dmn.kernel_ms": ("decision", "dmn.kernel", "self"),
    "dmn.decide_self_ms": ("decision", "dmn.decide", "self"),
    "service.handler_self_ms": ("decision", "service.handler", "self"),
    "enclave.handle_self_ms": ("decision", "enclave.handle", "self"),
    "enclave.handle_ms": ("decision", "enclave.handle", "total"),
    "crypto.aead_encrypt_ms": ("decision", "crypto.aead_encrypt", "self"),
    "provision.enclave.handle_ms": ("provision", "enclave.handle", "total"),
    "provision.enclave.handle_self_ms": ("provision", "enclave.handle", "self"),
    "provision.crypto.aead_encrypt_ms": ("provision", "crypto.aead_encrypt", "self"),
    "provision.crypto.record_key_ms": ("provision", "crypto.record_key", "self"),
    "provision.dmn.parse_record_ms": ("provision", "dmn.parse_record", "self"),
    "provision.storage.blob_put_ms": ("provision", "storage.blob_put", "self"),
    "provision.storage.publish_ms": ("provision", "storage.publish", "self"),
}


def probe_ms(wl) -> float:
    """Ten times the probe timed between requests, in ms, for the report."""
    started, ended = wl.probe(10 * wl.PROBE_LOOPS)
    return (ended - started) / 1e6


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def trimmed_mean(values, cut: float = 0.1) -> float:
    """The mean of the values left when the lowest and highest `cut` are dropped.

    On mixed the top tenth holds the large decisions and the small requests
    queued behind one, whose number depends on how the seed's arrivals fall;
    the rest are the small requests whose fixed cost the workload measures.
    """
    values = sorted(values)
    drop = int(len(values) * cut)
    return statistics.fmean(values[drop:len(values) - drop])


def service_ms(unit, calls) -> list:
    """Untraced `Ccu.handle` times of the calls, from the unit's own record."""
    tickets = {c.ticket for c in calls}
    return [(h["end"] - h["start"]) / 1e6 for h in unit.handled if h["ticket"] in tickets]


def environment() -> dict:
    import numpy

    from confidec.dmn.engine import kernel_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": kernel_backend(),
        "machine": platform.machine(),
    }


def end_to_end(wl, run, phase) -> tuple:
    """The bounded end-to-end metrics, and the report's unbounded ones.

    Every workload prints the bounded ones. Their times are rescaled to a
    reference machine speed by the probes timed beside them: on a shared
    two-core machine the speed flips between a fast and a slow state every
    few seconds, and the share of a run spent in each drifts over minutes.
    Ten-seed spreads of raw p50 reached 0.27-0.30, of p90 0.53 and of the
    mean and of records per second 0.16-0.20, and the mean of one workload
    moved 15 % between sets made half an hour apart. The raw figures are
    reported without a bound, with what only some workloads do.
    """
    decisions = [c for c in phase.calls if c.kind != "provision" and c.ok]
    latencies = [c.latency_ns / 1e6 for c in decisions]
    metrics = {
        "setup_s": median(run.setup_s),
        "latency_ref_ms": trimmed_mean(phase.reference_ms([c for c in phase.calls if c.ok])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unbounded = {
        "setup_raw_s": (median(run.setup_raw_s), "s"),
        "decision_mean_ms": (statistics.fmean(latencies), "ms"),
        "decision_p50_ms": (wl.percentile(latencies, 50), "ms"),
        "decision_p90_ms": (wl.percentile(latencies, 90), "ms"),
        "decided_records_per_s": (
            sum(c.decided_records for c in phase.calls) / phase.seconds, "1/s"),
        "failed_frac": (sum(not c.ok for c in phase.calls) / len(phase.calls), "ratio"),
    }
    provisions = [c for c in phase.calls if c.kind == "provision" and c.ok]
    if provisions:
        provision_ms = [(c.done_ns - c.submit_ns) / 1e6 for c in provisions]
        unbounded["provision_p50_ms"] = (wl.percentile(provision_ms, 50), "ms")
        unbounded["provision_p90_ms"] = (wl.percentile(provision_ms, 90), "ms")
        unbounded["provisioned_records_per_s"] = (
            sum(len(c.dataset.records) for c in provisions) / (sum(provision_ms) / 1e3), "1/s")
    unbounded["unit_busy_frac"] = (
        sum(service_ms(run.stack.unit, phase.calls)) / 1e3 / phase.seconds, "ratio")
    if any(c.due_ns for c in phase.calls):
        limit_ns = wl.MIXED_LIMIT_MS * 1e6
        met = sum(c.ok and c.latency_ns <= limit_ns for c in phase.calls)
        unbounded["slo_met_frac"] = (met / len(phase.calls), "ratio")
        unbounded["slo_limit_ms"] = (wl.MIXED_LIMIT_MS, "ms")
        unbounded["rate_per_s"] = (wl.MIXED_RATE_PER_S, "1/s")
    extra = {
        "decisions": len(decisions),
        "provisions": len(provisions),
        "probes": len(phase.probes),
        "setup_s_each": run.setup_s,
        "setup_raw_s_each": run.setup_raw_s,
        "unbounded_metrics": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()},
    }
    return metrics, extra


def per_layer(wl, run, untraced, traced, tracer, gc_meter) -> tuple:
    """Per-layer medians from the traced half, runtime figures from the untraced one."""
    by_kind = {"decision": [], "provision": []}
    traced_calls = []
    for call in traced.calls:
        request = tracer.requests.get(call.ticket)
        if request is not None and call.ok:
            by_kind["provision" if call.kind == "provision" else "decision"].append(request)
            traced_calls.append((call, request))

    metrics = {}
    for metric, (kind, span, how) in SPAN_METRICS.items():
        requests = by_kind[kind]
        sums = [(r.total_ns if how == "total" else r.self_ns).get(span, 0) for r in requests]
        metrics[metric] = median(sums) / 1e6

    decision_calls = [(c, r) for c, r in traced_calls if c.kind != "provision"]
    metrics["gateway.queue_wait_ms"] = median(
        [(r.start_ns - c.submit_ns) / 1e6 for c, r in decision_calls])
    metrics["gateway.handoff_ms"] = median(
        [(c.awaited_ns - r.end_ns) / 1e6 for c, r in decision_calls])
    metrics["gateway.refused"] = sum(c.refused for c in untraced.calls + traced.calls)
    metrics["client.build_request_ms"] = median([c.build_ns / 1e6 for c, _ in decision_calls])
    metrics["client.open_response_ms"] = median(
        [(c.done_ns - c.awaited_ns) / 1e6 for c, _ in decision_calls])
    late = [(c.submit_ns - c.due_ns) / 1e6 for c in untraced.calls + traced.calls if c.due_ns]
    metrics["loadgen.late_p90_ms"] = wl.percentile(late, 90) if late else 0.0

    def latency(phase):
        # rescaled, so that a change of machine speed between the halves cancels
        return trimmed_mean(phase.reference_ms(
            [c for c in phase.calls if c.kind != "provision" and c.ok]))

    metrics["trace.overhead_frac"] = latency(traced) / latency(untraced) - 1.0
    # the self times of a traced decision sum to its traced enclave.handle
    # span; the unit's own untraced service times show what tracing added
    untraced_decisions = [c for c in untraced.calls if c.kind != "provision" and c.ok]
    metrics["enclave.handle_untraced_ms"] = median(service_ms(run.stack.unit, untraced_decisions))
    metrics["trace.handle_overhead_frac"] = (
        median([sum(r.self_ns.values()) / 1e6 for r in by_kind["decision"]])
        / metrics["enclave.handle_untraced_ms"] - 1.0)
    ops = len(untraced.calls)
    metrics["runtime.gc_pause_ms"] = gc_meter.pause_ns / 1e6 / ops
    metrics["runtime.gc_collections"] = gc_meter.collections / ops

    # exact counts, from the first traced decision over the primary dataset
    primary = run.inputs.primary
    reference, request = next(
        (c, r) for c, r in decision_calls if c.kind == "decision" and c.dataset is primary
    )
    receipt = next(c for c in run.setup_provisions if c.dataset is primary).body
    metrics["count.records_per_decision"] = reference.decided_records
    metrics["count.blob_reads_per_decision"] = request.calls.get("storage.blob_get", 0)
    metrics["count.response_bytes"] = reference.response_bytes
    metrics["count.rules_walked_per_record"] = primary.rules_walked
    for variant in ("slim", "full"):
        metrics[f"count.stored_bytes_per_record.{variant}"] = (
            receipt[variant]["storedBytes"] / receipt[variant]["records"]
        )
    extra = {
        "traced_decisions": len(by_kind["decision"]),
        "traced_provisions": len(by_kind["provision"]),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "confidec").is_dir():
        print(f"no confidec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    probe_before = probe_ms(wl)
    run = wl.set_up(args.workload, args.seed)
    try:
        if args.trace:
            with tr.GcMeter() as gc_meter:
                untraced = wl.timed_phase(run, args.workload, args.seed, args.seconds / 2, 0)
            tracer = tr.Tracer()
            tracer.install()
            try:
                traced = wl.timed_phase(run, args.workload, args.seed, args.seconds / 2, 1,
                                        between=tracer.fold)
            finally:
                tracer.uninstall()
            tracer.fold()
            phases = [untraced, traced]
        else:
            phases = [wl.timed_phase(run, args.workload, args.seed, args.seconds, 0)]
    finally:
        run.stack.close()
    run.set_up_after()
    probe_after = probe_ms(wl)

    # set-up provisions are checked too: a wrong receipt there is a wrong answer
    calls = run.setup_provisions + [c for phase in phases for c in phase.calls]
    wrong = sum(c.wrong for c in calls)
    failed = sum(not c.ok for c in calls)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if failed:
        # figures over a run with failures measure the wrong thing; show what failed
        values = {}
        extra = {"errors": sorted({c.error or ("refused" if c.refused else "wrong answer")
                                   for c in calls if not c.ok})[:10]}
        listed = []
    elif args.trace:
        values, extra = per_layer(wl, run, untraced, traced, tracer, gc_meter)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        values["env.probe_ms"] = probe_before
        values["env.probe_drift_frac"] = probe_after / probe_before - 1.0
    else:
        values, extra = end_to_end(wl, run, phases[0])

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"benchmark computed no value for {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "env_probe_ms": {"before": probe_before, "after": probe_after},
        "wrong_answers": wrong,
        **extra,
        "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
