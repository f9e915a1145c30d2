"""The benchmark's four workloads, driven through a real unit in-process.

Every request goes the way a caller's does: `ClientSession.build_request`,
`Gateway.submit`, `Ccu.handle` on the gateway worker, `Gateway.await_response`
and `ClientSession.open_response`. Inputs come only from the seed. Every
answer is checked against a plaintext oracle, `decide_all` over the same
records, computed before timing starts.

- bulk: closed loop, one caller, PatientPrioritizationWithAggr over 4 000
  patients. Per-record layers (blob get, key derivation, AEAD, decode,
  aggregation, matrix, results) do almost all the work.
- deeprules: closed loop, one caller, a 7-column 300-rule synthetic table over
  1 000 records that walk most of the rules. The evaluator kernel dominates.
- mixed: open loop at a fixed Poisson rate with pre-built envelopes. Mostly
  small decisions, a few large ones and a few callers the policy refuses.
  Per-request fixed cost dominates; the few requests that queue behind a
  large decision show head-of-line blocking.
- refresh: closed loop, one provider-caller, alternating re-provisioning of a
  1 000-patient dataset (two versions) with a decision over it. Each read
  hits just-written data.
"""

from __future__ import annotations

import bisect
import gc
import queue
import random
import secrets
import statistics
import threading
import time
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Callable, Dict, List, Optional, Sequence

from confidec.bench.tablegen import synth_records, synth_table
from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.certs import issue_certificate
from confidec.crypto.keys import SigningKeyPair
from confidec.dmn.engine import decide_all
from confidec.dmn.model import AggregationSpec, DecisionTable, Record
from confidec.dmn.tables import record_to_obj, table_to_obj
from confidec.enclave.ccu import Ccu, generate_seed
from confidec.enclave.measurement import CodeBundle
from confidec.errors import GatewayError, QueueFullError
from confidec.fixtures import (
    load_patient_aggregation_docs,
    load_patient_aggregations,
    load_policy_text,
    load_table,
    load_table_doc,
)
from confidec.gateway.client import ClientSession
from confidec.gateway.queue import Gateway
from confidec.service.builder import REJECT_POLICY
from confidec.storage.chain import NotarizationLog
from confidec.storage.names import NameRegistry
from confidec.storage.node import StorageNode
from confidec.storage.store import MemoryBlobStore
from confidec.util import utcnow

WORKLOADS = ("bulk", "deeprules", "mixed", "refresh")

# mixed: offered load and the latency limit its SLO share is measured against.
# At 20 req/s a few per cent of requests queue behind a large decision, so p90
# sits in the body of small-request latencies and the head-of-line blocking
# shows above it and in the SLO share; at 100 req/s p90 fell on the steep
# edge of the blocked population and moved 17-35 ms from seed to seed.
MIXED_RATE_PER_S = 20
MIXED_LIMIT_MS = 50.0
MIXED_SHARE_LARGE = 0.02
MIXED_SHARE_DENIED = 0.05

# 1 000 rather than 2 000 patients keeps a refresh cycle under 300 ms on a
# two-core x86-64 machine even when it runs slow, so a 30 s run makes the 100
# decisions a p90 needs
REFRESH_PATIENTS = 1000

# the machine-speed probe timed beside the requests and set-ups, and the probe
# time in ms the bounded times are rescaled to (about the probe's time on a
# two-core x86-64 machine while other tenants leave it alone)
PROBE_LOOPS = 40_000
REFERENCE_PROBE_MS = 5.0
# mixed probes only in a gap this long with no request in flight
PROBE_GAP_NS = 25_000_000

# set-ups before the timed phase (the last serves it) and after it, so that
# their median samples two moments half a minute apart
SETUPS_BEFORE = 3
SETUPS_AFTER = 3
CALL_TIMEOUT_S = 60.0

SYNTH_COLUMNS = 7
SYNTH_RULES = 300
SYNTH_POLICY = """
policy Synth7x300(Synth) {
    target clause Action == "decide"
    rule accessDecision {
        permit
        condition Role == "MedicalHub" && Country == "Italy"
    }
}
"""
HUB_ATTRIBUTES = {"Role": "MedicalHub", "Country": "Italy"}
# a valid certificate whose attributes fail every deployed policy
OUTSIDER_ATTRIBUTES = {"Role": "MedicalHub", "Country": "France"}

clock = time.perf_counter_ns


def probe(loops: int = PROBE_LOOPS) -> tuple:
    """A fixed pure-Python loop; its (start, end) tracks the machine's speed."""
    started = clock()
    acc = 0
    table = {}
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return started, clock()


def at_reference(elapsed_ns: int, near: Sequence[tuple]) -> float:
    """`elapsed_ns` rescaled to the reference machine speed, in ms.

    The machine's speed is the mean time of the probes `near` the interval.
    Both the probe and the program slow down when other tenants contend for
    the CPU, so the ratio tracks what the program costs.
    """
    speed_ns = statistics.fmean(end - start for start, end in near)
    return elapsed_ns / speed_ns * REFERENCE_PROBE_MS


# -- inputs and the oracle -------------------------------------------------------


@dataclass
class Dataset:
    """One dataset as the caller provisions it, with its expected decisions."""

    name: str
    structure: str
    func: str
    records: List[Record]
    expected: List[dict]
    rules_walked: float
    payload: dict = field(init=False)
    by_id: Dict[str, tuple] = field(init=False)

    def __post_init__(self) -> None:
        self.payload = {
            "dataName": self.name,
            "structure": self.structure,
            "records": [record_to_obj(r) for r in self.records],
        }
        self.by_id = {e["recordId"]: (e["outcome"], e["values"]) for e in self.expected}


def _dataset(name: str, structure: str, func: str, table: DecisionTable,
             specs: Sequence[AggregationSpec], records: List[Record]) -> Dataset:
    results = decide_all(table, records, specs)
    n_rules = len(table.rules)
    walked = sum(n_rules if r.rule_index is None else r.rule_index + 1 for r in results)
    return Dataset(
        name=name,
        structure=structure,
        func=func,
        records=records,
        expected=[
            {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)}
            for r in results
        ],
        rules_walked=walked / len(results),
    )


def _patients(name: str, count: int, seed: int, prefix: str = "") -> Dataset:
    records = generate_vax(VaxSpec("Patient", count, seed))
    if prefix:
        records = [Record(prefix + r.id, r.fields) for r in records]
    return _dataset(name, "Patient", "PatientPrioritizationWithAggr",
                    load_table("PatientPrioritizationWithAggr"), load_patient_aggregations(),
                    records)


def _small(name: str, role: str, func: str, count: int, seed: int) -> Dataset:
    return _dataset(name, role, func, load_table(func), (),
                    generate_vax(VaxSpec(role, count, seed)))


def code_bundle() -> CodeBundle:
    """The bundled tables plus the synthetic deep table under its own policy."""
    docs = [load_table_doc(n) for n in ("PatientPrioritizationWithAggr", "Restock", "ChooseCarrier")]
    docs.append(table_to_obj(synth_table(SYNTH_COLUMNS, SYNTH_RULES)))
    return CodeBundle.assemble(load_policy_text() + SYNTH_POLICY, docs,
                               load_patient_aggregation_docs())


@dataclass
class Inputs:
    """Everything a workload sends, generated from its seed before set-up."""

    datasets: List[Dataset]
    primary: Dataset
    # refresh: the other version of the primary dataset, provisioned in turn
    alternate: Optional[Dataset] = None


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "bulk":
        patients = _patients("patients", 4000, seed)
        return Inputs([patients], patients)
    if workload == "deeprules":
        synth = _dataset("synth", "Synth", f"Synth{SYNTH_COLUMNS}x{SYNTH_RULES}",
                         synth_table(SYNTH_COLUMNS, SYNTH_RULES), (),
                         synth_records(SYNTH_COLUMNS, 1000, seed=seed))
        return Inputs([synth], synth)
    if workload == "mixed":
        centers = _small("centers", "VaccinationCenter", "Restock", 30, seed)
        carriers = _small("carriers", "Carrier", "ChooseCarrier", 30, seed)
        patients = _patients("patients", 1000, seed)
        return Inputs([centers, carriers, patients], centers)
    if workload == "refresh":
        # two versions under one name; ids differ so a stale answer never passes
        v0 = _patients("patients", REFRESH_PATIENTS, 2 * seed, prefix="v0-")
        v1 = _patients("patients", REFRESH_PATIENTS, 2 * seed + 1, prefix="v1-")
        return Inputs([v0], v0, v1)
    raise ValueError(f"unknown workload {workload!r}")


# -- the unit and its callers ---------------------------------------------------


class OperatorBlobStore(MemoryBlobStore):
    """In-memory blobs the storage operator garbage-collects by generation.

    `refresh` re-provisions one name about a hundred times a run. Without
    dropping superseded versions the store, and with it peak RSS, would grow
    with how fast provisioning is. The store knows nothing of what blobs hold:
    a generation is the set of addresses put() returned between two calls to
    `drop_superseded`.
    """

    def __init__(self):
        super().__init__()
        self._previous: set = set()
        self._current: set = set()

    def put(self, data: bytes) -> str:
        address = super().put(data)
        self._current.add(address)
        return address

    def drop_superseded(self) -> None:
        """Close the current generation and drop what only the one before it wrote."""
        for address in self._previous - self._current:
            del self._blobs[address]
        self._previous, self._current = self._current, set()


@dataclass
class Call:
    """One request as the caller saw it."""

    kind: str  # "provision", "decision" or "denied"
    dataset: Dataset
    ticket: str = ""
    build_ns: int = 0
    due_ns: int = 0
    submit_ns: int = 0
    awaited_ns: int = 0
    done_ns: int = 0
    body: Optional[dict] = None
    error: Optional[str] = None
    response_bytes: int = 0
    decided_records: int = 0
    # the response was collected and checked; until then the call is not ok
    completed: bool = False
    refused: bool = False
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return self.completed and not self.refused and not self.wrong and (
            self.error is None or self.kind == "denied"
        )

    @property
    def latency_ns(self) -> int:
        return self.done_ns - (self.due_ns or self.submit_ns)


def _session(authority: SigningKeyPair, unit: Ccu, attributes: dict) -> ClientSession:
    key = SigningKeyPair.generate()
    now = utcnow()
    certificate = issue_certificate(
        authority,
        subject="bench-caller",
        attributes=attributes,
        subject_verify_key=key.verify_key,
        not_before=now - timedelta(minutes=5),
        not_after=now + timedelta(days=1),
    )
    session = ClientSession(certificate, key, authority.verify_key)
    session.attest(unit.evidence(), unit.measurement)
    return session


class Stack:
    """A booted, deployed, seeded unit behind a gateway, with attested callers."""

    def __init__(self, bundle: CodeBundle, datasets: Sequence[Dataset]):
        authority = SigningKeyPair.generate()
        self.storage = StorageNode(OperatorBlobStore(), NameRegistry(), NotarizationLog())
        unit = Ccu.boot("bench-unit", authority, secrets.token_bytes(32), self.storage)
        unit.deploy(bundle)
        unit.install_seed(generate_seed())
        self.unit = unit
        self.hub = _session(authority, unit, HUB_ATTRIBUTES)
        self.outsider = _session(authority, unit, OUTSIDER_ATTRIBUTES)
        # Ccu.handle is looked up per request so the traced run can wrap it later
        self.gateway = Gateway(lambda ticket, envelope: unit.handle(ticket, envelope))
        self.provisions = [self.call(Call("provision", ds)) for ds in datasets]

    def close(self) -> None:
        self.gateway.close()

    def prepare(self, call: Call) -> tuple:
        session = self.outsider if call.kind == "denied" else self.hub
        started = clock()
        if call.kind == "provision":
            built = session.build_request("provision", call.dataset.payload)
        else:
            built = session.build_request(
                "decision", {"funcName": call.dataset.func, "dataName": call.dataset.name}
            )
        call.build_ns = clock() - started
        return built

    def submit(self, call: Call, envelope) -> None:
        call.submit_ns = clock()
        try:
            call.ticket = self.gateway.submit(envelope)
        except QueueFullError:
            call.refused = True

    def collect(self, call: Call, key: bytes) -> None:
        """Wait for the response, open it and check it against the oracle.

        Any exception ends up on the call as an error, so a failure in one
        request never stops the loop or the collector thread that waits.
        """
        try:
            response = self.gateway.await_response(call.ticket, timeout=CALL_TIMEOUT_S)
            call.awaited_ns = clock()
            if response.body is not None:
                call.response_bytes = len(response.body.body)
            try:
                call.body = ClientSession.open_response(response, key)
            except GatewayError as exc:
                call.error = str(exc)
            call.done_ns = clock()
            check(call)
        except Exception as exc:
            call.error = f"{type(exc).__name__}: {exc}"
            call.body = None
            call.wrong = True
        call.completed = True

    def call(self, call: Call) -> Call:
        """Closed-loop round trip: build, submit, wait, open, check."""
        envelope, key = self.prepare(call)
        self.submit(call, envelope)
        if not call.refused:
            self.collect(call, key)
        return call


def check(call: Call) -> None:
    """Mark the call wrong when its answer differs from the oracle's.

    The oracle expects a body from every provision and decision and the
    canonical denial for every refused caller, so any other error is a wrong
    answer too. A checked decision keeps only its record count: holding every
    response would grow the heap the collector scans and slow later requests.
    """
    ds = call.dataset
    if call.kind == "denied":
        call.wrong = call.error != REJECT_POLICY
    elif call.error is not None:
        call.wrong = True
    elif call.kind == "provision":
        n = len(ds.records)
        call.wrong = not (
            call.body.get("dataName") == ds.name
            and call.body["slim"]["records"] == n
            and call.body["full"]["records"] == n
        )
    else:
        results = call.body.get("results")
        call.body = None
        if results != ds.expected:
            try:
                got = {r["recordId"]: (r["outcome"], r["values"]) for r in results}
            except (KeyError, TypeError):
                got = None
            call.wrong = got != ds.by_id or len(results) != len(ds.expected)
        if not call.wrong:
            call.decided_records = len(results)


# -- timed loops ----------------------------------------------------------------


@dataclass
class Phase:
    """The calls of one timed phase, its wall-clock span and its probes.

    `harness_ns` is the benchmark's own work inside the span (probes, garbage
    collecting superseded blobs, folding spans), left out of `seconds`.
    `probes` are (start, end) of the probes timed between requests, in order.
    """

    calls: List[Call]
    start_ns: int
    end_ns: int
    harness_ns: int = 0
    probes: List[tuple] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns - self.harness_ns) / 1e9

    def reference_ms(self, calls: Sequence[Call]) -> List[float]:
        """The calls' latencies rescaled to the reference machine speed, by
        the last probe that ended before each started and the first that
        started after it ended."""
        starts = [start for start, _ in self.probes]
        ends = [end for _, end in self.probes]
        rescaled = []
        for call in calls:
            before = bisect.bisect_right(ends, call.due_ns or call.submit_ns) - 1
            after = bisect.bisect_left(starts, call.done_ns)
            near = [self.probes[i] for i in (before, after) if 0 <= i < len(self.probes)]
            rescaled.append(at_reference(call.latency_ns, near))
        return rescaled


def closed_loop(stack: Stack, inputs: Inputs, workload: str, seconds: float,
                between: Callable[[], None]) -> Phase:
    """One caller sending its next request when the last one has returned.

    A probe runs before the first request and after every round.
    """
    calls: List[Call] = []
    harness_ns = 0
    if workload == "refresh":
        versions = [inputs.primary, inputs.alternate]
        current = 0
        # the set-up's provision is the first generation
        stack.storage.blobs.drop_superseded()
    probes = [probe()]
    start = clock()
    deadline = start + int(seconds * 1e9)
    while clock() < deadline:
        if workload == "refresh":
            current = 1 - current
            calls.append(stack.call(Call("provision", versions[current])))
            started = clock()
            stack.storage.blobs.drop_superseded()
            harness_ns += clock() - started
            calls.append(stack.call(Call("decision", versions[current])))
        else:
            calls.append(stack.call(Call("decision", inputs.primary)))
        started = clock()
        between()
        probes.append(probe())
        harness_ns += clock() - started
    return Phase(calls, start, clock(), harness_ns, probes)


def mixed_plan(rng: random.Random, inputs: Inputs, count: int, seconds: float) -> List[Call]:
    """A seeded Poisson schedule: exact mix shares, arrival times uniform.

    Given its count, a Poisson process on [0, seconds] places arrivals
    uniformly, so fixing the count keeps the offered load identical across
    seeds while the arrival pattern varies.
    """
    centers, carriers, patients = inputs.datasets
    n_large = round(count * MIXED_SHARE_LARGE)
    n_denied = round(count * MIXED_SHARE_DENIED)
    n_small = count - n_large - n_denied
    plan = [Call("decision", patients) for _ in range(n_large)]
    plan += [Call("denied", (centers, carriers)[i % 2]) for i in range(n_denied)]
    plan += [Call("decision", (centers, carriers)[i % 2]) for i in range(n_small)]
    rng.shuffle(plan)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    for call, offset in zip(plan, offsets):
        call.due_ns = int(offset * 1e9)
    return plan


def open_loop(stack: Stack, plan: List[Call]) -> Phase:
    """Send on schedule from this thread; one collector thread waits for replies.

    The sender probes while the unit is idle: once the last request sent has
    been collected (the collector takes them in order), if the next one is
    due later than PROBE_GAP_NS from now, so that the probe delays no request.
    """
    built = [stack.prepare(call) for call in plan]
    pending: "queue.SimpleQueue" = queue.SimpleQueue()
    collected = threading.Event()

    def collector() -> None:
        while True:
            item = pending.get()
            if item is None:
                return
            stack.collect(*item)
            collected.set()

    thread = threading.Thread(target=collector, name="bench-collector")
    thread.start()
    probes = [probe()]
    start = clock()
    last = None
    try:
        for call, (envelope, key) in zip(plan, built):
            call.due_ns += start
            while last is not None and not (last.completed or last.refused):
                remaining = call.due_ns - clock()
                if remaining <= 0:
                    break
                collected.wait(remaining / 1e9)
                collected.clear()
            else:  # nothing in flight
                if call.due_ns - clock() > PROBE_GAP_NS:
                    probes.append(probe())
            delay = call.due_ns - clock()
            if delay > 0:
                time.sleep(delay / 1e9)
            stack.submit(call, envelope)
            if not call.refused:
                pending.put((call, key))
            last = call
    finally:
        pending.put(None)
        thread.join()
    end = clock()
    probes.append(probe())
    return Phase(plan, start, end, 0, probes)


# -- one run -----------------------------------------------------------------------


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Run:
    """A workload's inputs, its set-ups and the unit that serves the timed phase.

    `setup_s` holds each set-up's time rescaled to the reference machine
    speed by the probes timed just before and just after it; `setup_raw_s`
    the wall times.
    """

    inputs: Inputs
    bundle: CodeBundle
    setup_s: List[float] = field(default_factory=list)
    setup_raw_s: List[float] = field(default_factory=list)
    setup_provisions: List[Call] = field(default_factory=list)
    stack: Optional[Stack] = None

    def set_up_once(self) -> Stack:
        """Boot, deploy, seed, attest and provision from scratch, timed.

        A full collection first gives every set-up the same heap to start from.
        """
        gc.collect()
        before = probe()
        started = clock()
        stack = Stack(self.bundle, self.inputs.datasets)
        elapsed = clock() - started
        after = probe()
        self.setup_s.append(at_reference(elapsed, (before, after)) / 1e3)
        self.setup_raw_s.append(elapsed / 1e9)
        self.setup_provisions += stack.provisions
        return stack

    def set_up_after(self) -> None:
        """The set-ups after the timed phase; each unit is closed at once."""
        for _ in range(SETUPS_AFTER):
            self.set_up_once().close()


def set_up(workload: str, seed: int) -> Run:
    """Generate inputs and the oracle, then set the unit up several times.

    The last set-up serves the timed phase.
    """
    run = Run(make_inputs(workload, seed), code_bundle())
    for _ in range(SETUPS_BEFORE):
        if run.stack is not None:
            run.stack.close()
        run.stack = run.set_up_once()
    return run


def timed_phase(run: Run, workload: str, seed: int, seconds: float, half: int,
                between: Callable[[], None] = lambda: None) -> Phase:
    """Run the workload for `seconds`; `half` numbers the phases of one run."""
    if workload != "mixed":
        return closed_loop(run.stack, run.inputs, workload, seconds, between)
    rng = random.Random(f"mixed/{seed}/{half}")
    count = round(MIXED_RATE_PER_S * seconds)
    return open_loop(run.stack, mixed_plan(rng, run.inputs, count, seconds))
