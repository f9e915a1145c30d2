"""Acceptance gate: one verdict line per advertised guarantee.

Each test prints ``criterion NN <label>: PASS|FAIL`` (run pytest with -s to
see the lines for passing criteria too) and then asserts, so a red criterion
shows up both in the verdict line and in the pytest summary.
"""

import dataclasses
import json
import random
import threading
import time
from datetime import timedelta

from conftest import standard_bundle

from confidec.bench.harness import BenchConfig, linear_fit, run_benchmark
from confidec.bench.vax import (
    VAX_ROLES,
    VaxSpec,
    cohort_of_id,
    decision_batches,
    generate_vax,
)
from confidec.crypto.aead import ae_decrypt, ae_encrypt, open_wire, seal_wire
from confidec.crypto.certs import issue_certificate
from confidec.crypto.keys import SigningKeyPair, derive_record_key
from confidec.dmn.engine import decide_all
from confidec.dmn.tables import record_to_obj
from confidec.enclave.attestation import issue_channel_certificate, verify_ccu
from confidec.enclave.ccu import exchange_seed
from confidec.errors import (
    AuthenticationFailure,
    ChannelCertificateError,
    ReportError,
    UnitCertificateError,
)
from confidec.fixtures import load_patient_aggregations, load_table
from confidec.gateway.client import ClientSession
from confidec.gateway.queue import Gateway
from confidec.storage.chain import NotarizationLog
from confidec.storage.store import blob_address
from confidec.util import utcnow

FUNC_FOR_ROLE = {
    "Patient": "PatientPrioritizationWithAggr",
    "VaccinationCenter": "Restock",
    "Carrier": "ChooseCarrier",
}

# one output string per rule, keyed by the cohort tag that triggers the rule
GOLDEN_OUTPUTS = {
    "Patient": {"r1": "High", "r2": "Medium", "r3": "Low", "r4": "Ineligible"},
    "VaccinationCenter": {
        "r1": "Immediate",
        "r2": "Needed soon",
        "r3": "Needed",
        "r4": "No need",
        "r5": "Medium priority",
        "r6": "Lower priority",
    },
    "Carrier": {
        "r1": "Rapid Logistics Inc.",
        "r2": "PrimeWay Haulage",
        "r3": "Atlas Cargo Express",
        "r4": "SkyBridge Freight",
        "r5": "Global Freight Solutions",
        "r6": "Evergreen Transport Co.",
        "r7": "Horizon Cargo Services",
        "r8": "Velocity Transport Ltd.",
        "r9": "BlueLine Logistics",
        "r10": "Not Eligible",
    },
}


def _verdict(num, label, problems, elapsed, budget=None):
    if budget is not None and elapsed > budget:
        problems.append(f"took {elapsed:.2f}s, budget is {budget:.0f}s")
    status = "FAIL" if problems else "PASS"
    print(f"criterion {num:02d} {label}: {status} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num:02d} {label}: " + "; ".join(problems)


def _expect(problems, exc_type, fn, label):
    try:
        fn()
    except exc_type:
        return
    except Exception as exc:  # wrong error class is as bad as no error
        problems.append(f"{label}: raised {type(exc).__name__} instead of {exc_type.__name__}")
        return
    problems.append(f"{label}: accepted instead of raising {exc_type.__name__}")


# --- 1: golden decisions ----------------------------------------------------


def test_criterion_01_golden_decisions():
    start = time.perf_counter()
    problems = []

    table = load_table(FUNC_FOR_ROLE["Patient"])
    specs = load_patient_aggregations()
    decided = {}
    for batch in decision_batches("Patient", generate_vax(VaxSpec("Patient", 20, seed=11))).values():
        for record, result in zip(batch, decide_all(table, batch, specs)):
            decided.setdefault(cohort_of_id(record.id), result)
    for tag, want in GOLDEN_OUTPUTS["Patient"].items():
        got = decided.get(tag)
        if got is None or got.outcome != "decided" or got.values != (want,):
            problems.append(f"Patient {tag}: wanted {want!r}, got {got}")

    for role, count in (("VaccinationCenter", 28), ("Carrier", 44)):
        table = load_table(FUNC_FOR_ROLE[role])
        records = generate_vax(VaxSpec(role, count, seed=11))
        decided = {}
        for record, result in zip(records, decide_all(table, records)):
            decided.setdefault(cohort_of_id(record.id), result)
        for tag, want in GOLDEN_OUTPUTS[role].items():
            got = decided.get(tag)
            if got is None or got.outcome != "decided" or got.values != (want,):
                problems.append(f"{role} {tag}: wanted {want!r}, got {got}")

    _verdict(1, "golden decisions", problems, time.perf_counter() - start, budget=1.0)


# --- 2: oracle equivalence ---------------------------------------------------


def test_criterion_02_oracle_equivalence(make_unit, make_session):
    start = time.perf_counter()
    problems = []
    unit = make_unit()
    session = make_session(unit)
    specs = load_patient_aggregations()
    rng = random.Random(202)
    checked = 0

    for i in range(100):
        role = VAX_ROLES[i % 3]
        records = generate_vax(VaxSpec(role, rng.randrange(25, 201), seed=1000 + i))
        name = f"acc/ds-{i:03d}"

        envelope, _ = session.build_request("provision", {
            "dataName": name,
            "structure": role,
            "records": [record_to_obj(r) for r in records],
        })
        response = unit.handle(f"prov-{i}", envelope)
        if response.status != "ok":
            problems.append(f"dataset {i} ({role}): provisioning failed: {response.error}")
            continue

        envelope, key = session.build_request("decision", {
            "funcName": FUNC_FOR_ROLE[role], "dataName": name,
        })
        response = unit.handle(f"dec-{i}", envelope)
        if response.status != "ok":
            problems.append(f"dataset {i} ({role}): decision failed: {response.error}")
            continue
        answer = ClientSession.open_response(response, key)

        oracle = decide_all(
            load_table(FUNC_FOR_ROLE[role]), records, specs if role == "Patient" else ()
        )

        got = answer["results"]
        if len(got) != len(records):
            problems.append(f"dataset {i} ({role}): {len(got)} results for {len(records)} records")
            continue
        diverged = [
            entry["recordId"]
            for entry, record, result in zip(got, records, oracle)
            if entry["recordId"] != record.id
            or entry["outcome"] != result.outcome
            or entry["values"] != list(result.values)
        ]
        if diverged:
            problems.append(f"dataset {i} ({role}): diverges at {diverged[:3]}")
        checked += len(records)

    if not problems and checked == 0:
        problems.append("no records were compared")
    _verdict(2, "oracle equivalence", problems, time.perf_counter() - start, budget=60.0)


# --- 3: scaling shape ---------------------------------------------------------


def test_criterion_03_scaling_shape():
    start = time.perf_counter()
    problems = []

    rows = run_benchmark(BenchConfig("scaleRecords", records=16000, repetitions=5))
    if [r.records for r in rows] != [1000, 2000, 4000, 8000, 16000]:
        problems.append(f"record ladder came out as {[r.records for r in rows]}")
    if any(r.columns != 7 for r in rows):
        problems.append("record scaling did not hold columns at 7")
    fit = linear_fit([r.records for r in rows], [r.wall_time_ms for r in rows])
    if fit.r2 < 0.95:
        problems.append(f"time vs records fits linearly with r2={fit.r2:.4f}")

    rows = run_benchmark(BenchConfig("scaleRules", rules=1200, repetitions=5))
    if [r.rules for r in rows] != [100, 300, 600, 1200]:
        problems.append(f"rule ladder came out as {[r.rules for r in rows]}")
    if len({r.records for r in rows}) != 1:
        problems.append("rule scaling did not hold the record count fixed")
    fit = linear_fit([r.rules for r in rows], [r.wall_time_ms for r in rows])
    if fit.r2 < 0.95:
        problems.append(f"time vs rules fits linearly with r2={fit.r2:.4f}")

    _verdict(3, "scaling shape", problems, time.perf_counter() - start)


# --- 5: memory saving -----------------------------------------------------------


def test_criterion_05_memory_saving():
    start = time.perf_counter()
    problems = []
    rows = run_benchmark(BenchConfig("memorySaving", records=1000))
    sizes = {r.mode: r.peak_mem_bytes for r in rows}
    for role in VAX_ROLES:
        full = sizes.get(f"{role}/full", 0)
        slim = sizes.get(f"{role}/slim", 0)
        if full <= 0 or slim <= 0:
            problems.append(f"{role}: missing stored-byte figures")
        elif slim > 0.30 * full:
            problems.append(f"{role}: slim keeps {slim / full:.1%} of the full bytes")
    _verdict(5, "memory saving", problems, time.perf_counter() - start)


# --- 6: crypto property suite ----------------------------------------------------


def test_criterion_06_crypto_properties():
    start = time.perf_counter()
    problems = []
    rng = random.Random(606)

    broken = 0
    for _ in range(10_000):
        key = rng.randbytes(32)
        message = rng.randbytes(rng.randrange(0, 65))
        aad = rng.randbytes(rng.randrange(0, 17))
        if ae_decrypt(key, ae_encrypt(key, message, aad=aad), aad=aad) != message:
            broken += 1
    if broken:
        problems.append(f"{broken}/10000 round trips broke")

    undetected = 0
    for _ in range(10_000):
        key = rng.randbytes(32)
        wire = bytearray(seal_wire(key, rng.randbytes(rng.randrange(1, 65))))
        bit = rng.randrange(len(wire) * 8)
        wire[bit // 8] ^= 1 << (bit % 8)
        try:
            open_wire(key, bytes(wire))
            undetected += 1
        except AuthenticationFailure:
            pass
    if undetected:
        problems.append(f"{undetected}/10000 single-bit flips went undetected")

    seed = rng.randbytes(32)
    keys = {derive_record_key(seed, i.to_bytes(16, "big")) for i in range(100_000)}
    if len(keys) != 100_000:
        problems.append(f"only {len(keys)}/100000 record keys are distinct")

    crossed = 0
    for _ in range(1_000):
        ct = ae_encrypt(rng.randbytes(32), rng.randbytes(32))
        try:
            ae_decrypt(rng.randbytes(32), ct)
            crossed += 1
        except AuthenticationFailure:
            pass
    if crossed:
        problems.append(f"{crossed}/1000 ciphertexts opened under the wrong key")

    _verdict(6, "crypto property suite", problems, time.perf_counter() - start, budget=120.0)


# --- 7: attestation gate -----------------------------------------------------------


def test_criterion_07_attestation_gate(authority, make_unit):
    start = time.perf_counter()
    problems = []
    unit = make_unit()

    try:
        attrs = verify_ccu(unit.evidence(), authority.verify_key, unit.measurement)
        if attrs.get("Role") != "CCU":
            problems.append(f"honest evidence yields attributes {attrs}")
    except Exception as exc:
        problems.append(f"honest evidence rejected: {exc}")

    now = utcnow()
    rogue_cert = issue_certificate(
        SigningKeyPair.generate(),
        subject=unit.name,
        attributes={"Role": "CCU", "Unit": unit.name},
        subject_verify_key=SigningKeyPair.generate().verify_key,
        not_before=now - timedelta(minutes=1),
        not_after=now + timedelta(days=365),
    )
    tampered = dataclasses.replace(unit.evidence(), unit_cert=rogue_cert)
    _expect(
        problems, UnitCertificateError,
        lambda: verify_ccu(tampered, authority.verify_key, unit.measurement),
        "rogue authority",
    )

    forged = issue_channel_certificate(
        SigningKeyPair.generate(), unit.name, unit.channel_certificate.ka_public
    )
    tampered = dataclasses.replace(unit.evidence(), channel_cert=forged)
    _expect(
        problems, ChannelCertificateError,
        lambda: verify_ccu(tampered, authority.verify_key, unit.measurement),
        "forged channel certificate",
    )

    _expect(
        problems, ReportError,
        lambda: verify_ccu(unit.evidence(), authority.verify_key, b"\x00" * 32),
        "wrong measurement",
    )

    source = make_unit(name="unit-src")
    mismatched = make_unit(
        name="unit-bad", seed=False,
        bundle=dataclasses.replace(standard_bundle(), engine_tag="rogue"),
    )
    _expect(
        problems, ReportError,
        lambda: exchange_seed(source, mismatched),
        "seed exchange across different code",
    )
    if mismatched.has_seed:
        problems.append("aborted seed exchange still moved the seed")

    twin = make_unit(name="unit-twin", seed=False)
    exchange_seed(source, twin)
    if twin.channel_certificate.ka_public != source.channel_certificate.ka_public:
        problems.append("seeded units disagree on the key-agreement public key")

    _verdict(7, "attestation gate", problems, time.perf_counter() - start)


# --- 8: policy gate ------------------------------------------------------------------


def test_criterion_08_policy_gate(make_unit, make_session, make_cert, authority):
    start = time.perf_counter()
    problems = []
    unit = make_unit()
    hub = make_session(unit)

    records = [record_to_obj(r) for r in generate_vax(VaxSpec("Patient", 8, seed=8))]
    envelope, _ = hub.build_request("provision", {
        "dataName": "vax/patients", "structure": "Patient", "records": records,
    })
    assert unit.handle("prov", envelope).status == "ok"

    request = {"funcName": "PatientPrioritizationWithAggr", "dataName": "vax/patients"}
    envelope, key = hub.build_request("decision", request)
    response = unit.handle("warm", envelope)
    if response.status != "ok" or "DecryptData" not in unit.last_trace:
        problems.append("authorized hub request did not reach the data")

    for role in ("Patient", "Carrier", "VaccinationCenter"):
        session = make_session(unit, attrs={"Role": role, "Country": "Italy"})
        envelope, _ = session.build_request("decision", request)
        response = unit.handle(f"deny-{role}", envelope)
        if response.status != "error" or response.error != "Access policy not satisfied":
            problems.append(f"{role} attributes got {response.status}/{response.error!r}")
        if "DecryptData" in unit.last_trace:
            problems.append(f"{role} attributes still decrypted the data")

    rogue_cert, rogue_key = make_cert(issuer=SigningKeyPair.generate())
    rogue = ClientSession(rogue_cert, rogue_key, authority.verify_key)
    rogue.attest(unit.evidence(), unit.measurement)
    envelope, _ = rogue.build_request("decision", request)
    response = unit.handle("deny-cert", envelope)
    if response.status != "error" or response.error != "Invalid certificate":
        problems.append(f"rogue certificate got {response.status}/{response.error!r}")
    if "DecryptData" in unit.last_trace:
        problems.append("rogue certificate still decrypted the data")

    _verdict(8, "policy gate", problems, time.perf_counter() - start)


# --- 9: gateway contract ---------------------------------------------------------------


def test_criterion_09_gateway_contract(make_unit, make_session):
    start = time.perf_counter()
    problems = []
    unit = make_unit()
    session = make_session(unit)
    gateway = Gateway(unit.handle, capacity=128)
    try:
        records = generate_vax(VaxSpec("VaccinationCenter", 20, seed=9))
        objs = [record_to_obj(r) for r in records]
        envelope, _ = session.build_request("provision", {
            "dataName": "vax/centers", "structure": "VaccinationCenter", "records": objs,
        })
        gateway.await_response(gateway.submit(envelope), 30)

        prepared = [
            session.build_request("decision", {"funcName": "Restock", "dataName": "vax/centers"})
            for _ in range(100)
        ]
        submitted = []
        submit_lock = threading.Lock()
        answers = {}
        snapshots = []

        def run(i, envelope, key):
            with submit_lock:  # pins down the queue-insertion order
                ticket = gateway.submit(envelope)
                submitted.append(ticket)
            answers[i] = ClientSession.open_response(gateway.await_response(ticket, 60), key)

        threads = [
            threading.Thread(target=run, args=(i, env, key))
            for i, (env, key) in enumerate(prepared)
        ]
        for t in threads:
            t.start()
        for _ in range(20):
            snapshots.append(gateway.debug_snapshot())
            time.sleep(0.005)
        for t in threads:
            t.join()
        snapshots.append(gateway.debug_snapshot())

        if len(answers) != 100:
            problems.append(f"only {len(answers)}/100 submitters got an answer")
        short = [i for i, a in answers.items() if len(a["results"]) != 20]
        if short:
            problems.append(f"submitters {short[:3]} got truncated results")

        handled = [h["ticket"] for h in unit.handled]
        if handled[1:] != submitted:  # first handled entry is the provisioning call
            problems.append("handling order differs from submission order")
        spans = sorted((h["start"], h["end"]) for h in unit.handled)
        if not all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:])):
            problems.append("two requests overlapped inside the unit")

        probes = (
            objs[0]["id"].encode(),
            next(iter(objs[0]["fields"])).encode(),
            b"funcName",
            b"records",
        )
        for snapshot in snapshots:
            leaked = [p for p in probes if p in snapshot]
            if leaked:
                problems.append(f"gateway state leaks {leaked}")
                break
    finally:
        gateway.close()

    _verdict(9, "gateway contract", problems, time.perf_counter() - start)


# --- 10: notarization -----------------------------------------------------------------


def test_criterion_10_notarization(tmp_path):
    start = time.perf_counter()
    problems = []
    path = tmp_path / "chain.jsonl"
    log = NotarizationLog(path)
    for i in range(1_000):
        log.notarize(f"vax/ds-{i:04d}", blob_address(i.to_bytes(4, "big")))
    if log.verify_chain() is not None:
        problems.append("pristine chain fails verification")

    pristine = path.read_text().splitlines()
    rng = random.Random(1010)
    fields = ("name", "address", "prevHash", "entryHash")
    for trial in range(100):
        index = rng.randrange(1_000)
        field = fields[trial % len(fields)]
        obj = json.loads(pristine[index])
        if field == "name":
            obj[field] = obj[field] + "x"
        else:
            first = "1" if obj[field][0] == "0" else "0"
            obj[field] = first + obj[field][1:]
        lines = list(pristine)
        lines[index] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        reported = NotarizationLog(path).verify_chain()
        if reported != index:
            problems.append(
                f"trial {trial}: mutated {field} of entry {index}, verification said {reported}"
            )
            break

    _verdict(10, "notarization", problems, time.perf_counter() - start)
