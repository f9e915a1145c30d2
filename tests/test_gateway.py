"""Wire envelopes and the bounded FIFO gateway."""

import dataclasses
import json
import threading
import time

import pytest

from conftest import BUNDLED_FUNCS, disk_full
from confidec.bench.vax import VaxSpec, expected_outcome, generate_vax
from confidec.crypto.aead import ae_encrypt
from confidec.dmn.tables import record_to_obj
from confidec.enclave.measurement import CodeBundle
from confidec.errors import GatewayTimeoutError, QueueFullError, UnknownTicketError
from confidec.fixtures import load_patient_aggregation_docs, load_policy_text, load_table_doc
from confidec.gateway.client import ClientSession
from confidec.gateway.wire import (
    REQUEST_TYPES,
    RequestEnvelope,
    ResponseEnvelope,
    envelope_signing_bytes,
)
from confidec.storage.node import StorageNode


def _center_objs(count):
    return [record_to_obj(r) for r in generate_vax(VaxSpec("VaccinationCenter", count))]


def _submit(gateway, session, request_type, payload):
    envelope, key = session.build_request(request_type, payload)
    ticket = gateway.submit(envelope)
    return ticket, key


# --- wire ------------------------------------------------------------------


def test_request_envelope_shape_is_validated(make_unit, make_session):
    session = make_session(make_unit())
    envelope, _ = session.build_request("decision", {})
    with pytest.raises(ValueError, match="request type"):
        RequestEnvelope("gossip", envelope.client_cert, envelope.ephemeral_pub,
                        envelope.ephemeral_sig, envelope.payload)
    with pytest.raises(ValueError, match="32 bytes"):
        RequestEnvelope("decision", envelope.client_cert, b"short",
                        envelope.ephemeral_sig, envelope.payload)
    assert REQUEST_TYPES == ("provision", "decision")


def test_response_envelope_shape_is_validated():
    with pytest.raises(ValueError, match="status"):
        ResponseEnvelope(correlation_id="t", status="maybe")
    with pytest.raises(ValueError, match="body"):
        ResponseEnvelope(correlation_id="t", status="ok")
    with pytest.raises(ValueError, match="error message"):
        ResponseEnvelope(correlation_id="t", status="error")


def test_signing_bytes_bind_type_and_key():
    views = {
        envelope_signing_bytes("provision", b"\x01" * 32),
        envelope_signing_bytes("decision", b"\x01" * 32),
        envelope_signing_bytes("decision", b"\x02" * 32),
    }
    assert len(views) == 3


# --- gateway end to end -----------------------------------------------------


def test_provision_then_decide_through_the_gateway(make_unit, make_session, make_gateway):
    unit = make_unit()
    session = make_session(unit)
    gateway = make_gateway(unit.handle)

    ticket, key = _submit(gateway, session, "provision", {
        "dataName": "vax/centers", "structure": "VaccinationCenter",
        "records": _center_objs(30),
    })
    receipt = ClientSession.open_response(gateway.await_response(ticket, 30), key)
    assert receipt["slim"]["records"] == 30

    ticket, key = _submit(gateway, session, "decision", {
        "funcName": "Restock", "dataName": "vax/centers",
    })
    answer = ClientSession.open_response(gateway.await_response(ticket, 30), key)
    assert answer["funcName"] == "Restock"
    assert len(answer["results"]) == 30
    for entry in answer["results"]:
        expected = expected_outcome("VaccinationCenter", entry["recordId"])
        if expected == "noMatch":
            assert entry["outcome"] == "noMatch" and entry["values"] == []
        else:
            assert entry["outcome"] == "decided" and entry["values"] == [expected]


def test_responses_follow_submission_order(make_gateway):
    processed = []

    def slow_handler(ticket, envelope):
        time.sleep(0.002)
        processed.append(ticket)
        return ResponseEnvelope(correlation_id=ticket, status="error", error="stub")

    gateway = make_gateway(slow_handler)
    dummy = _dummy_envelope()
    tickets = [gateway.submit(dummy) for _ in range(10)]
    for ticket in tickets:
        gateway.await_response(ticket, 10)
    assert processed == tickets


def test_concurrent_submitters_all_get_answers(make_unit, make_session, make_gateway):
    unit = make_unit()
    session = make_session(unit)
    gateway = make_gateway(unit.handle)
    ticket, key = _submit(gateway, session, "provision", {
        "dataName": "vax/centers", "structure": "VaccinationCenter",
        "records": _center_objs(10),
    })
    gateway.await_response(ticket, 30)

    prepared = [
        session.build_request("decision", {"funcName": "Restock", "dataName": "vax/centers"})
        for _ in range(16)
    ]
    answers = {}

    def run(i, envelope, key):
        ticket = gateway.submit(envelope)
        answers[i] = ClientSession.open_response(gateway.await_response(ticket, 30), key)

    threads = [
        threading.Thread(target=run, args=(i, env, key))
        for i, (env, key) in enumerate(prepared)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(answers) == 16
    assert all(len(a["results"]) == 10 for a in answers.values())

    # the unit handled them strictly one at a time
    spans = sorted((h["start"], h["end"]) for h in unit.handled)
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))


def _dummy_envelope():
    """A syntactically valid envelope no unit could ever open."""
    from confidec.crypto.aead import ae_encrypt
    from confidec.crypto.certs import issue_certificate
    from confidec.crypto.keys import SigningKeyPair
    from confidec.util import utcnow
    from datetime import timedelta

    key = SigningKeyPair.generate()
    cert = issue_certificate(
        key, "nobody", {}, key.verify_key, utcnow(), utcnow() + timedelta(days=1)
    )
    return RequestEnvelope(
        request_type="decision",
        client_cert=cert,
        ephemeral_pub=b"\x05" * 32,
        ephemeral_sig=b"sig",
        payload=ae_encrypt(bytes(32), b"{}", aad=b"decision"),
    )


def test_queue_capacity_is_enforced(make_gateway):
    started = threading.Event()
    release = threading.Event()

    def blocking_handler(ticket, envelope):
        started.set()
        release.wait(10)
        return ResponseEnvelope(correlation_id=ticket, status="error", error="stub")

    gateway = make_gateway(blocking_handler, capacity=1)
    dummy = _dummy_envelope()
    try:
        first = gateway.submit(dummy)
        assert started.wait(10)  # worker is busy with the first request
        second = gateway.submit(dummy)  # fills the single queue slot
        with pytest.raises(QueueFullError):
            gateway.submit(dummy)
    finally:
        release.set()
    gateway.await_response(first, 10)
    gateway.await_response(second, 10)


def test_unknown_and_spent_tickets_raise(make_gateway):
    gateway = make_gateway(
        lambda t, e: ResponseEnvelope(correlation_id=t, status="error", error="stub")
    )
    with pytest.raises(UnknownTicketError):
        gateway.await_response("никто", 1)
    ticket = gateway.submit(_dummy_envelope())
    gateway.await_response(ticket, 10)
    with pytest.raises(UnknownTicketError):
        gateway.await_response(ticket, 1)  # responses are handed over once


def test_waiting_times_out(make_gateway):
    release = threading.Event()

    def blocking_handler(ticket, envelope):
        release.wait(10)
        return ResponseEnvelope(correlation_id=ticket, status="error", error="stub")

    gateway = make_gateway(blocking_handler)
    ticket = gateway.submit(_dummy_envelope())
    try:
        with pytest.raises(GatewayTimeoutError):
            gateway.await_response(ticket, timeout=0.05)
    finally:
        release.set()
    gateway.await_response(ticket, 10)  # still retrievable after the timeout


def test_closed_gateway_rejects_submissions(make_gateway):
    gateway = make_gateway(
        lambda t, e: ResponseEnvelope(correlation_id=t, status="error", error="stub")
    )
    gateway.close()
    gateway.close()  # idempotent
    with pytest.raises(QueueFullError, match="closed"):
        gateway.submit(_dummy_envelope())


def test_crashing_handler_becomes_an_error_response(make_gateway):
    def broken_handler(ticket, envelope):
        raise RuntimeError("SECRET-MARKER")

    gateway = make_gateway(broken_handler)
    ticket = gateway.submit(_dummy_envelope())
    deadline = time.monotonic() + 10
    while b'"results":{}' in gateway.debug_snapshot() and time.monotonic() < deadline:
        time.sleep(0.01)
    # the parked response carries no text of the exception
    assert b'"results":{}' not in gateway.debug_snapshot()
    assert b"SECRET-MARKER" not in gateway.debug_snapshot()
    response = gateway.await_response(ticket, 10)
    assert response.status == "error"
    assert response.error == "unit failure"


def test_gateway_state_never_holds_plaintext(make_unit, make_session, make_gateway):
    unit = make_unit()
    session = make_session(unit)
    started = threading.Event()
    release = threading.Event()

    def stalling_handler(ticket, envelope):
        started.set()
        release.wait(10)
        return unit.handle(ticket, envelope)

    gateway = make_gateway(stalling_handler, capacity=8)
    # A leaked JSON payload names its fields in quotes, which base64
    # ciphertext never holds; a bare b"Age" turns up in random base64.
    secret_markers = (b"Asthma", b"dataName", b"funcName", b"records", b'"Age')
    payload = {"dataName": "vax/patients", "structure": "Patient",
               "records": [record_to_obj(r) for r in generate_vax(VaxSpec("Patient", 5))]}
    tickets = []
    try:
        for _ in range(3):
            envelope, _ = session.build_request("provision", payload)
            tickets.append(gateway.submit(envelope))
        assert started.wait(10)
        snapshot = gateway.debug_snapshot()
        assert len(snapshot) > 1000  # it does hold the queued envelopes
        for marker in secret_markers:
            assert marker not in snapshot
    finally:
        release.set()
    for ticket in tickets:
        gateway.await_response(ticket, 30)
    # parked responses are ciphertext too
    envelope, _ = session.build_request("provision", payload)
    last = gateway.submit(envelope)
    deadline = time.monotonic() + 10
    while b'"results":{}' in gateway.debug_snapshot() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert b'"results":{}' not in gateway.debug_snapshot()
    for marker in secret_markers:
        assert marker not in gateway.debug_snapshot()
    gateway.await_response(last, 30)


# --- payload shapes ---------------------------------------------------------


def _envelope(session, request_type, payload):
    """A request carrying the payload; bytes are sent as the plaintext itself."""
    if not isinstance(payload, bytes):
        return session.build_request(request_type, payload)[0]
    envelope, key = session.build_request(request_type, None)
    return dataclasses.replace(
        envelope, payload=ae_encrypt(key, payload, aad=request_type.encode())
    )


def _assert_typed_error(unit, session, make_gateway, request_type, payload, echoed, check=""):
    """The unit answers the payload with a typed error envelope whose text
    names the check, both when called directly and behind a gateway, and
    neither the text nor the gateway's state echoes the value."""
    response = unit.handle("t-direct", _envelope(session, request_type, payload))
    assert response.status == "error" and response.body is None
    assert check in response.error
    assert echoed not in response.error

    gateway = make_gateway(unit.handle)
    ticket = gateway.submit(_envelope(session, request_type, payload))
    deadline = time.monotonic() + 30
    while b'"results":{}' in gateway.debug_snapshot() and time.monotonic() < deadline:
        time.sleep(0.01)
    # with the response parked, the state is the ticket and the error text
    snapshot = gateway.debug_snapshot().replace(ticket.encode(), b"")
    assert b'"results":{}' not in snapshot
    assert echoed.encode() not in snapshot
    response = gateway.await_response(ticket, 30)
    assert response.status == "error"
    assert "unit failure" not in response.error
    assert check in response.error
    assert echoed not in response.error


_SHAPES = {
    "decision": {"funcName": str, "dataName": str},
    "provision": {"dataName": str, "structure": str, "records": list},
}
_VALID = {
    "decision": {"funcName": "PatientPrioritizationWithAggr", "dataName": "vax/patients"},
    "provision": {"dataName": "vax/patients", "structure": "Patient", "records": []},
}


def _misshapen_payloads():
    """(request type, payload, refusal): a JSON array, then each key of each
    request type absent, and holding a value of another type."""
    cases = [
        pytest.param(kind, ["SECRET"], "request payload must be an object", id=f"{kind}-array")
        for kind in _SHAPES
    ]
    for kind, shape in _SHAPES.items():
        for key, want in shape.items():
            refusal = f"payload field {key!r} must be a {want.__name__}"
            absent = {k: v for k, v in _VALID[kind].items() if k != key}
            wrong = "SECRET" if want is list else ["SECRET"]
            cases += [
                pytest.param(kind, dict(absent, SECRET="SECRET"), refusal,
                             id=f"{kind}-{key}-absent"),
                pytest.param(kind, dict(_VALID[kind], **{key: wrong}), refusal,
                             id=f"{kind}-{key}-retyped"),
            ]
    return cases


@pytest.mark.parametrize("request_type, payload, check", _misshapen_payloads())
def test_a_payload_of_another_shape_is_a_malformed_request(
    make_unit, make_session, make_gateway, request_type, payload, check
):
    unit = make_unit()
    _assert_typed_error(
        unit, make_session(unit), make_gateway, request_type, payload, "SECRET", check
    )


def test_a_unit_busy_with_a_request_refuses_another(make_unit, make_session, make_gateway):
    """Only the gateway's worker calls `handle`, one request at a time; a
    second call while one runs raises, and a gateway answers it as a unit
    failure."""
    unit = make_unit()
    envelope, _ = make_session(unit).build_request("decision", _VALID["decision"])
    gateway = make_gateway(unit.handle)
    with unit._busy:
        with pytest.raises(RuntimeError, match="two requests at once"):
            unit.handle("t-direct", envelope)
        response = gateway.await_response(gateway.submit(envelope), 30)
    assert (response.status, response.error) == ("error", "unit failure")
    assert unit.handled == []


@pytest.mark.parametrize("request_type", ["decision", "provision"])
def test_a_payload_nested_too_deep_is_a_malformed_request(
    make_unit, make_session, make_gateway, request_type
):
    unit = make_unit()
    _assert_typed_error(
        unit, make_session(unit), make_gateway, request_type, b"[" * 100_000,
        "recursion", "request payload is not JSON",
    )


_PATIENTS = [record_to_obj(r) for r in generate_vax(VaxSpec("Patient", 4))]


@pytest.mark.parametrize("request_type, payload", [
    ("decision", {"funcName": "PatientPrioritizationWithAggr", "dataName": "vax/patients"}),
    ("provision", {"dataName": "vax/patients", "structure": "Patient", "records": _PATIENTS}),
], ids=["decision", "provision"])
def test_a_low_order_ephemeral_key_is_a_malformed_request(
    authority, make_unit, make_cert, make_gateway, request_type, payload
):
    unit = make_unit()
    cert, signing_key = make_cert()
    session = ClientSession(cert, signing_key, authority.verify_key)
    session.attest(unit.evidence(), unit.measurement)
    envelope, _ = session.build_request(request_type, payload)
    # the all-zero point, signed by the caller: X25519 has no shared key for it
    zero = bytes(32)
    envelope = dataclasses.replace(
        envelope,
        ephemeral_pub=zero,
        ephemeral_sig=signing_key.sign(envelope_signing_bytes(request_type, zero)),
    )

    response = unit.handle("t-direct", envelope)
    assert response.status == "error" and response.body is None
    assert response.error == "ephemeral key is unusable"

    gateway = make_gateway(unit.handle)
    response = gateway.await_response(gateway.submit(envelope), 30)
    assert response.status == "error"
    assert response.error == "ephemeral key is unusable"


@pytest.mark.parametrize("request_type, payload, check", [
    ("decision", {"funcName": "SECRET-function", "dataName": "vax/patients"},
     "no deployed function"),
    ("provision", {"dataName": "SECRET-name.full", "structure": "Patient", "records": []},
     "bad dataset name"),
    ("provision", {"dataName": "vax/patients", "structure": "SECRET-structure", "records": []},
     "no deployed function reads structure"),
    ("provision", {"dataName": "vax/patients", "structure": "Patient",
                   "records": [dict(_PATIENTS[0], id="SECRET-id")] * 2},
     "duplicate record id"),
    ("provision", {"dataName": "vax/patients", "structure": "Patient",
                   "records": [{"id": "r1", "fields": {"SECRET-field": ["SECRET-value"]}}]},
     "record field holds an unsupported value type"),
    ("provision", {"dataName": "vax/patients", "structure": "Patient",
                   "records": [{"id": "r1", "fields": {"SECRET-field": float("nan")}}]},
     "record field holds a non-finite number"),
], ids=["function", "dataset", "structure", "record-id", "field-type", "field-nan"])
def test_caller_supplied_names_stay_out_of_error_texts(
    make_unit, make_session, make_gateway, request_type, payload, check
):
    unit = make_unit()
    _assert_typed_error(
        unit, make_session(unit), make_gateway, request_type, payload, "SECRET", check
    )


def test_an_int_too_large_for_a_float_is_refused_without_echoing_it(
    make_unit, make_session, make_gateway
):
    """`math.isfinite` raises OverflowError for such an int: the unit answers
    the typed error, and no run of the value's digits reaches the text or
    the gateway's state."""
    unit = make_unit()
    payload = {"dataName": "vax/patients", "structure": "Patient",
               "records": [*_PATIENTS, {"id": "r-huge", "fields": {"Age": 10**400}}]}
    _assert_typed_error(
        unit, make_session(unit), make_gateway, "provision", payload, "0" * 12,
        "record field holds a non-finite number",
    )


# --- what the storage operator wrote ------------------------------------------

_SECRET_NAME = "SECRET-patients"


def _set_address(manifest):
    manifest["slim"] = "OPERATOR-MARKER"


def _set_structure(manifest):
    manifest["structure"] = "OPERATOR-STRUCT"


def _set_part(manifest):
    manifest["slim"] = ["OPERATOR-PART"]


@pytest.mark.parametrize("rewrite, check", [
    (_set_address, "no blob at"),
    (_set_structure, "the function reads 'Patient'"),
    (_set_part, "stored dataset is malformed"),
    (None, "never published"),
], ids=["address", "structure", "part", "unpublished"])
def test_read_path_errors_echo_no_stored_or_caller_value(
    make_unit, make_session, make_gateway, rewrite, check
):
    unit = make_unit()
    session = make_session(unit)
    envelope, _ = session.build_request(
        "provision", {"dataName": _SECRET_NAME, "structure": "Patient", "records": _PATIENTS}
    )
    assert unit.handle("t-prov", envelope).status == "ok"
    name = _SECRET_NAME
    if rewrite is None:
        name = "SECRET-never-provisioned"
    else:
        manifest = json.loads(unit._storage.fetch(name))
        rewrite(manifest)
        unit._storage.publish(name, json.dumps(manifest).encode())
    payload = {"funcName": "PatientPrioritizationWithAggr", "dataName": name}
    for marker in ("SECRET", "OPERATOR"):
        _assert_typed_error(unit, session, make_gateway, "decision", payload, marker, check)


def test_a_directory_store_refuses_an_operator_address_without_echoing_it(
    make_unit, make_session, make_gateway, tmp_path
):
    unit = make_unit(storage=StorageNode.at_directory(tmp_path))
    session = make_session(unit)
    envelope, _ = session.build_request(
        "provision", {"dataName": _SECRET_NAME, "structure": "Patient", "records": _PATIENTS}
    )
    assert unit.handle("t-prov", envelope).status == "ok"
    manifest = json.loads(unit._storage.fetch(_SECRET_NAME))
    _set_address(manifest)
    unit._storage.publish(_SECRET_NAME, json.dumps(manifest).encode())
    payload = {"funcName": "PatientPrioritizationWithAggr", "dataName": _SECRET_NAME}
    for marker in ("SECRET", "OPERATOR"):
        _assert_typed_error(
            unit, session, make_gateway, "decision", payload, marker, "not a blob address"
        )


def test_a_blob_failing_its_content_check_is_refused_without_echoing_its_address(
    make_unit, make_session, make_gateway
):
    unit = make_unit()
    session = make_session(unit)
    envelope, _ = session.build_request(
        "provision", {"dataName": _SECRET_NAME, "structure": "Patient", "records": _PATIENTS}
    )
    assert unit.handle("t-prov", envelope).status == "ok"
    # the operator keeps bytes under a key of its own and points an entry there
    unit._storage.blobs._blobs["OPERATOR-MARKER"] = b"OPERATOR-bytes"
    manifest = json.loads(unit._storage.fetch(_SECRET_NAME))
    _set_address(manifest)
    unit._storage.publish(_SECRET_NAME, json.dumps(manifest).encode())
    payload = {"funcName": "PatientPrioritizationWithAggr", "dataName": _SECRET_NAME}
    for marker in ("SECRET", "OPERATOR"):
        _assert_typed_error(
            unit, session, make_gateway, "decision", payload, marker, "failed its content check"
        )


@pytest.mark.parametrize("failing", ["blob", "chain"])
def test_a_storage_fault_on_provision_is_a_typed_error_echoing_no_path_or_name(
    make_unit, make_session, make_gateway, tmp_path, failing
):
    """A full disk under the blob put or under the chain line: the unit
    answers a typed error, directly and behind a gateway, and neither the
    text nor the gateway's state holds the store's path or the dataset's
    name; nothing is notarized."""
    unit = make_unit(storage=StorageNode.at_directory(tmp_path / "OPERATOR-store"))
    where = {
        "blob": lambda path: path.parent.name == "blobs",
        "chain": lambda path: path.name == "chain.jsonl",
    }[failing]
    payload = {"dataName": _SECRET_NAME, "structure": "Patient", "records": _PATIENTS}
    with disk_full(where=where):
        for marker in ("SECRET", "OPERATOR"):
            _assert_typed_error(
                unit, make_session(unit), make_gateway, "provision", payload, marker,
                "storage write failed",
            )
    assert len(unit._storage.chain) == 0


# --- errors about the records a caller provisioned ------------------------------

_SECRET_ID = "SECRET-record-id"
# a patient the table's second rule reads up to CurrentMedications, and whom
# both aggregation filters select
_SECRET_FIELDS = {
    "Age": 30, "PreExistingConditions": "Asthma", "PreviousVaccinations": "Influenza",
    "FamilyMedicalHistory": "Diabetes", "ConsentFormSigned": True,
}


def _bundle_whose_sum_filter_skips_the_target():
    """sumAge selects on PreExistingConditions alone, so a selected record
    may lack its target Age."""
    docs = load_patient_aggregation_docs()
    docs[1] = dict(docs[1], filter=[a for a in docs[1]["filter"] if a["field"] != "Age"])
    return CodeBundle.assemble(
        load_policy_text(), [load_table_doc(f) for f in BUNDLED_FUNCS], docs
    )


@pytest.mark.parametrize("fields, bundle, check", [
    (dict(_SECRET_FIELDS), None,
     "field 'CurrentMedications' required by a condition"),
    (dict(_SECRET_FIELDS, CurrentMedications=5), None,
     "field 'CurrentMedications' of a record has the wrong type"),
    ({k: v for k, v in _SECRET_FIELDS.items() if k != "Age"},
     _bundle_whose_sum_filter_skips_the_target, "lacks target field 'Age'"),
], ids=["missing-field", "mistyped-field", "aggregation-target-lacking"])
def test_decision_errors_name_the_field_but_not_the_record(
    make_unit, make_session, make_gateway, fields, bundle, check
):
    unit = make_unit(bundle=bundle() if bundle else None)
    session = make_session(unit)
    records = [record_to_obj(r) for r in generate_vax(VaxSpec("Patient", 20))]
    records.append({"id": _SECRET_ID, "fields": fields})
    envelope, _ = session.build_request(
        "provision", {"dataName": "vax/patients", "structure": "Patient", "records": records}
    )
    assert unit.handle("t-prov", envelope).status == "ok"
    payload = {"funcName": "PatientPrioritizationWithAggr", "dataName": "vax/patients"}
    _assert_typed_error(unit, session, make_gateway, "decision", payload, "SECRET", check)


def test_a_provisioned_record_whose_fields_are_not_an_object_is_not_echoed(
    make_unit, make_session, make_gateway
):
    unit = make_unit()
    payload = {"dataName": "vax/patients", "structure": "Patient",
               "records": [{"id": _SECRET_ID, "fields": ["SECRET-field"]}]}
    _assert_typed_error(
        unit, make_session(unit), make_gateway, "provision", payload, "SECRET",
        "record fields must be an object",
    )
