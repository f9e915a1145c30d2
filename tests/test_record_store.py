"""The record store: how provision seals records and a decision opens them.

Every check `Ccu.decrypt_data` makes on what the storage operator hands back
is pinned here: the blob content check, the AAD binding dataset, form and
layout, the provision's key, and the manifest's shape. Each tampering yields
a typed error envelope, never results and never `unit failure`.

Each form of a dataset is one blob, `[fields, ids, columns]`, that names its
own fields: a slim blob holds a column of the records' values per field of
the structure's layout, a full one a column per field of the dataset's field
union. One manifest under `<name>` holds the provision's one randomizer and
the address of each form's blob; a decision over `<name>.full` reads the full
blob.
"""

import dataclasses
import json
import secrets
import threading
from datetime import date, datetime

import pytest

from conftest import (
    BUNDLED_FUNCS,
    bundle_reading_another_patient_field,
    disk_full,
    sealed_form,
    standard_bundle,
)

from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.aead import HEADER_LEN, NONCE_LEN, Ciphertext, ae_decrypt, ae_encrypt
from confidec.crypto.keys import derive_record_key
from confidec.dmn.engine import decide_all
from confidec.dmn.model import Record, check_record_docs
from confidec.dmn.tables import (
    parse_aggregation_spec,
    parse_decision_table,
    parse_record,
    record_to_obj,
)
from confidec.enclave import ccu
from confidec.enclave.ccu import exchange_seed, generate_seed
from confidec.enclave.measurement import CodeBundle
from confidec.errors import AggregationError, ConfidecError, TableValidationError
from confidec.fixtures import (
    load_patient_aggregation_docs,
    load_patient_aggregations,
    load_policy_text,
    load_table,
    load_table_doc,
)
from confidec.gateway.client import ClientSession, expand_results
from confidec.gateway.wire import response_aad
from confidec.service import builder
from confidec.storage.node import StorageNode
from confidec.storage.store import MemoryBlobStore
from confidec.util import b64, canonical_json, length_prefixed, unb64

SLIM_NAME = "vax/patients"
# the name a decision gives to read the full part of SLIM_NAME's manifest
FULL_NAME = "vax/patients.full"
# another dataset of the same structure, so of the same layout
OTHER_NAME = "vax/others"


def _unit(make_unit, store, tmp_path):
    storage = StorageNode.in_memory() if store == "memory" else StorageNode.at_directory(tmp_path)
    return make_unit(storage=storage)


def _records(count=6):
    return generate_vax(VaxSpec("Patient", count, 7))


def _provision(unit, session, records, name=SLIM_NAME, **extra):
    payload = {
        "dataName": name,
        "structure": "Patient",
        "records": [record_to_obj(r) for r in records],
        **extra,
    }
    envelope, key = session.build_request("provision", payload)
    response = unit.handle("t-prov", envelope)
    assert response.status == "ok", response.error
    return ClientSession.open_response(response, key)


def _decision(session, data_name):
    return session.build_request(
        "decision", {"funcName": "PatientPrioritizationWithAggr", "dataName": data_name}
    )


def _decide(unit, session, data_name):
    """The expanded results of a patient decision, or its error text."""
    envelope, key = _decision(session, data_name)
    response = unit.handle("t-dec", envelope)
    if response.status != "ok":
        assert response.body is None
        return response.error
    return ClientSession.open_response(response, key)["results"]


def _oracle(records):
    results = decide_all(
        load_table("PatientPrioritizationWithAggr"), records, load_patient_aggregations()
    )
    return [
        {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)}
        for r in results
    ]


def _manifest(unit, name=SLIM_NAME):
    return json.loads(unit._storage.fetch(name))


def _republish(unit, name, manifest):
    """The operator re-points the name at a manifest it wrote."""
    unit._storage.publish(name, json.dumps(manifest).encode())


def _overwrite(storage, address, data):
    """The operator rewrites a stored blob in place (None deletes it)."""
    if isinstance(storage.blobs, MemoryBlobStore):
        if data is None:
            del storage.blobs._blobs[address]
        else:
            storage.blobs._blobs[address] = data
    else:
        path = storage.blobs.root / address
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)


# --- tampering with what a decision reads ----------------------------------

OTHER_FORM = {"slim": "full", "full": "slim"}


def _swap_addresses(unit, form):
    """The blob traded with another dataset's in the same form, each
    manifest keeping its own randomizer."""
    manifest, theirs = _manifest(unit), _manifest(unit, OTHER_NAME)
    manifest[form], theirs[form] = theirs[form], manifest[form]
    _republish(unit, OTHER_NAME, theirs)
    _republish(unit, SLIM_NAME, manifest)


def _swap_randomizers(unit, form):
    """One randomizer per provision: trade it with another dataset's."""
    manifest, theirs = _manifest(unit), _manifest(unit, OTHER_NAME)
    manifest["t"], theirs["t"] = theirs["t"], manifest["t"]
    _republish(unit, OTHER_NAME, theirs)
    _republish(unit, SLIM_NAME, manifest)


def _flip_a_stored_byte(unit, form):
    address = _manifest(unit)[form]
    blob = bytearray(unit._storage.blobs.get(address))
    blob[-1] ^= 0x01
    _overwrite(unit._storage, address, bytes(blob))


def _replace_the_blob(unit, form):
    """The blob's bytes replaced by the other form's, under its own address."""
    manifest = _manifest(unit)
    _overwrite(unit._storage, manifest[form], unit._storage.blobs.get(manifest[OTHER_FORM[form]]))


def _drop_a_blob(unit, form):
    _overwrite(unit._storage, _manifest(unit)[form], None)


def _drop_a_randomizer(unit, form):
    manifest = _manifest(unit)
    del manifest["t"]
    _republish(unit, SLIM_NAME, manifest)


def _point_at_the_other_form(unit, form):
    """One form names the other form's blob, under the same randomizer."""
    manifest = _manifest(unit)
    manifest[form] = manifest[OTHER_FORM[form]]
    _republish(unit, SLIM_NAME, manifest)


def _point_at_another_dataset(unit, form):
    """The blob of another dataset in the same form, structure and layout,
    and that dataset's randomizer."""
    manifest, theirs = _manifest(unit), _manifest(unit, OTHER_NAME)
    manifest.update({form: theirs[form], "t": theirs["t"]})
    _republish(unit, SLIM_NAME, manifest)


TAMPERING = {
    "swapped-addresses": (_swap_addresses, "authentication"),
    "swapped-randomizers": (_swap_randomizers, "authentication"),
    "dropped-randomizer": (_drop_a_randomizer, "malformed"),
    "flipped-byte": (_flip_a_stored_byte, "content check"),
    "replaced-bytes": (_replace_the_blob, "content check"),
    "missing-blob": (_drop_a_blob, "no blob at"),
    "other-form-blob": (_point_at_the_other_form, "authentication"),
    "other-dataset-blob": (_point_at_another_dataset, "authentication"),
}


@pytest.mark.parametrize("tampering", sorted(TAMPERING))
@pytest.mark.parametrize("store", ["memory", "directory"])
@pytest.mark.parametrize("form", ["slim", "full"])
def test_tampered_storage_yields_a_typed_error_never_results(
    make_unit, make_session, tmp_path, tampering, store, form
):
    """Tampering after a decision: the unit keeps the version it opened,
    yet the next read answers the tampering."""
    unit = _unit(make_unit, store, tmp_path)
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records)
    others = generate_vax(VaxSpec("Patient", 4, 8))
    _provision(unit, session, others, name=OTHER_NAME)
    suffix = "" if form == "slim" else ".full"
    assert _decide(unit, session, SLIM_NAME + suffix) == _oracle(records)
    assert _decide(unit, session, OTHER_NAME + suffix) == _oracle(others)

    tamper, phrase = TAMPERING[tampering]
    tamper(unit, form)
    answer = _decide(unit, session, SLIM_NAME + suffix)
    assert isinstance(answer, str), "a tampered dataset gave results"
    assert phrase in answer


# --- manifests of the wrong shape ----------------------------------------------


def _no_address(unit, manifest, form):
    manifest[form] = None


def _undecodable_randomizer(unit, manifest, form):
    manifest["t"] = "INJECTED!"


def _short_blob(unit, manifest, form):
    manifest[form] = unit._storage.blobs.put(b"INJECTED-blob")


def _short_randomizer(unit, manifest, form):
    manifest["t"] = b64(b"INJ5!")


def _long_randomizer(unit, manifest, form):
    manifest["t"] = b64(b"INJECTED" * 5)


def _randomizer_not_a_string(unit, manifest, form):
    manifest["t"] = {"INJECTED": 1}


def _dataset_not_a_string(unit, manifest, form):
    manifest["dataset"] = ["INJECTED-dataset"]


def _address_not_a_string(unit, manifest, form):
    """A number, which a store would look up as a missing blob."""
    manifest[form] = 64


def _per_record_entries(unit, manifest, form):
    """A part in the retired per-record shape of the full form, one entry
    per record naming its blob and randomizer: neither form reads it."""
    entry = {"id": "INJECTED-id", "address": manifest[form], "t": manifest["t"]}
    manifest[form] = {"records": [entry]}


def _no_part(unit, manifest, form):
    manifest["INJECTED-part"] = manifest.pop(form)


def _part_not_an_object(unit, manifest, form):
    manifest[form] = ["INJECTED-part"]


def _two_manifest_shape(unit, manifest, form):
    """The one form's manifest as units wrote it when each form was published
    under its own name, `<name>` and `<name>.full`: no parts, a `form` key."""
    address = manifest.pop(form)
    del manifest[OTHER_FORM[form]]
    manifest.update(address=address, form=form)


MALFORMED = {
    "no-address": ("full", _no_address),
    "address-not-a-string": ("full", _address_not_a_string),
    "undecodable-randomizer": ("full", _undecodable_randomizer),
    "short-randomizer": ("full", _short_randomizer),
    "long-randomizer": ("full", _long_randomizer),
    "short-blob": ("full", _short_blob),
    "randomizer-not-a-string": ("full", _randomizer_not_a_string),
    "per-record-entries": ("full", _per_record_entries),
    "no-part": ("full", _no_part),
    "part-not-an-object": ("full", _part_not_an_object),
    "two-manifest-shape": ("full", _two_manifest_shape),
    "dataset-not-a-string": ("slim", _dataset_not_a_string),
    "slim-address-not-a-string": ("slim", _address_not_a_string),
    "slim-undecodable-randomizer": ("slim", _undecodable_randomizer),
    "slim-short-blob": ("slim", _short_blob),
    "slim-per-record-entries": ("slim", _per_record_entries),
    "slim-no-part": ("slim", _no_part),
    "slim-part-not-an-object": ("slim", _part_not_an_object),
    "slim-two-manifest-shape": ("slim", _two_manifest_shape),
}


def _assert_refused(response, markers):
    assert response.status == "error" and response.body is None
    assert "unit failure" not in response.error
    assert "malformed" in response.error
    for marker in markers:
        assert marker not in response.error


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_a_malformed_manifest_is_a_typed_storage_error(make_unit, make_session, make_gateway, shape):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session, _records())
    form, malform = MALFORMED[shape]
    manifest = _manifest(unit)
    malform(unit, manifest, form)
    _republish(unit, SLIM_NAME, manifest)
    name = SLIM_NAME if form == "slim" else FULL_NAME
    markers = ("INJECTED",)

    envelope, _ = _decision(session, name)
    _assert_refused(unit.handle("t-direct", envelope), markers)

    gateway = make_gateway(unit.handle)
    envelope, _ = _decision(session, name)
    _assert_refused(gateway.await_response(gateway.submit(envelope), 30), markers)


@pytest.mark.parametrize("text", [b"INJECTED{", b'["INJECTED"]'])
def test_a_manifest_that_is_not_an_object_is_a_typed_storage_error(make_unit, make_session, text):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session, _records())
    unit._storage.publish(SLIM_NAME, text)
    envelope, _ = _decision(session, SLIM_NAME)
    _assert_refused(unit.handle("t-direct", envelope), ["INJECTED"])


# --- the forms of one provision ---------------------------------------------------


@pytest.mark.parametrize("earlier", ["slim", "full"])
def test_a_manifest_pairing_two_provisions_forms_fails_authentication(
    make_unit, make_session, earlier
):
    """The operator keeps a provision's manifest, then after the next one
    republishes a manifest naming the current blob in one form and the
    earlier one's blob in the other. Both blobs are the unit's own, but the
    forms share the provision's one key, so the earlier blob does not open;
    the other form answers the current version."""
    unit = make_unit()
    session = make_session(unit)
    first, second = _records(50), _records(40)
    _provision(unit, session, first)
    old = _manifest(unit)
    _provision(unit, session, second)
    manifest = _manifest(unit)
    manifest[earlier] = old[earlier]
    _republish(unit, SLIM_NAME, manifest)
    assert unit._storage.chain.verify_chain() is None

    mixed, current = (SLIM_NAME, FULL_NAME) if earlier == "slim" else (FULL_NAME, SLIM_NAME)
    assert _decide(unit, session, mixed) == "ciphertext failed authentication"
    assert _decide(unit, session, current) == _oracle(second)


def test_no_field_name_or_value_the_client_sent_is_stored_in_clear(
    make_unit, make_session, tmp_path
):
    """Every byte a directory store keeps: the manifest, the blobs and the
    chain; record ids included."""
    unit = make_unit(storage=StorageNode.at_directory(tmp_path))
    records = [
        dataclasses.replace(record, id=f"SECRET-id-{i}", fields=dict(
            record.fields, **{f"SECRET-name-{i}": f"SECRET-value-{i}", "Notes": f"SECRET-note-{i}"}
        ))
        for i, record in enumerate(_records())
    ]
    receipt = _provision(unit, make_session(unit), records)
    stored = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    names = {path.name for path in stored}
    # the manifest and both blobs it names are among the files checked
    assert receipt["address"] in names
    for form in ("slim", "full"):
        assert _manifest(unit)[form] in names
    for path, data in stored.items():
        assert b"SECRET-" not in data, path.relative_to(tmp_path)


# --- record checks on provision ------------------------------------------------


def _valid_doc(record_id="r-good"):
    return {"id": record_id, "fields": {"Age": 40, "Name": "text", "Flag": True, "Rate": 0.5}}


MALFORMED_RECORDS = {
    "missing-id": {"fields": {"Age": 1}},
    "missing-fields": {"id": "r1"},
    "a-string": "r1",
    "a-list": ["r1"],
    "a-number": 7,
    "a-null": None,
    "id-not-a-string": {"id": 7, "fields": {}},
    "empty-id": {"id": "", "fields": {}},
    "fields-not-an-object": {"id": "r1", "fields": ["Age"]},
    "empty-field-name": {"id": "r1", "fields": {"Age": 1, "": 2}},
    "nan": {"id": "r1", "fields": {"Age": float("nan")}},
    "infinity": {"id": "r1", "fields": {"Age": float("inf")}},
    "minus-infinity": {"id": "r1", "fields": {"Age": float("-inf")}},
    "huge-int": {"id": "r1", "fields": {"Age": 10**400}},
    "null-value": {"id": "r1", "fields": {"Age": None}},
    "list-value": {"id": "r1", "fields": {"Age": [1]}},
    "object-value": {"id": "r1", "fields": {"Age": {"years": 1}}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS) + ["duplicate-id"])
def test_provision_refuses_a_malformed_record_with_the_text_parse_record_gives(
    make_unit, make_session, case
):
    """One bad record after a good one: the unit's one-pass check answers
    what `parse_record` and the duplicate check say of the same document."""
    if case == "duplicate-id":
        doc, want = _valid_doc(), "duplicate record id in the dataset"
    else:
        doc = MALFORMED_RECORDS[case]
        with pytest.raises(TableValidationError) as refused:
            parse_record(doc)
        want = str(refused.value)
    unit = make_unit()
    session = make_session(unit)
    envelope, _ = session.build_request("provision", {
        "dataName": SLIM_NAME, "structure": "Patient", "records": [_valid_doc(), doc],
    })
    response = unit.handle("t-prov", envelope)
    assert (response.status, response.error) == ("error", want)
    assert len(unit._storage.chain) == 0


@pytest.mark.parametrize("place", ["record-id", "field-name", "field-value", "data-name"])
def test_provision_refuses_a_lone_surrogate_before_any_blob_is_stored(
    make_unit, make_session, place
):
    """`"\\ud800"` is valid JSON, but no UTF-8 text holds it."""
    text = "SECRET-\ud800"
    doc = _valid_doc()
    if place == "record-id":
        doc["id"] = text
    elif place == "field-name":
        doc["fields"][text] = 1
    elif place == "field-value":
        doc["fields"]["Name"] = text
    payload = {
        "dataName": text if place == "data-name" else SLIM_NAME,
        "structure": "Patient",
        "records": [_valid_doc("r-first"), doc],
    }
    unit = make_unit()
    envelope, key = make_session(unit).build_request("provision", {})
    # a client's canonical JSON cannot hold the text; its \u escape can
    envelope = dataclasses.replace(
        envelope, payload=ae_encrypt(key, json.dumps(payload).encode(), aad=b"provision")
    )
    blobs = list(unit._storage.blobs.addresses())
    response = unit.handle("t-prov", envelope)
    assert (response.status, response.error) == ("error", "provision holds text that is not UTF-8")
    assert list(unit._storage.blobs.addresses()) == blobs
    assert len(unit._storage.chain) == 0


@pytest.mark.parametrize("value, accepted", [
    ("text", True), (True, True), (7, True), (1.5, True), (2**53 + 1, True),
    (10**400, False), (float("nan"), False), (float("inf"), False), (float("-inf"), False),
    (None, False), ([1], False), ({"years": 1}, False),
    (date(2026, 1, 15), False), (datetime(2026, 1, 15, 10, 30), False),
], ids=repr)
def test_a_record_and_the_units_provision_check_hold_the_same_values(value, accepted):
    """What a `Record` may hold is what the unit stores, so the local
    `decide_all` and the unit see the same records; `parse_record` says
    what the unit's check says."""
    doc = {"id": "r1", "fields": {"Age": value}}
    try:
        Record(id="r1", fields={"Age": value})
        local = None
    except ValueError as exc:
        local = str(exc)

    def refusal(check, arg):
        try:
            check(arg)
        except TableValidationError as exc:
            return str(exc)
        return None

    assert refusal(check_record_docs, [doc]) == refusal(parse_record, doc) == local
    assert (local is None) == accepted


# --- keys ---------------------------------------------------------------------


@pytest.mark.parametrize("extra", [
    {},
    {"lightEncryption": True},
    {"lightEncryption": False},
    {"lightEncryption": "false"},
    {"lightEncryption": 1},
    {"lightEncryption": None},
], ids=["plain", "light-key", "light-key-false", "light-key-string", "light-key-one", "light-key-null"])
def test_each_provision_derives_one_key_for_both_forms(make_unit, make_session, monkeypatch, extra):
    """A payload still naming the retired `lightEncryption` gets no special
    handling: the key goes unread whatever its value."""
    unit = make_unit()
    session = make_session(unit)
    records = _records(9)
    calls = []

    def counting(seed, randomizer):
        calls.append(randomizer)
        return derive_record_key(seed, randomizer)

    monkeypatch.setattr(ccu, "derive_record_key", counting)
    receipt = _provision(unit, session, records, **extra)
    # one fresh randomizer per provision, whose key seals both forms
    assert len(calls) == 1
    assert "light" not in receipt and "light" not in _manifest(unit)
    for name in (SLIM_NAME, FULL_NAME):
        calls.clear()
        assert _decide(unit, session, name) == _oracle(records)
        assert len(calls) == 1


# --- what a read depends on -------------------------------------------------------


def _counting(monkeypatch, unit):
    """Counts of the blob gets and AES-GCM opens decisions make from now on;
    a decision's gets are its manifest's and one per blob it names."""
    counts = {"get": 0, "open": 0}
    get = unit._storage.blobs.get
    open_wire = ccu.open_wire

    def counting_get(address):
        counts["get"] += 1
        return get(address)

    def counting_open(*args):
        counts["open"] += 1
        return open_wire(*args)

    monkeypatch.setattr(unit._storage.blobs, "get", counting_get)
    monkeypatch.setattr(ccu, "open_wire", counting_open)
    return counts


@pytest.mark.parametrize("form", ["slim", "full"])
def test_a_decision_gets_and_opens_one_blob_whatever_the_record_count(
    make_unit, make_session, monkeypatch, form
):
    """The manifest's get and the blob's, in either form; a read of a
    version the unit opened before still gets both, but opens nothing."""
    unit = make_unit()
    session = make_session(unit)
    small, large = _records(1), _records(40)
    _provision(unit, session, small)
    _provision(unit, session, large, name=OTHER_NAME)
    suffix = "" if form == "slim" else ".full"
    counts = _counting(monkeypatch, unit)
    reads = ((SLIM_NAME, small, 1), (OTHER_NAME, large, 1), (SLIM_NAME, small, 0))
    for name, records, opens in reads:
        counts.update(get=0, open=0)
        assert _decide(unit, session, name + suffix) == _oracle(records)
        assert counts == {"get": 2, "open": opens}


@pytest.mark.parametrize("form", ["slim", "full"])
def test_a_manifest_republished_under_another_name_is_refused_before_any_blob_get(
    make_unit, make_session, monkeypatch, form
):
    unit = make_unit()
    session = make_session(unit)
    records, others = _records(), generate_vax(VaxSpec("Patient", 4, 8))
    _provision(unit, session, records)
    _provision(unit, session, others, name=OTHER_NAME)
    name = SLIM_NAME if form == "slim" else FULL_NAME
    assert _decide(unit, session, name) == _oracle(records)  # kept from now on
    # the operator binds the name to the other dataset's manifest bytes,
    # which the notarization chain records as an ordinary publication
    unit._storage.publish(SLIM_NAME, unit._storage.fetch(OTHER_NAME))
    assert unit._storage.chain.verify_chain() is None

    counts = _counting(monkeypatch, unit)
    answer = _decide(unit, session, name)
    assert isinstance(answer, str), "a decision answered from another dataset"
    assert "names another dataset" in answer
    assert counts == {"get": 1, "open": 0}  # the manifest's own get only


# --- versions the unit keeps opened ---------------------------------------------


def _counting_steps(monkeypatch, unit):
    """`_counting`, plus the batch encodings, the aggregations and the kernel
    runs decisions make from now on: the handler's calls after the read."""
    counts = _counting(monkeypatch, unit)

    def counting(step, fn):
        def count_then_call(*args):
            counts[step] += 1
            return fn(*args)
        return count_then_call

    for step, name in (
        ("encode", "encode_batch"), ("aggregate", "evaluate_aggregate"), ("decide", "decide_records")
    ):
        counts[step] = 0
        monkeypatch.setattr(builder, name, counting(step, getattr(builder, name)))
    return counts


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
def test_a_warm_decision_gets_both_blobs_and_opens_encodes_and_aggregates_nothing(
    make_unit, make_session, monkeypatch, name
):
    unit = make_unit()
    session = make_session(unit)
    records = _records(30)
    _provision(unit, session, records)
    counts = _counting_steps(monkeypatch, unit)
    cold = {"open": 1, "encode": 1, "aggregate": 2, "decide": 1}
    warm = dict.fromkeys(cold, 0)
    for steps in (cold, warm):
        counts.update(get=0, **warm)
        assert _decide(unit, session, name) == _oracle(records)
        assert counts == {"get": 2, **steps}


def test_a_warm_decision_traces_the_steps_a_cold_one_does(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session, _records())
    traces = []
    for _ in range(2):
        _decide(unit, session, SLIM_NAME)
        traces.append(list(unit.last_trace))
    assert traces[0] == traces[1] == [
        "ParseDecisionReq", "CheckCertificate", "CheckCallability", "DecryptData",
        "Aggregate meanAge", "Aggregate sumAge", "Decide", "Return",
    ]


def _provision_again(unit, make_session):
    session = make_session(unit)
    records = _records(5)
    _provision(unit, session, records)
    return session, _oracle(records)


def _new_seed(unit, make_session):
    session = _reseed(unit, make_session)
    return session, "ciphertext failed authentication"


def _another_layout(unit, make_session):
    """The slim blob binds the old layout; the full one still opens."""
    session = _redeploy_another_layout(unit, make_session)
    return session, {SLIM_NAME: "ciphertext failed authentication", FULL_NAME: _oracle(_records())}


@pytest.mark.parametrize("change", [_provision_again, _new_seed, _another_layout],
                         ids=["re-provision", "new-seed", "another-layout"])
@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
def test_a_kept_version_stops_answering_after_a_change(
    make_unit, make_session, monkeypatch, change, name
):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session, _records())
    for _ in range(2):
        assert _decide(unit, session, name) == _oracle(_records())

    session, want = change(unit, make_session)
    if isinstance(want, dict):
        want = want[name]
    counts = _counting(monkeypatch, unit)
    assert _decide(unit, session, name) == want
    assert counts == {"get": 2, "open": 1}


@pytest.mark.parametrize("change, left", [
    (lambda unit, session: unit.deploy(standard_bundle()), set()),
    (lambda unit, session: unit.install_seed(unit._seed), set()),
    (lambda unit, session: _provision(unit, session, _records(2)),
     {(OTHER_NAME, "slim"), (OTHER_NAME, "full")}),
], ids=["deploy", "install-seed", "provision"])
def test_deploy_a_seed_and_a_provision_each_free_what_the_unit_kept(
    make_unit, make_session, change, left
):
    """A provision frees only its own name's versions."""
    unit = make_unit()
    session = make_session(unit)
    for name in (SLIM_NAME, OTHER_NAME):
        _provision(unit, session, _records(), name=name)
        for suffix in ("", ".full"):
            assert _decide(unit, session, name + suffix) == _oracle(_records())
    assert len(unit._opened) == 4

    change(unit, session)
    assert set(unit._opened) == left


# how long a test waits for another thread before it fails instead of hanging
WAIT_S = 30


def _on_another_thread(change):
    """A thread that runs change and keeps what it raised in `.errors`."""
    def run():
        try:
            change()
        except BaseException as exc:  # noqa: BLE001 - the test thread reports it
            errors.append(exc)

    errors = []
    thread = threading.Thread(target=run, daemon=True)
    thread.errors = errors
    return thread


def _assert_done(thread):
    thread.join(WAIT_S)
    assert not thread.is_alive(), "the change did not finish"
    assert not thread.errors


def _during_the_next_get(monkeypatch, unit, change):
    """Start change on another thread inside the next blob get, while a
    decision reads, and return that thread once it is seen waiting."""
    get = unit._storage.blobs.get
    changer = _on_another_thread(change)

    def get_then_change(address):
        if changer.ident is None:
            changer.start()
            changer.join(0.3)
            assert changer.is_alive(), f"the change did not wait for the decision: {changer.errors}"
        return get(address)

    monkeypatch.setattr(unit._storage.blobs, "get", get_then_change)
    return changer


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
def test_a_version_opened_while_a_seed_is_installed_is_not_kept(
    make_unit, make_session, monkeypatch, name
):
    """The decision in flight answers under the seed it started with, and the
    seed waits for it; the next one reads under the new seed, as a cold read
    does."""
    unit = make_unit()
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records)
    changer = _during_the_next_get(monkeypatch, unit, lambda: unit.install_seed(generate_seed()))
    assert _decide(unit, session, name) == _oracle(records)
    _assert_done(changer)
    assert not unit._opened
    assert _decide(unit, make_session(unit), name) == "ciphertext failed authentication"


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
def test_a_version_opened_while_a_bundle_is_deployed_is_not_kept(
    make_unit, make_session, monkeypatch, name
):
    unit = make_unit()
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records)
    changer = _during_the_next_get(monkeypatch, unit, lambda: unit.deploy(standard_bundle()))
    assert _decide(unit, session, name) == _oracle(records)
    _assert_done(changer)
    assert not unit._opened
    counts = _counting(monkeypatch, unit)
    assert _decide(unit, session, name) == _oracle(records)
    assert counts == {"get": 2, "open": 1}
    assert set(unit._opened) == {(SLIM_NAME, "slim" if name == SLIM_NAME else "full")}


# a function over VaccinationCenter that also reads DailyCapacity, so that
# deploying it moves the fields `Restock` reads to other places in the layout
BUSY_POLICY = """
policy Busy(VaccinationCenter) {
    target clause Action == "decide"
    rule accessDecision {
        permit
        condition Role == "MedicalHub" && Country == "Italy"
    }
}
"""
BUSY_TABLE = {"name": "Busy", "columns": [
    {"name": "DailyCapacity", "kind": "input", "type": "number"},
    {"name": "Busy", "kind": "output", "type": "string"},
], "rules": [{"conditions": ["> 1000"], "outputs": ["busy"]}]}


def test_a_redeploy_waits_for_the_decision_in_flight_through_the_gateway(
    make_unit, make_session, make_gateway, monkeypatch
):
    """A decision has looked its service up and is parked before it reads;
    another thread deploys a bundle that shifts the layout and installs the
    same seed again. The deploy waits, so the decision answers with the code
    and layout it started with, and the next one with the new code."""
    unit = make_unit()
    gateway = make_gateway(unit.handle)
    centers = generate_vax(VaxSpec("VaccinationCenter", 70, seed=5))
    _provision(unit, make_session(unit), centers, name="c", structure="VaccinationCenter")
    want = [
        {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)}
        for r in decide_all(load_table("Restock"), centers)
    ]
    before = unit._layouts["VaccinationCenter"]
    bundle = CodeBundle.assemble(
        load_policy_text() + BUSY_POLICY,
        [load_table_doc(f) for f in BUNDLED_FUNCS] + [BUSY_TABLE],
        load_patient_aggregation_docs(),
    )

    def submit():
        envelope, key = make_session(unit).build_request(
            "decision", {"funcName": "Restock", "dataName": "c.full"}
        )
        return gateway.submit(envelope), key

    def results(ticket, key):
        response = gateway.await_response(ticket, WAIT_S)
        assert response.status == "ok", response.error
        return ClientSession.open_response(response, key)["results"]

    assert results(*submit()) == want  # the version is kept from here on
    parked, release = threading.Event(), threading.Event()
    check_access = builder.check_access

    def park_then_check(*args):
        parked.set()
        assert release.wait(WAIT_S), "the decision was never released"
        return check_access(*args)

    monkeypatch.setattr(builder, "check_access", park_then_check)
    racing = submit()
    assert parked.wait(WAIT_S), "the decision never reached the policy check"
    seed = unit._seed
    deployer = _on_another_thread(lambda: (unit.deploy(bundle), unit.install_seed(seed)))
    deployer.start()
    deployer.join(0.3)
    waited = deployer.is_alive() and unit._layouts["VaccinationCenter"] == before
    release.set()
    racing = results(*racing)
    _assert_done(deployer)
    monkeypatch.setattr(builder, "check_access", check_access)

    assert unit._layouts["VaccinationCenter"] != before
    assert racing == want, "the decision in flight answered wrong"
    assert results(*submit()) == want, "the next decision answered wrong"
    assert waited, "the deploy did not wait for the decision in flight"


# two functions over the Patient structure whose aggregate slots sit at
# different places, so that one function's batch cannot serve the other
TWO_FUNCTIONS_POLICIES = """
policy Oldest(Patient, top) {
    target clause Action == "decide"
    rule accessDecision {
        permit
        condition Role == "MedicalHub" && Country == "Italy"
    }
}

policy Youngest(Patient, bottom) {
    target clause Action == "decide"
    rule accessDecision {
        permit
        condition Role == "MedicalHub" && Country == "Italy"
    }
}
"""
TWO_FUNCTIONS_TABLES = [
    {"name": "Oldest", "columns": [
        {"name": "top", "kind": "aggregateInput", "type": "number"},
        {"name": "Age", "kind": "input", "type": "number"},
        {"name": "Oldest", "kind": "output", "type": "string"},
    ], "rules": [{"conditions": ["-", ">= top"], "outputs": ["oldest"]}]},
    {"name": "Youngest", "columns": [
        {"name": "Age", "kind": "input", "type": "number"},
        {"name": "bottom", "kind": "aggregateInput", "type": "number"},
        {"name": "Youngest", "kind": "output", "type": "string"},
    ], "rules": [{"conditions": ["<= bottom", "-"], "outputs": ["youngest"]}]},
]
TWO_FUNCTIONS_AGGREGATIONS = [
    {"name": "top", "filter": [], "targetField": "Age", "reducer": "max"},
    {"name": "bottom", "filter": [], "targetField": "Age", "reducer": "min"},
]


def _two_function_oracle(func, records):
    table = parse_decision_table(next(t for t in TWO_FUNCTIONS_TABLES if t["name"] == func))
    specs = [parse_aggregation_spec(doc) for doc in TWO_FUNCTIONS_AGGREGATIONS]
    return [
        {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)}
        for r in decide_all(table, records, specs)
    ]


def _two_functions_bundle():
    return CodeBundle.assemble(
        load_policy_text() + TWO_FUNCTIONS_POLICIES,
        [load_table_doc(f) for f in BUNDLED_FUNCS] + TWO_FUNCTIONS_TABLES,
        load_patient_aggregation_docs() + TWO_FUNCTIONS_AGGREGATIONS,
    )


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
def test_two_functions_over_one_kept_version_keep_their_own_aggregates(
    make_unit, make_session, name
):
    unit = make_unit(bundle=_two_functions_bundle())
    session = make_session(unit)
    records = _records(20)
    _provision(unit, session, records)
    want = {func: _two_function_oracle(func, records) for func in ("Oldest", "Youngest")}
    assert want["Oldest"] != want["Youngest"]
    for first, second in (("Oldest", "Youngest"), ("Youngest", "Oldest")):
        unit.install_seed(unit._seed)  # drops the kept versions
        session = make_session(unit)
        # the first opens the dataset, the second finds it kept; then both are warm
        for func in (first, second, first, second):
            envelope, key = session.build_request("decision", {"funcName": func, "dataName": name})
            response = unit.handle("t-dec", envelope)
            assert response.status == "ok", response.error
            assert ClientSession.open_response(response, key)["results"] == want[func]


def _decide_body(unit, session, func, data_name):
    """The decision body's bytes, or the error text."""
    envelope, key = session.build_request("decision", {"funcName": func, "dataName": data_name})
    response = unit.handle("t-dec", envelope)
    if response.status != "ok":
        assert response.body is None
        return response.error
    return ae_decrypt(key, response.body, aad=response_aad("t-dec"))


def _centers(count=30):
    return generate_vax(VaxSpec("VaccinationCenter", count, seed=5))


# per function: the structure it reads, records of it and the oracle's
# table and aggregations
KEPT_FUNCTIONS = {
    "PatientPrioritizationWithAggr": ("Patient", _records, load_patient_aggregations),
    "Restock": ("VaccinationCenter", _centers, list),
}


@pytest.mark.parametrize("suffix", ["", ".full"], ids=["slim", "full"])
@pytest.mark.parametrize("func", sorted(KEPT_FUNCTIONS))
def test_a_kept_version_answers_its_first_body_without_deciding_again(
    make_unit, make_session, monkeypatch, func, suffix
):
    """The first decision over a version encodes, aggregates and decides; a
    later one over the same kept version runs none of them, and answers the
    same bytes after the same traced steps."""
    structure, make_records, aggregations = KEPT_FUNCTIONS[func]
    unit = make_unit()
    session = make_session(unit)
    records = make_records(30)
    _provision(unit, session, records, name="d", structure=structure)
    want = decide_all(load_table(func), records, aggregations())
    counts = _counting_steps(monkeypatch, unit)
    n_aggregations = len(unit.service(func).program.aggregations)
    cold = {"open": 1, "encode": 1, "aggregate": n_aggregations, "decide": 1}
    warm = dict.fromkeys(cold, 0)
    bodies, traces = [], []
    for steps in (cold, warm):
        counts.update(get=0, **warm)
        bodies.append(_decide_body(unit, session, func, "d" + suffix))
        traces.append(list(unit.last_trace))
        assert counts == {"get": 2, **steps}
    assert isinstance(bodies[0], bytes), bodies[0]
    assert bodies[1] == bodies[0]
    assert traces[1] == traces[0]
    assert traces[0].count("Decide") == 1
    assert expand_results(json.loads(bodies[0]))["results"] == [
        {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)} for r in want
    ]


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
def test_two_warm_functions_over_one_kept_version_answer_their_own_results_in_turn(
    make_unit, make_session, monkeypatch, name
):
    unit = make_unit(bundle=_two_functions_bundle())
    session = make_session(unit)
    records = _records(20)
    _provision(unit, session, records)
    want = {func: _two_function_oracle(func, records) for func in ("Oldest", "Youngest")}
    for func in want:
        _decide_body(unit, session, func, name)
    counts = _counting_steps(monkeypatch, unit)
    for func in ("Oldest", "Youngest", "Oldest", "Youngest", "Youngest", "Oldest"):
        body = _decide_body(unit, session, func, name)
        assert expand_results(json.loads(body))["results"] == want[func], func
    assert counts == {"get": 12, "open": 0, "encode": 0, "aggregate": 0, "decide": 0}


def _without(records, index, field):
    """The records, but the one at index lacks field."""
    docs = [record_to_obj(r) for r in records]
    del docs[index]["fields"][field]
    return [parse_record(doc) for doc in docs]


@pytest.mark.parametrize("suffix", ["", ".full"], ids=["slim", "full"])
@pytest.mark.parametrize("func, structure, records, oracle", [
    # a record lacks the field the first condition of Restock reads
    ("Restock", "VaccinationCenter", _without(_centers(10), 3, "CurrentVaccineStockLevel"),
     lambda records: decide_all(load_table("Restock"), records)),
    # `top` selects every record, and one lacks its target, Age
    ("Oldest", "Patient", _without(_records(10), 3, "Age"),
     lambda records: _two_function_oracle("Oldest", records)),
], ids=["condition-field", "aggregation-target"])
def test_a_decision_that_fails_keeps_no_body(
    make_unit, make_session, monkeypatch, func, structure, records, oracle, suffix
):
    """The version stays kept, but no body is: the next decision runs every
    step again and fails with the same text."""
    unit = make_unit(bundle=_two_functions_bundle())
    session = make_session(unit)
    _provision(unit, session, records, name="d", structure=structure)
    with pytest.raises(ConfidecError) as raised:
        oracle(records)
    counts = _counting_steps(monkeypatch, unit)
    answers = [_decide_body(unit, session, func, "d" + suffix) for _ in range(2)]
    assert answers == [str(raised.value)] * 2
    assert (counts["open"], counts["encode"]) == (1, 2)
    kept = unit._opened[("d", "full" if suffix else "slim")]
    assert kept.records.bodies == {}


def test_kept_versions_stay_within_the_cap_least_recently_read_first(
    make_unit, make_session, monkeypatch
):
    """Patient records have six layout fields and their ids: two records are
    14 cells, so a cap of 30 keeps two such datasets, and six records do not
    fit."""
    monkeypatch.setattr(ccu, "OPENED_CELLS", 30)
    unit = make_unit()
    session = make_session(unit)
    assert len(unit._layouts["Patient"]) == 6
    sizes = {"a": 2, "b": 2, "c": 2, "big": 6}
    for name, size in sizes.items():
        _provision(unit, session, _records(size), name=name)
    counts = _counting(monkeypatch, unit)
    # each read, and whether it opens the blob
    reads = [
        ("a", 1), ("b", 1), ("a", 0), ("c", 1),  # c drops b, the least recently read
        ("a", 0), ("b", 1),  # b drops c
        ("big", 1), ("a", 0), ("b", 0), ("big", 1),  # big is not kept and drops nothing
        ("c", 1), ("a", 1),
    ]
    for name, opens in reads:
        counts.update(get=0, open=0)
        assert _decide(unit, session, name) == _oracle(_records(sizes[name]))
        assert counts == {"get": 2, "open": opens}, name
        assert sum(kept.cells for kept in unit._opened.values()) <= 30


# a function of no field: its structure's layout is empty
ALWAYS_POLICY = """
policy Always(Thing) {
    target clause Action == "decide"
    rule accessDecision {
        permit
        condition Role == "MedicalHub" && Country == "Italy"
    }
}
"""
ALWAYS_TABLE = {"name": "Always", "columns": [
    {"name": "Always", "kind": "output", "type": "string"},
], "rules": [{"conditions": [], "outputs": ["yes"]}]}


def test_kept_versions_of_an_empty_layout_count_their_ids(make_unit, make_session, monkeypatch):
    """Each record is a cell for its id, so a cap of 30 keeps three versions
    of ten records, not every one of them."""
    monkeypatch.setattr(ccu, "OPENED_CELLS", 30)
    unit = make_unit(bundle=CodeBundle.assemble(ALWAYS_POLICY, [ALWAYS_TABLE], []))
    assert unit._layouts["Thing"] == ()
    session = make_session(unit)
    records = _records(10)
    names = [f"things/{i}" for i in range(5)]
    for name in names:
        _provision(unit, session, records, name=name, structure="Thing")
        envelope, key = session.build_request("decision", {"funcName": "Always", "dataName": name})
        response = unit.handle("t-dec", envelope)
        assert response.status == "ok", response.error
        results = ClientSession.open_response(response, key)["results"]
        assert [r["values"] for r in results] == [["yes"]] * 10
    assert list(unit._opened) == [(name, "slim") for name in names[-3:]]
    assert sum(kept.cells for kept in unit._opened.values()) == 30


def _reseed(unit, make_session):
    unit.install_seed(generate_seed())
    return make_session(unit)


def _redeploy_other_code_then_reseed(unit, make_session):
    unit.deploy(dataclasses.replace(standard_bundle(), engine_tag="v2"))
    assert not unit.has_seed
    return _reseed(unit, make_session)


def _redeploy_another_layout(unit, make_session):
    """Another layout for Patient under the same seed: only the slim records,
    whose AAD binds the layout, must stop opening."""
    seed = unit._seed
    before = unit._layouts["Patient"]
    unit.deploy(bundle_reading_another_patient_field())
    assert unit._layouts["Patient"] != before
    unit.install_seed(seed)
    return make_session(unit)


@pytest.mark.parametrize("change", [
    _reseed, _redeploy_other_code_then_reseed, _redeploy_another_layout,
], ids=["new-seed", "other-code-new-seed", "other-layout"])
def test_records_never_outlive_their_seed_or_layout(make_unit, make_session, change):
    unit = make_unit()
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records)
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)

    session = change(unit, make_session)
    answer = _decide(unit, session, SLIM_NAME)
    assert isinstance(answer, str), "records read under the old seed or layout"
    assert "authentication" in answer


def test_a_unit_seeded_by_exchange_reads_the_other_units_dataset(make_unit, make_session):
    storage = StorageNode.in_memory()
    source = make_unit(name="unit-src", storage=storage)
    target = make_unit(name="unit-dst", storage=storage)
    records, own = _records(), _records(4)
    _provision(source, make_session(source), records)
    target_session = make_session(target)
    _provision(target, target_session, own, name="vax/own")
    assert _decide(target, target_session, "vax/own") == _oracle(own)

    exchange_seed(source, target)
    target_session = make_session(target)
    assert _decide(target, target_session, SLIM_NAME) == _oracle(records)
    answer = _decide(target, target_session, "vax/own")
    assert isinstance(answer, str) and "authentication" in answer


# --- the stored format -----------------------------------------------------------


# the AAD labels of the retired column-major blobs over a sealed field union,
# and of the row-major ones before them
V3 = b"confidec/record/v3:"
V2 = b"confidec/record/v2:"


def _aad_prefix(dataset, form, layout, label=V3):
    """A retired blob's AAD; a retired per-record blob's AAD went on with the
    record's id."""
    return label + length_prefixed(
        dataset.encode(), form.encode(), length_prefixed(*(f.encode() for f in layout))
    )


def _plaintext(records, layout):
    """A retired column-major blob's plaintext: the ids, then per field of
    layout (the structure's, or a full dataset's field union) the column of
    the records' values, null where a record lacks the field."""
    fields = [record_to_obj(record)["fields"] for record in records]
    return canonical_json([
        [record.id for record in records],
        [[f.get(field) for f in fields] for field in layout],
    ])


def _row_plaintext(records, layout):
    """A retired row-major blob's plaintext: the ids, then each record's
    values over layout, null where the record lacks the field."""
    return canonical_json([
        [record.id for record in records],
        [[record_to_obj(record)["fields"].get(field) for field in layout] for record in records],
    ])


def _union_aad(dataset):
    """The AAD of a full dataset's sealed field union."""
    return b"confidec/fields/v1:" + length_prefixed(dataset.encode())


def _field_union(records):
    return sorted({field for record in records for field in record.fields})


def _array(values):
    return json.dumps(values, separators=(",", ":"), ensure_ascii=False).encode()


def _full_plaintext(record, union):
    """A retired per-record blob's plaintext: the record's values over the
    dataset's field union, null where the record lacks the field."""
    return _array([record_to_obj(record)["fields"].get(field) for field in union])


def _wire(ct):
    """A `Ciphertext` laid out as the stored form: nonce || tag || body."""
    return ct.nonce + ct.tag + ct.body


def _ciphertext(blob):
    """A stored blob cut into the parts of a `Ciphertext`."""
    return Ciphertext(nonce=blob[:NONCE_LEN], tag=blob[NONCE_LEN:HEADER_LEN], body=blob[HEADER_LEN:])


def _store_the_old_way(unit, records, label=V3, plaintext=_plaintext):
    """Both forms in the retired shape of one randomizer per form: one blob
    each, under one manifest whose full part also seals the field union.
    label and plaintext give the blobs' AAD label and layout, column-major
    by default."""
    layout, union = unit._layouts["Patient"], _field_union(records)
    slim_t, full_t = secrets.token_bytes(16), secrets.token_bytes(16)
    slim_key, full_key = derive_record_key(unit._seed, slim_t), derive_record_key(unit._seed, full_t)
    slim = _wire(ae_encrypt(
        slim_key, plaintext(records, layout), aad=_aad_prefix(SLIM_NAME, "slim", layout, label)
    ))
    full = _wire(ae_encrypt(
        full_key, plaintext(records, union), aad=_aad_prefix(SLIM_NAME, "full", union, label)
    ))
    manifest = {
        "dataset": SLIM_NAME, "structure": "Patient",
        "slim": {"address": unit._storage.blobs.put(slim), "t": b64(slim_t)},
        "full": {
            "address": unit._storage.blobs.put(full), "t": b64(full_t),
            "fields": b64(_wire(ae_encrypt(full_key, _array(union), aad=_union_aad(SLIM_NAME)))),
        },
    }
    unit._storage.publish(SLIM_NAME, canonical_json(manifest))


def _store_slim_in_its_own_manifest(unit, records, **extra):
    """The slim form as units stored it when each form had its own manifest:
    one blob, published under `<name>` with a `form` key and no parts."""
    layout = unit._layouts["Patient"]
    t = secrets.token_bytes(16)
    blob = _wire(ae_encrypt(
        derive_record_key(unit._seed, t),
        _row_plaintext(records, layout),
        aad=_aad_prefix(SLIM_NAME, "slim", layout, V2),
    ))
    manifest = {
        "dataset": SLIM_NAME, "structure": "Patient", "form": "slim",
        "address": unit._storage.blobs.put(blob), "t": b64(t), **extra,
    }
    unit._storage.publish(SLIM_NAME, canonical_json(manifest))


def _store_full_per_record(unit, records):
    """The full form in the retired per-record shape, under `<name>.full`:
    the union under the manifest's randomizer, and each record as its own
    blob under its own randomizer, listed with its id in the manifest."""
    union = _field_union(records)
    prefix = _aad_prefix(FULL_NAME, "full", union, V2)
    manifest_t = secrets.token_bytes(16)
    sealed_union = _wire(ae_encrypt(
        derive_record_key(unit._seed, manifest_t), _array(union), aad=_union_aad(FULL_NAME)
    ))
    entries = []
    for record in records:
        t = secrets.token_bytes(16)
        blob = _wire(ae_encrypt(
            derive_record_key(unit._seed, t),
            _full_plaintext(record, union),
            aad=prefix + length_prefixed(record.id.encode()),
        ))
        entries.append({"id": record.id, "address": unit._storage.blobs.put(blob), "t": b64(t)})
    manifest = {
        "dataset": FULL_NAME, "structure": "Patient", "form": "full",
        "t": b64(manifest_t), "fields": b64(sealed_union), "records": entries,
    }
    unit._storage.publish(FULL_NAME, canonical_json(manifest))


def _store_full_in_light_mode(unit, records):
    """The full form as the retired light mode stored it, under
    `<name>.full`: the union and every record under the manifest's one key,
    entries without a `t`."""
    union = _field_union(records)
    prefix = _aad_prefix(FULL_NAME, "full", union, V2)
    t = secrets.token_bytes(16)
    key = derive_record_key(unit._seed, t)
    entries = []
    for record in records:
        blob = _wire(ae_encrypt(
            key, _full_plaintext(record, union), aad=prefix + length_prefixed(record.id.encode())
        ))
        entries.append({"id": record.id, "address": unit._storage.blobs.put(blob)})
    manifest = {
        "dataset": FULL_NAME, "structure": "Patient", "form": "full", "light": True,
        "t": b64(t), "fields": b64(_wire(ae_encrypt(key, _array(union), aad=_union_aad(FULL_NAME)))),
        "records": entries,
    }
    unit._storage.publish(FULL_NAME, canonical_json(manifest))


def _store_as_ciphertexts(unit, records, damage=None):
    """Both forms sealed as one `Ciphertext` each, built with `ae_encrypt`
    and laid out by `_wire`, under one manifest and one randomizer; damage,
    if given, rewrites each form's [fields, ids, columns] before sealing."""
    docs = [record_to_obj(record) for record in records]
    t = secrets.token_bytes(16)
    key = derive_record_key(unit._seed, t)
    manifest = {"dataset": SLIM_NAME, "structure": "Patient", "t": b64(t)}
    for form, fields in (("slim", unit._layouts["Patient"]), ("full", _field_union(records))):
        aad, plaintext = sealed_form(SLIM_NAME, form, fields, docs)
        if damage is not None:
            plaintext = canonical_json(damage(*json.loads(plaintext)))
        manifest[form] = unit._storage.blobs.put(_wire(ae_encrypt(key, plaintext, aad=aad)))
    unit._storage.publish(SLIM_NAME, canonical_json(manifest))


def test_records_sealed_as_ciphertexts_still_decide(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    records = _records(10)
    _store_as_ciphertexts(unit, records)
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)
    assert _decide(unit, session, FULL_NAME) == _oracle(records)


COLUMN_DAMAGE = {
    "one-column-too-few": lambda fields, ids, columns: [fields, ids, columns[:-1]],
    "a-column-short-of-the-ids": lambda fields, ids, columns: [
        fields, ids, [columns[0][:-1], *columns[1:]]
    ],
}


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
@pytest.mark.parametrize("damage", sorted(COLUMN_DAMAGE))
def test_a_blob_whose_columns_do_not_fit_its_fields_and_ids_is_malformed(
    make_unit, make_session, damage, name
):
    """The blob authenticates under the unit's record key, yet a column
    count other than its fields' or a column of another length than its ids
    is refused as one typed error."""
    unit = make_unit()
    session = make_session(unit)
    _store_as_ciphertexts(unit, _records(6), damage=COLUMN_DAMAGE[damage])
    assert _decide(unit, session, name) == "stored dataset is malformed"


def _store_slim_and_full_per_record(unit, records):
    _store_slim_in_its_own_manifest(unit, records)
    _store_full_per_record(unit, records)


def _store_both_in_light_mode(unit, records):
    _store_slim_in_its_own_manifest(unit, records, light=True)
    _store_full_in_light_mode(unit, records)


RETIRED_SHAPES = {
    "v3-one-randomizer-per-form": _store_the_old_way,
    "v2-row-major": lambda unit, records: _store_the_old_way(
        unit, records, label=V2, plaintext=_row_plaintext
    ),
    "slim-in-its-own-manifest": _store_slim_in_its_own_manifest,
    "full-per-record": _store_slim_and_full_per_record,
    "light-mode": _store_both_in_light_mode,
}


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
@pytest.mark.parametrize("shape", sorted(RETIRED_SHAPES))
def test_a_dataset_in_a_retired_shape_is_malformed_until_provisioned_again(
    make_unit, make_session, shape, name
):
    """A dataset as units stored it before: in either form the unit answers
    one typed error, whatever the blobs hold, and decides once the dataset
    is provisioned again."""
    unit = make_unit()
    session = make_session(unit)
    records = _records(6)
    RETIRED_SHAPES[shape](unit, records)
    assert _decide(unit, session, name) == "stored dataset is malformed"

    _provision(unit, session, records)
    assert _decide(unit, session, name) == _oracle(records)


@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME], ids=["slim", "full"])
def test_an_empty_dataset_answers_what_the_reference_does(make_unit, make_session, name):
    """No ids and empty columns: a table without aggregations decides no
    record, and a mean over no record is the reference's error."""
    unit = make_unit()
    session = make_session(unit)
    receipt = _provision(unit, session, [])
    assert receipt["slim"]["records"] == receipt["full"]["records"] == 0
    with pytest.raises(AggregationError) as raised:
        _oracle([])
    assert _decide(unit, session, name) == str(raised.value)

    envelope, key = session.build_request(
        "provision", {"dataName": "vax/centers", "structure": "VaccinationCenter", "records": []}
    )
    assert unit.handle("t-prov", envelope).status == "ok"
    restock = name.replace(SLIM_NAME, "vax/centers")
    envelope, key = session.build_request(
        "decision", {"funcName": "Restock", "dataName": restock}
    )
    response = unit.handle("t-dec", envelope)
    assert response.status == "ok", response.error
    answer = ClientSession.open_response(response, key)
    assert answer["results"] == decide_all(load_table("Restock"), []) == []


def test_provisioned_blobs_open_as_ciphertexts(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    records = _records(5)
    _provision(unit, session, records)
    manifest = _manifest(unit)
    key = derive_record_key(unit._seed, unb64(manifest["t"]))
    docs = [record_to_obj(record) for record in records]
    for form, fields in (("slim", unit._layouts["Patient"]), ("full", _field_union(records))):
        aad, plaintext = sealed_form(SLIM_NAME, form, fields, docs)
        blob = unit._storage.blobs.get(manifest[form])
        assert ae_decrypt(key, _ciphertext(blob), aad=aad) == plaintext


def test_provision_writes_the_receipt_manifests_and_chain_entries_it_always_has(
    make_unit, make_session
):
    """One manifest naming a blob per form, published once: one chain entry."""
    unit = make_unit()
    chain = unit._storage.chain
    notarized = len(chain)
    receipt = _provision(unit, make_session(unit), _records(5))
    assert set(receipt) == {"dataName", "structure", "address", "slim", "full"}
    assert (receipt["dataName"], receipt["structure"]) == (SLIM_NAME, "Patient")
    blobs = unit._storage.blobs
    manifest_bytes = blobs.get(receipt["address"])
    assert manifest_bytes == unit._storage.fetch(SLIM_NAME)
    manifest = json.loads(manifest_bytes)
    # one randomizer for the provision, and the address of each form's blob
    assert set(manifest) == {"dataset", "structure", "t", "slim", "full"}
    assert (manifest["dataset"], manifest["structure"]) == (SLIM_NAME, "Patient")
    assert manifest["slim"] != manifest["full"]
    for form in ("slim", "full"):
        stored = receipt[form]
        assert set(stored) == {"records", "storedBytes"} and stored["records"] == 5
        assert stored["storedBytes"] == len(manifest_bytes) + len(blobs.get(manifest[form]))
    assert [(entry.name, entry.address) for entry in chain.entries()[notarized:]] == [
        (SLIM_NAME, receipt["address"]),
    ]


# --- what a failed write leaves ---------------------------------------------------


def _decided_counts(unit, session):
    return [len(_decide(unit, session, name)) for name in (SLIM_NAME, FULL_NAME)]


@pytest.mark.parametrize("writes", range(4), ids=["full-blob", "slim-blob", "manifest", "chain"])
def test_a_provision_whose_write_fails_leaves_both_forms_at_the_last_version(
    make_unit, make_session, make_gateway, tmp_path, writes
):
    """The second provision's writes are the full blob, the slim blob, the
    manifest and the chain line; whichever fails, nothing is published and
    the unit, the directory and the chain stay at the first version."""
    unit = make_unit(storage=StorageNode.at_directory(tmp_path))
    session = make_session(unit)
    first = _records(50)
    _provision(unit, session, first)

    gateway = make_gateway(unit.handle)
    envelope, _ = session.build_request("provision", {
        "dataName": SLIM_NAME, "structure": "Patient",
        "records": [record_to_obj(r) for r in _records(40)],
    })
    with disk_full(after=writes):
        response = gateway.await_response(gateway.submit(envelope), 30)
    assert response.status == "error"
    assert _decided_counts(unit, session) == [50, 50]
    assert unit._storage.chain.verify_chain() is None and len(unit._storage.chain) == 1

    again = make_unit(storage=StorageNode.at_directory(tmp_path), seed=False)
    again.install_seed(unit._seed)
    assert _decided_counts(again, make_session(again)) == [50, 50]
    assert again._storage.chain.verify_chain() is None

    _provision(unit, session, _records(40))
    assert _decided_counts(unit, session) == [40, 40]


def test_each_provision_adds_one_chain_entry_and_no_full_name(make_unit, make_session, tmp_path):
    unit = make_unit(storage=StorageNode.at_directory(tmp_path))
    session = make_session(unit)
    for count, name in ((3, SLIM_NAME), (5, OTHER_NAME), (4, SLIM_NAME)):
        _provision(unit, session, _records(count), name=name)
    entries = StorageNode.at_directory(tmp_path).chain.entries()
    assert [entry.name for entry in entries] == [SLIM_NAME, OTHER_NAME, SLIM_NAME]
    for entry in entries:
        assert "form" not in json.loads(unit._storage.blobs.get(entry.address))
    assert unit._storage.chain.verify_chain() is None
