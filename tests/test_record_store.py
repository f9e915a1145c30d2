"""The record store: how provision seals records and a decision opens them.

Every check `Ccu.decrypt_data` makes on what the storage operator hands back
is pinned here: the blob content check, the AAD binding dataset, form, layout
and (for a full record) id, the per-blob key, and the manifest's shape. Each
tampering yields a typed error envelope, never results and never
`unit failure`.

A slim dataset is one blob of all its ids and layout rows; a full dataset is
one blob per record, each holding the record's values over the dataset's
field union, which its manifest keeps sealed.
"""

import dataclasses
import json
import secrets

import pytest

from conftest import bundle_reading_another_patient_field, standard_bundle

from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.aead import HEADER_LEN, NONCE_LEN, Ciphertext, ae_decrypt, ae_encrypt
from confidec.crypto.keys import derive_record_key
from confidec.dmn.engine import decide_all
from confidec.dmn.tables import parse_record, record_to_obj
from confidec.enclave import ccu
from confidec.enclave.ccu import exchange_seed, generate_seed
from confidec.errors import TableValidationError
from confidec.fixtures import load_patient_aggregations, load_table
from confidec.gateway.client import ClientSession
from confidec.storage.node import StorageNode
from confidec.storage.store import MemoryBlobStore
from confidec.util import b64, canonical_json, length_prefixed, unb64

SLIM_NAME = "vax/patients"
FULL_NAME = "vax/patients.full"
# another dataset of the same structure, so of the same layout
OTHER_SLIM = "vax/others"
OTHER_FULL = "vax/others.full"


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


def _manifest(unit, name):
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


def _slot(manifest, index=0):
    """Where a manifest names a blob: a slim manifest itself, or the entry of
    a full manifest's record at index."""
    return manifest if manifest["form"] == "slim" else manifest["records"][index]


def _swap_addresses(unit, name, other_form, other_dataset):
    manifest = _manifest(unit, name)
    if manifest["form"] == "full":
        first, second = manifest["records"][:2]
        first["address"], second["address"] = second["address"], first["address"]
    else:
        # the slim blob traded with a record of the full form
        theirs = _manifest(unit, other_form)
        entry = theirs["records"][0]
        manifest["address"], entry["address"] = entry["address"], manifest["address"]
        _republish(unit, other_form, theirs)
    _republish(unit, name, manifest)


def _swap_randomizers(unit, name, other_form, other_dataset):
    manifest = _manifest(unit, name)
    if manifest["form"] == "slim":
        # one randomizer per dataset: trade it with another dataset's
        theirs = _manifest(unit, other_dataset)
        manifest["t"], theirs["t"] = theirs["t"], manifest["t"]
        _republish(unit, other_dataset, theirs)
    else:
        first, second = manifest["records"][:2]
        first["t"], second["t"] = second["t"], first["t"]
    _republish(unit, name, manifest)


def _flip_a_stored_byte(unit, name, other_form, other_dataset):
    address = _slot(_manifest(unit, name), 1)["address"]
    blob = bytearray(unit._storage.blobs.get(address))
    blob[-1] ^= 0x01
    _overwrite(unit._storage, address, bytes(blob))


def _drop_a_blob(unit, name, other_form, other_dataset):
    _overwrite(unit._storage, _slot(_manifest(unit, name), 2)["address"], None)


def _drop_a_randomizer(unit, name, other_form, other_dataset):
    """The slim blob's randomizer, or one full record's: a full manifest that
    light mode wrote had no entry randomizers."""
    manifest = _manifest(unit, name)
    del _slot(manifest, 1)["t"]
    _republish(unit, name, manifest)


def _point_at_the_other_form(unit, name, other_form, other_dataset):
    manifest = _manifest(unit, name)
    _slot(manifest)["address"] = _slot(_manifest(unit, other_form))["address"]
    _republish(unit, name, manifest)


def _point_at_another_dataset(unit, name, other_form, other_dataset):
    """The blob, and its randomizer where it has its own, of another dataset
    in the same form, structure and layout."""
    manifest = _manifest(unit, name)
    slot, theirs = _slot(manifest), _slot(_manifest(unit, other_dataset))
    slot.update({key: theirs[key] for key in ("address", "t") if key in theirs})
    _republish(unit, name, manifest)


TAMPERING = {
    "swapped-addresses": (_swap_addresses, "authentication"),
    "swapped-randomizers": (_swap_randomizers, "authentication"),
    "dropped-randomizer": (_drop_a_randomizer, "malformed"),
    "flipped-byte": (_flip_a_stored_byte, "content check"),
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
    unit = _unit(make_unit, store, tmp_path)
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records)
    others = generate_vax(VaxSpec("Patient", 4, 8))
    _provision(unit, session, others, name=OTHER_SLIM)
    if form == "slim":
        name, other_form, other_dataset = SLIM_NAME, FULL_NAME, OTHER_SLIM
    else:
        name, other_form, other_dataset = FULL_NAME, SLIM_NAME, OTHER_FULL
    assert _decide(unit, session, name) == _oracle(records)
    assert _decide(unit, session, other_dataset) == _oracle(others)

    tamper, phrase = TAMPERING[tampering]
    tamper(unit, name, other_form, other_dataset)
    answer = _decide(unit, session, name)
    assert isinstance(answer, str), "a tampered dataset gave results"
    assert phrase in answer


# --- manifests of the wrong shape ----------------------------------------------


def _entry_id_not_a_string(unit, manifest):
    manifest["records"][0]["id"] = ["INJECTED-id"]


def _no_records(unit, manifest):
    manifest["INJECTED-records"] = manifest.pop("records")


def _records_not_a_list(unit, manifest):
    manifest["records"] = 987654321


def _undecodable_randomizer(unit, manifest):
    _slot(manifest)["t"] = "INJECTED!"


def _short_blob(unit, manifest):
    _slot(manifest)["address"] = unit._storage.blobs.put(b"INJECTED-blob")


def _randomizer_not_a_string(unit, manifest):
    manifest["records"][0]["t"] = {"INJECTED": 1}


def _entry_not_an_object(unit, manifest):
    manifest["records"][0] = "INJECTED-entry"


def _dataset_not_a_string(unit, manifest):
    manifest["dataset"] = ["INJECTED-dataset"]


def _address_not_a_string(unit, manifest):
    manifest["address"] = ["INJECTED-address"]


def _no_union(unit, manifest):
    manifest["INJECTED-fields"] = manifest.pop("fields")


def _union_not_a_string(unit, manifest):
    manifest["fields"] = ["INJECTED-field"]


def _undecodable_union(unit, manifest):
    manifest["fields"] = "INJECTED!"


def _per_record_entries(unit, manifest):
    """A slim manifest in the per-record shape of the full form: there is no
    second way to read the slim form."""
    manifest["records"] = [{"id": "INJECTED-id", "address": manifest.pop("address"),
                            "t": manifest.pop("t")}]


MALFORMED = {
    "entry-id-not-a-string": (FULL_NAME, _entry_id_not_a_string),
    "no-records": (FULL_NAME, _no_records),
    "records-not-a-list": (FULL_NAME, _records_not_a_list),
    "undecodable-randomizer": (FULL_NAME, _undecodable_randomizer),
    "short-blob": (FULL_NAME, _short_blob),
    "randomizer-not-a-string": (FULL_NAME, _randomizer_not_a_string),
    "entry-not-an-object": (FULL_NAME, _entry_not_an_object),
    "no-union": (FULL_NAME, _no_union),
    "union-not-a-string": (FULL_NAME, _union_not_a_string),
    "undecodable-union": (FULL_NAME, _undecodable_union),
    "dataset-not-a-string": (SLIM_NAME, _dataset_not_a_string),
    "slim-address-not-a-string": (SLIM_NAME, _address_not_a_string),
    "slim-undecodable-randomizer": (SLIM_NAME, _undecodable_randomizer),
    "slim-short-blob": (SLIM_NAME, _short_blob),
    "slim-per-record-entries": (SLIM_NAME, _per_record_entries),
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
    name, malform = MALFORMED[shape]
    manifest = _manifest(unit, name)
    malform(unit, manifest)
    _republish(unit, name, manifest)
    markers = ("INJECTED", "987654321")

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


# --- the sealed field union of a full dataset ------------------------------------


def _union_from_another_dataset(unit, manifest):
    theirs = _manifest(unit, OTHER_FULL)
    manifest.update(fields=theirs["fields"], t=theirs["t"])


def _union_of_an_earlier_version(unit, manifest):
    """The union, and its randomizer, the dataset had before it was
    provisioned again with one more field: it opens, being the same
    dataset's, but the records bind the new union."""
    earlier = _manifest(unit, FULL_NAME + ".earlier")
    manifest.update(fields=earlier["fields"], t=earlier["t"])


def _union_byte_flipped(unit, manifest):
    sealed = bytearray(unb64(manifest["fields"]))
    sealed[-1] ^= 0x01
    manifest["fields"] = b64(bytes(sealed))


def _union_dropped(unit, manifest):
    del manifest["fields"]


UNION_TAMPERING = {
    "from-another-dataset": (_union_from_another_dataset, "authentication"),
    "swapped-for-an-earlier-version": (_union_of_an_earlier_version, "authentication"),
    "flipped-byte": (_union_byte_flipped, "authentication"),
    "dropped": (_union_dropped, "malformed"),
}


@pytest.mark.parametrize("tampering", sorted(UNION_TAMPERING))
def test_a_tampered_field_union_yields_a_typed_error_never_results(
    make_unit, make_session, tampering
):
    unit = make_unit()
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records)
    # keep this version's manifest, then provision again with one more field
    unit._storage.publish(FULL_NAME + ".earlier", unit._storage.fetch(FULL_NAME))
    _provision(unit, session, [
        dataclasses.replace(r, fields=dict(r.fields, Extra=1)) for r in records
    ])
    _provision(unit, session, generate_vax(VaxSpec("Patient", 4, 8)), name=OTHER_SLIM)
    assert _decide(unit, session, FULL_NAME) == _oracle(records)

    tamper, phrase = UNION_TAMPERING[tampering]
    manifest = _manifest(unit, FULL_NAME)
    tamper(unit, manifest)
    _republish(unit, FULL_NAME, manifest)
    answer = _decide(unit, session, FULL_NAME)
    assert isinstance(answer, str), "a tampered field union gave results"
    assert phrase in answer


def test_no_field_name_or_value_the_client_sent_is_stored_in_clear(
    make_unit, make_session, tmp_path
):
    """Every byte a directory store keeps: manifests, blobs, the names and
    the chain. Record ids stay out of the check: a full manifest still lists
    them in clear, so these ids carry no marker."""
    unit = make_unit(storage=StorageNode.at_directory(tmp_path))
    records = [
        dataclasses.replace(record, fields=dict(
            record.fields, **{f"SECRET-name-{i}": f"SECRET-value-{i}", "Notes": f"SECRET-note-{i}"}
        ))
        for i, record in enumerate(_records())
    ]
    _provision(unit, make_session(unit), records)
    stored = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert len(stored) > len(records)
    for path in stored:
        assert b"SECRET-" not in path.read_bytes(), path.relative_to(tmp_path)


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


# --- keys ---------------------------------------------------------------------


@pytest.mark.parametrize("extra", [
    {},
    {"lightEncryption": True},
    {"lightEncryption": False},
    {"lightEncryption": "false"},
    {"lightEncryption": 1},
    {"lightEncryption": None},
], ids=["plain", "light-key", "light-key-false", "light-key-string", "light-key-one", "light-key-null"])
def test_every_full_record_and_slim_blob_derives_its_own_key(
    make_unit, make_session, monkeypatch, extra
):
    """A payload still naming the retired `lightEncryption` gets no special
    handling: the key goes unread whatever its value, and the data gets
    per-record keys."""
    unit = make_unit()
    session = make_session(unit)
    records = _records(9)
    calls = []

    def counting(seed, randomizer):
        calls.append(randomizer)
        return derive_record_key(seed, randomizer)

    monkeypatch.setattr(ccu, "derive_record_key", counting)
    receipt = _provision(unit, session, records, **extra)
    # one key for the slim blob; the full form has one for its union and
    # one per record; every randomizer fresh
    full_keys = 1 + len(records)
    assert len(calls) == 1 + full_keys
    assert len(set(calls)) == len(calls)
    assert "light" not in receipt
    for name in (SLIM_NAME, FULL_NAME):
        assert "light" not in _manifest(unit, name)

    for name, keys in ((SLIM_NAME, 1), (FULL_NAME, full_keys)):
        calls.clear()
        assert _decide(unit, session, name) == _oracle(records)
        assert len(calls) == keys


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


def test_a_slim_decision_gets_and_opens_one_blob(make_unit, make_session, monkeypatch):
    unit = make_unit()
    session = make_session(unit)
    records = _records(8)
    _provision(unit, session, records)
    counts = _counting(monkeypatch, unit)
    for _ in range(2):
        counts.update(get=0, open=0)
        assert _decide(unit, session, SLIM_NAME) == _oracle(records)
        assert counts == {"get": 2, "open": 1}


def test_reordered_entries_give_the_same_results_by_record_id(
    make_unit, make_session, monkeypatch
):
    unit = make_unit()
    session = make_session(unit)
    records = _records(8)
    _provision(unit, session, records)
    assert _decide(unit, session, FULL_NAME) == _oracle(records)
    manifest = _manifest(unit, FULL_NAME)
    manifest["records"].reverse()
    _republish(unit, FULL_NAME, manifest)
    counts = _counting(monkeypatch, unit)
    answer = _decide(unit, session, FULL_NAME)
    assert [r["recordId"] for r in answer] == [r.id for r in reversed(records)]
    assert answer == list(reversed(_oracle(records)))
    # the field union is sealed in the manifest: one more open, no more gets
    assert counts == {"get": 1 + len(records), "open": 1 + len(records)}


@pytest.mark.parametrize("form", ["slim", "full"])
def test_a_manifest_republished_under_another_name_is_refused_before_any_blob_get(
    make_unit, make_session, monkeypatch, form
):
    unit = make_unit()
    session = make_session(unit)
    records, others = _records(), generate_vax(VaxSpec("Patient", 4, 8))
    _provision(unit, session, records)
    _provision(unit, session, others, name=OTHER_SLIM)
    name, theirs = (SLIM_NAME, OTHER_SLIM) if form == "slim" else (FULL_NAME, OTHER_FULL)
    # the operator binds the name to the other dataset's manifest bytes,
    # which the notarization chain records as an ordinary publication
    unit._storage.publish(name, unit._storage.fetch(theirs))
    assert unit._storage.chain.verify_chain() is None

    counts = _counting(monkeypatch, unit)
    answer = _decide(unit, session, name)
    assert isinstance(answer, str), "a decision answered from another dataset"
    assert "names another dataset" in answer
    assert counts == {"get": 1, "open": 0}  # the manifest's own get only


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


def _aad_prefix(dataset, form, layout):
    """The slim blob's AAD, or a full record's up to the id, written from the
    stored format itself."""
    return b"confidec/record/v2:" + length_prefixed(
        dataset.encode(), form.encode(), length_prefixed(*(f.encode() for f in layout))
    )


def _slim_plaintext(records, layout):
    """A slim blob's plaintext: the ids, then each record's layout values."""
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
    """A full blob's plaintext: the record's values over the dataset's field
    union, null where the record lacks the field."""
    return _array([record_to_obj(record)["fields"].get(field) for field in union])


def _wire(ct):
    """A `Ciphertext` laid out as the stored form: nonce || tag || body."""
    return ct.nonce + ct.tag + ct.body


def _ciphertext(blob):
    """A stored blob cut into the parts of a `Ciphertext`."""
    return Ciphertext(nonce=blob[:NONCE_LEN], tag=blob[NONCE_LEN:HEADER_LEN], body=blob[HEADER_LEN:])


def _store_full_the_old_way(unit, records):
    """The full form stored as a `Ciphertext` per record and one for the
    field union, with `ae_encrypt`, `_wire` and `length_prefixed` building
    each blob and AAD."""
    union = _field_union(records)
    prefix = _aad_prefix(FULL_NAME, "full", union)
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


def _store_slim_the_old_way(unit, records):
    """The slim form stored as one `Ciphertext` built with `ae_encrypt`."""
    layout = unit._layouts["Patient"]
    t = secrets.token_bytes(16)
    blob = _wire(ae_encrypt(
        derive_record_key(unit._seed, t),
        _slim_plaintext(records, layout),
        aad=_aad_prefix(SLIM_NAME, "slim", layout),
    ))
    manifest = {
        "dataset": SLIM_NAME, "structure": "Patient", "form": "slim",
        "address": unit._storage.blobs.put(blob), "t": b64(t),
    }
    unit._storage.publish(SLIM_NAME, canonical_json(manifest))


def _store_full_in_light_mode(unit, records):
    """The full form as the retired light mode stored it: the union and every
    record under the manifest's one key, entries without a `t`."""
    union = _field_union(records)
    prefix = _aad_prefix(FULL_NAME, "full", union)
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


def test_a_full_dataset_stored_in_light_mode_is_malformed_until_provisioned_again(
    make_unit, make_session
):
    unit = make_unit()
    session = make_session(unit)
    records = _records(6)
    _store_full_in_light_mode(unit, records)
    assert _decide(unit, session, FULL_NAME) == "stored dataset is malformed"

    _provision(unit, session, records)
    assert _decide(unit, session, FULL_NAME) == _oracle(records)


def test_a_slim_dataset_stored_in_light_mode_still_decides(make_unit, make_session):
    """Light mode stored the slim form as one blob under its own randomizer,
    as now; only its manifest's `light` flag differs, and it goes unread."""
    unit = make_unit()
    session = make_session(unit)
    records = _records(6)
    _store_slim_the_old_way(unit, records)
    _republish(unit, SLIM_NAME, dict(_manifest(unit, SLIM_NAME), light=True))
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)


def test_records_sealed_as_ciphertexts_still_decide(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    records = _records(10)
    _store_full_the_old_way(unit, records)
    _store_slim_the_old_way(unit, records)
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)
    assert _decide(unit, session, FULL_NAME) == _oracle(records)


def test_provisioned_blobs_open_as_ciphertexts(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    records = _records(5)
    _provision(unit, session, records)
    blobs = unit._storage.blobs
    layout = unit._layouts["Patient"]

    slim = _manifest(unit, SLIM_NAME)
    plaintext = ae_decrypt(
        derive_record_key(unit._seed, unb64(slim["t"])),
        _ciphertext(blobs.get(slim["address"])),
        aad=_aad_prefix(SLIM_NAME, "slim", layout),
    )
    assert plaintext == _slim_plaintext(records, layout)

    full = _manifest(unit, FULL_NAME)
    union = ae_decrypt(
        derive_record_key(unit._seed, unb64(full["t"])),
        _ciphertext(unb64(full["fields"])),
        aad=_union_aad(FULL_NAME),
    )
    assert union == _array(_field_union(records))
    prefix = _aad_prefix(FULL_NAME, "full", _field_union(records))
    for record, entry in zip(records, full["records"]):
        plaintext = ae_decrypt(
            derive_record_key(unit._seed, unb64(entry["t"])),
            _ciphertext(blobs.get(entry["address"])),
            aad=prefix + length_prefixed(record.id.encode()),
        )
        assert plaintext == _full_plaintext(record, _field_union(records))


def test_provision_writes_the_receipt_manifests_and_chain_entries_it_always_has(
    make_unit, make_session
):
    unit = make_unit()
    chain = unit._storage.chain
    notarized = len(chain)
    receipt = _provision(unit, make_session(unit), _records(5))
    assert set(receipt) == {"dataName", "structure", "slim", "full"}
    assert (receipt["dataName"], receipt["structure"]) == (SLIM_NAME, "Patient")
    blobs = unit._storage.blobs
    for form, name in (("full", FULL_NAME), ("slim", SLIM_NAME)):
        stored = receipt[form]
        assert set(stored) == {"name", "address", "records", "storedBytes"}
        assert (stored["name"], stored["records"]) == (name, 5)
        manifest_bytes = blobs.get(stored["address"])
        assert manifest_bytes == unit._storage.fetch(name)
        manifest = json.loads(manifest_bytes)
        assert (manifest["dataset"], manifest["form"]) == (name, form)
        keys = {"dataset", "structure", "form"}
        if form == "slim":
            # one blob and its own randomizer
            assert set(manifest) == keys | {"address", "t"}
            addresses = [manifest["address"]]
        else:
            # the sealed field union and the randomizer of its key, then one
            # entry per record with the record's own randomizer
            assert set(manifest) == keys | {"t", "fields", "records"}
            assert all(set(entry) == {"id", "address", "t"} for entry in manifest["records"])
            addresses = [entry["address"] for entry in manifest["records"]]
        assert stored["storedBytes"] == len(manifest_bytes) + sum(
            len(blobs.get(address)) for address in addresses
        )
    assert [(entry.name, entry.address) for entry in chain.entries()[notarized:]] == [
        (FULL_NAME, receipt["full"]["address"]),
        (SLIM_NAME, receipt["slim"]["address"]),
    ]
