"""The record store: how provision seals records and a decision opens them.

Every check `Ccu.decrypt_data` makes on what the storage operator hands back
is pinned here: the blob content check, the AAD binding dataset, form, layout
and id, the per-record key, and the manifest's shape. Each tampering yields a
typed error envelope, never results and never `unit failure`.
"""

import dataclasses
import json
import secrets

import pytest

from conftest import bundle_reading_another_patient_field, standard_bundle

from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.aead import Ciphertext, ae_decrypt, ae_encrypt
from confidec.crypto.keys import derive_record_key
from confidec.dmn.engine import decide_all
from confidec.dmn.tables import record_to_obj
from confidec.enclave import ccu
from confidec.enclave.ccu import exchange_seed, generate_seed
from confidec.fixtures import load_patient_aggregations, load_table
from confidec.gateway.client import ClientSession
from confidec.storage.node import StorageNode
from confidec.storage.store import MemoryBlobStore
from confidec.util import b64, canonical_json, length_prefixed, unb64

SLIM_NAME = "vax/patients"
FULL_NAME = "vax/patients.full"


def _unit(make_unit, store, tmp_path, light=False):
    storage = StorageNode.in_memory() if store == "memory" else StorageNode.at_directory(tmp_path)
    return make_unit(storage=storage, allow_light=light)


def _records(count=6):
    return generate_vax(VaxSpec("Patient", count, 7))


def _provision(unit, session, records, light=False, name=SLIM_NAME):
    payload = {
        "dataName": name,
        "structure": "Patient",
        "records": [record_to_obj(r) for r in records],
    }
    if light:
        payload["lightEncryption"] = True
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


def _swap_addresses(unit, name, other):
    manifest = _manifest(unit, name)
    first, second = manifest["records"][:2]
    first["address"], second["address"] = second["address"], first["address"]
    _republish(unit, name, manifest)


def _swap_randomizers(unit, name, other):
    manifest = _manifest(unit, name)
    if manifest["light"]:
        # one randomizer per dataset: trade it with the other form's
        theirs = _manifest(unit, other)
        manifest["t"], theirs["t"] = theirs["t"], manifest["t"]
        _republish(unit, other, theirs)
    else:
        first, second = manifest["records"][:2]
        first["t"], second["t"] = second["t"], first["t"]
    _republish(unit, name, manifest)


def _flip_a_stored_byte(unit, name, other):
    address = _manifest(unit, name)["records"][1]["address"]
    blob = bytearray(unit._storage.blobs.get(address))
    blob[-1] ^= 0x01
    _overwrite(unit._storage, address, bytes(blob))


def _drop_a_blob(unit, name, other):
    _overwrite(unit._storage, _manifest(unit, name)["records"][2]["address"], None)


def _point_at_the_other_form(unit, name, other):
    manifest = _manifest(unit, name)
    manifest["records"][0]["address"] = _manifest(unit, other)["records"][0]["address"]
    _republish(unit, name, manifest)


TAMPERING = {
    "swapped-addresses": (_swap_addresses, "authentication"),
    "swapped-randomizers": (_swap_randomizers, "authentication"),
    "flipped-byte": (_flip_a_stored_byte, "content check"),
    "missing-blob": (_drop_a_blob, "no blob at"),
    "other-form-blob": (_point_at_the_other_form, "authentication"),
}


@pytest.mark.parametrize("tampering", sorted(TAMPERING))
@pytest.mark.parametrize("store", ["memory", "directory"])
@pytest.mark.parametrize("mode", ["heavy", "light"])
@pytest.mark.parametrize("form", ["slim", "full"])
def test_tampered_storage_yields_a_typed_error_never_results(
    make_unit, make_session, tmp_path, tampering, store, mode, form
):
    unit = _unit(make_unit, store, tmp_path, light=(mode == "light"))
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records, light=(mode == "light"))
    name, other = (SLIM_NAME, FULL_NAME) if form == "slim" else (FULL_NAME, SLIM_NAME)
    assert _decide(unit, session, name) == _oracle(records)

    tamper, phrase = TAMPERING[tampering]
    tamper(unit, name, other)
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
    manifest["records"][0]["t"] = "INJECTED!"


def _short_blob(unit, manifest):
    manifest["records"][0]["address"] = unit._storage.blobs.put(b"INJECTED-blob")


def _randomizer_not_a_string(unit, manifest):
    manifest["records"][0]["t"] = {"INJECTED": 1}


def _entry_not_an_object(unit, manifest):
    manifest["records"][0] = "INJECTED-entry"


def _dataset_not_a_string(unit, manifest):
    manifest["dataset"] = ["INJECTED-dataset"]


MALFORMED = {
    "entry-id-not-a-string": _entry_id_not_a_string,
    "no-records": _no_records,
    "records-not-a-list": _records_not_a_list,
    "undecodable-randomizer": _undecodable_randomizer,
    "short-blob": _short_blob,
    "randomizer-not-a-string": _randomizer_not_a_string,
    "entry-not-an-object": _entry_not_an_object,
    "dataset-not-a-string": _dataset_not_a_string,
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
    manifest = _manifest(unit, SLIM_NAME)
    MALFORMED[shape](unit, manifest)
    _republish(unit, SLIM_NAME, manifest)
    markers = ("INJECTED", "987654321")

    envelope, _ = _decision(session, SLIM_NAME)
    _assert_refused(unit.handle("t-direct", envelope), markers)

    gateway = make_gateway(unit.handle)
    envelope, _ = _decision(session, SLIM_NAME)
    _assert_refused(gateway.await_response(gateway.submit(envelope), 30), markers)


@pytest.mark.parametrize("text", [b"INJECTED{", b'["INJECTED"]'])
def test_a_manifest_that_is_not_an_object_is_a_typed_storage_error(make_unit, make_session, text):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session, _records())
    unit._storage.publish(SLIM_NAME, text)
    envelope, _ = _decision(session, SLIM_NAME)
    _assert_refused(unit.handle("t-direct", envelope), ["INJECTED"])


# --- keys ---------------------------------------------------------------------


@pytest.mark.parametrize("light", [False, True], ids=["heavy", "light"])
def test_light_datasets_derive_one_key_each(make_unit, make_session, monkeypatch, light):
    unit = make_unit(allow_light=True)
    session = make_session(unit)
    records = _records(9)
    calls = []

    def counting(seed, randomizer):
        calls.append(randomizer)
        return derive_record_key(seed, randomizer)

    monkeypatch.setattr(ccu, "derive_record_key", counting)
    _provision(unit, session, records, light=light)
    # two datasets, slim and full, each with its own randomizers
    assert len(calls) == (2 if light else 2 * len(records))
    assert len(set(calls)) == len(calls)

    for name in (SLIM_NAME, FULL_NAME):
        calls.clear()
        assert _decide(unit, session, name) == _oracle(records)
        assert len(calls) == (1 if light else len(records))


# --- records the unit remembers having opened -----------------------------------


def _counting(monkeypatch, unit):
    """Counts of the blob gets and AES-GCM opens decisions make from now on;
    a decision's gets are its manifest's and one per record."""
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


def _memo_records(unit):
    """How many opened records the unit remembers, checked against its count."""
    held = sum(len(generation) for generation in unit._opened.values())
    assert held == unit._opened_records
    return held


@pytest.mark.parametrize("mode", ["heavy", "light"])
@pytest.mark.parametrize("name", [SLIM_NAME, FULL_NAME])
def test_a_warm_decision_gets_every_blob_and_opens_none(
    make_unit, make_session, monkeypatch, mode, name
):
    unit = make_unit(allow_light=True)
    session = make_session(unit)
    records = _records(8)
    _provision(unit, session, records, light=(mode == "light"))
    assert unit._opened == {}  # provision remembers nothing
    counts = _counting(monkeypatch, unit)
    assert _decide(unit, session, name) == _oracle(records)
    assert counts == {"get": 1 + len(records), "open": len(records)}
    for _ in range(2):
        counts.update(get=0, open=0)
        assert _decide(unit, session, name) == _oracle(records)
        assert counts == {"get": 1 + len(records), "open": 0}


@pytest.mark.parametrize("mode", ["heavy", "light"])
def test_a_remembered_record_needs_its_id_as_well_as_its_address_and_randomizer(
    make_unit, make_session, mode
):
    unit = make_unit(allow_light=True)
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records, light=(mode == "light"))
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)
    manifest = _manifest(unit, SLIM_NAME)
    first, second = manifest["records"][:2]
    first["id"], second["id"] = second["id"], first["id"]
    _republish(unit, SLIM_NAME, manifest)
    answer = _decide(unit, session, SLIM_NAME)
    assert isinstance(answer, str) and "authentication" in answer


def test_reordered_entries_give_the_same_results_by_record_id(
    make_unit, make_session, monkeypatch
):
    unit = make_unit()
    session = make_session(unit)
    records = _records(8)
    _provision(unit, session, records)
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)
    manifest = _manifest(unit, SLIM_NAME)
    manifest["records"].reverse()
    _republish(unit, SLIM_NAME, manifest)
    counts = _counting(monkeypatch, unit)
    answer = _decide(unit, session, SLIM_NAME)
    assert [r["recordId"] for r in answer] == [r.id for r in reversed(records)]
    assert answer == list(reversed(_oracle(records)))
    assert counts == {"get": 1 + len(records), "open": 0}


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
@pytest.mark.parametrize("mode", ["heavy", "light"])
def test_remembered_records_never_outlive_their_seed_or_layout(
    make_unit, make_session, change, mode
):
    unit = make_unit(allow_light=True)
    session = make_session(unit)
    records = _records()
    _provision(unit, session, records, light=(mode == "light"))
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)
    assert _memo_records(unit) == len(records)

    session = change(unit, make_session)
    assert _memo_records(unit) == 0
    answer = _decide(unit, session, SLIM_NAME)
    assert isinstance(answer, str), "records remembered under the old seed or layout"
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
    assert _memo_records(target) == len(own)

    exchange_seed(source, target)
    target_session = make_session(target)
    assert _decide(target, target_session, SLIM_NAME) == _oracle(records)
    answer = _decide(target, target_session, "vax/own")
    assert isinstance(answer, str) and "authentication" in answer


def test_the_unit_remembers_at_most_the_cap_of_records(make_unit, make_session, monkeypatch):
    cap = 10
    monkeypatch.setattr(ccu, "OPENED_RECORDS_CAP", cap)
    unit = make_unit()
    session = make_session(unit)
    datasets = {f"vax/part{i}": _records(4) for i in range(4)}
    for name, records in datasets.items():
        _provision(unit, session, records, name=name)
    counts = _counting(monkeypatch, unit)

    # more datasets than the cap holds, read in turn: the least recently
    # read is forgotten first
    for _ in range(2):
        for name, records in datasets.items():
            counts["open"] = 0
            assert _decide(unit, session, name) == _oracle(records)
            assert counts["open"] == len(records)
            assert _memo_records(unit) <= cap
    # a read makes its dataset the most recently read: part2, read again,
    # outlives part3, read after it the first time
    for name, opens in (("vax/part3", 0), ("vax/part2", 0), ("vax/part0", 4),
                        ("vax/part2", 0), ("vax/part3", 4)):
        counts["open"] = 0
        assert _decide(unit, session, name) == _oracle(datasets[name])
        assert counts["open"] == opens

    # a dataset larger than the cap is opened in full on every read
    large = _records(cap + 2)
    _provision(unit, session, large, name="vax/large")
    for _ in range(2):
        counts["open"] = 0
        assert _decide(unit, session, "vax/large") == _oracle(large)
        assert counts["open"] == len(large)
        assert _memo_records(unit) <= cap
    # and evicts no other dataset
    counts["open"] = 0
    assert _decide(unit, session, "vax/part3") == _oracle(datasets["vax/part3"])
    assert counts["open"] == 0


# --- the stored format -----------------------------------------------------------


def _aad_prefix(dataset, form, layout):
    """The record AAD up to the id, written from the stored format itself."""
    return b"confidec/record/v2:" + length_prefixed(
        dataset.encode(), form.encode(), length_prefixed(*(f.encode() for f in layout))
    )


def _store_the_old_way(unit, name, form, records, light):
    """One dataset stored as a `Ciphertext` per record, with `ae_encrypt`,
    `to_bytes` and `length_prefixed` building each blob and AAD."""
    layout = unit._layouts["Patient"] if form == "slim" else ()
    prefix = _aad_prefix(name, form, layout)
    shared_t = secrets.token_bytes(16)
    entries = []
    for record in records:
        doc = record_to_obj(record)
        if form == "slim":
            doc = [doc["fields"].get(field) for field in layout]
        t = shared_t if light else secrets.token_bytes(16)
        blob = ae_encrypt(
            derive_record_key(unit._seed, t),
            canonical_json(doc),
            aad=prefix + length_prefixed(record.id.encode()),
        ).to_bytes()
        entry = {"id": record.id, "address": unit._storage.blobs.put(blob)}
        if not light:
            entry["t"] = b64(t)
        entries.append(entry)
    manifest = {
        "dataset": name, "structure": "Patient", "form": form, "light": light,
        "records": entries,
    }
    if light:
        manifest["t"] = b64(shared_t)
    unit._storage.publish(name, canonical_json(manifest))


@pytest.mark.parametrize("light", [False, True], ids=["heavy", "light"])
def test_records_sealed_as_ciphertexts_still_decide(make_unit, make_session, light):
    unit = make_unit()
    session = make_session(unit)
    records = _records(10)
    _store_the_old_way(unit, FULL_NAME, "full", records, light)
    _store_the_old_way(unit, SLIM_NAME, "slim", records, light)
    assert _decide(unit, session, SLIM_NAME) == _oracle(records)
    assert _decide(unit, session, FULL_NAME) == _oracle(records)


@pytest.mark.parametrize("light", [False, True], ids=["heavy", "light"])
def test_provisioned_blobs_open_as_ciphertexts(make_unit, make_session, light):
    unit = make_unit(allow_light=True)
    session = make_session(unit)
    records = _records(5)
    _provision(unit, session, records, light=light)
    layout = unit._layouts["Patient"]
    for name, form in ((SLIM_NAME, "slim"), (FULL_NAME, "full")):
        manifest = _manifest(unit, name)
        prefix = _aad_prefix(name, form, layout if form == "slim" else ())
        for record, entry in zip(records, manifest["records"]):
            t = unb64(manifest["t"] if light else entry["t"])
            plaintext = ae_decrypt(
                derive_record_key(unit._seed, t),
                Ciphertext.from_bytes(unit._storage.blobs.get(entry["address"])),
                aad=prefix + length_prefixed(record.id.encode()),
            )
            doc = record_to_obj(record)
            if form == "slim":
                doc = [doc["fields"].get(field) for field in layout]
            assert plaintext == canonical_json(doc)


@pytest.mark.parametrize("light", [False, True], ids=["heavy", "light"])
def test_provision_writes_the_receipt_manifests_and_chain_entries_it_always_has(
    make_unit, make_session, light
):
    unit = make_unit(allow_light=True)
    chain = unit._storage.chain
    notarized = len(chain)
    receipt = _provision(unit, make_session(unit), _records(5), light=light)
    assert set(receipt) == {"dataName", "structure", "light", "slim", "full"}
    assert (receipt["dataName"], receipt["structure"], receipt["light"]) == (
        SLIM_NAME, "Patient", light
    )
    blobs = unit._storage.blobs
    for form, name in (("full", FULL_NAME), ("slim", SLIM_NAME)):
        stored = receipt[form]
        assert set(stored) == {"name", "address", "records", "storedBytes"}
        assert (stored["name"], stored["records"]) == (name, 5)
        manifest_bytes = blobs.get(stored["address"])
        assert manifest_bytes == unit._storage.fetch(name)
        manifest = json.loads(manifest_bytes)
        keys = {"dataset", "structure", "form", "light", "records"}
        assert set(manifest) == (keys | {"t"} if light else keys)
        assert (manifest["dataset"], manifest["form"], manifest["light"]) == (name, form, light)
        assert stored["storedBytes"] == len(manifest_bytes) + sum(
            len(blobs.get(entry["address"])) for entry in manifest["records"]
        )
    assert [(entry.name, entry.address) for entry in chain.entries()[notarized:]] == [
        (FULL_NAME, receipt["full"]["address"]),
        (SLIM_NAME, receipt["slim"]["address"]),
    ]
