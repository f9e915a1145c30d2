"""Measured deployment, sealing, attestation, seed exchange, provisioning."""

import dataclasses
import json
import secrets
import subprocess
import sys

import pytest

from conftest import (
    BUNDLED_FUNCS,
    bundle_reading_another_patient_field,
    child_env,
    standard_bundle,
)
from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.keys import SigningKeyPair
from confidec.crypto.certs import issue_certificate
from confidec.dmn import engine, program
from confidec.dmn.engine import decide_all
from confidec.dmn.tables import record_to_obj
from confidec.enclave import ccu
from confidec.enclave.attestation import (
    Evidence,
    issue_channel_certificate,
    verify_ccu,
)
from confidec.enclave.ccu import Ccu, exchange_seed, generate_seed
from confidec.enclave.measurement import CodeBundle, compute_measurement
from confidec.enclave.sealing import load_or_create_platform_secret, seal, unseal
from confidec.errors import (
    AttestationError,
    ChannelCertificateError,
    ConfidecError,
    ReportError,
    SealingError,
    ServiceBuildError,
    StorageError,
    UnitCertificateError,
)
from confidec.fixtures import (
    load_patient_aggregation_docs,
    load_patient_aggregations,
    load_policy_text,
    load_table,
    load_table_doc,
)
from confidec.gateway.client import ClientSession
from confidec.service import builder
from confidec.storage.node import StorageNode
from confidec.util import utcnow

SECRET = secrets.token_bytes(32)
IDENTITY = b"\x11" * 32


def _patient_objs(count=12):
    return [record_to_obj(r) for r in generate_vax(VaxSpec("Patient", count))]


def _provision(unit, session, name="vax/patients", structure="Patient",
               records=None, correlation="t-prov"):
    payload = {
        "dataName": name,
        "structure": structure,
        "records": records if records is not None else _patient_objs(),
    }
    envelope, key = session.build_request("provision", payload)
    response = unit.handle(correlation, envelope)
    return response, key


# --- code measurement ---------------------------------------------------


def test_equal_bundles_measure_equal():
    assert compute_measurement(standard_bundle()) == compute_measurement(standard_bundle())


def test_document_key_order_does_not_change_the_measurement():
    doc = load_table_doc("Restock")
    shuffled = {k: doc[k] for k in reversed(list(doc))}
    one = CodeBundle.assemble(load_policy_text(), [doc], load_patient_aggregation_docs())
    two = CodeBundle.assemble(load_policy_text(), [shuffled], load_patient_aggregation_docs())
    assert compute_measurement(one) == compute_measurement(two)


def test_measurement_tracks_every_bundle_part():
    base = standard_bundle()
    variants = [
        dataclasses.replace(base, policy_text=base.policy_text + "\n"),
        dataclasses.replace(base, tables_json=base.tables_json.replace("High", "Hugh")),
        dataclasses.replace(base, aggregations_json="[]"),
        dataclasses.replace(base, engine_tag=base.engine_tag + ".post1"),
    ]
    digests = {compute_measurement(b) for b in [base] + variants}
    assert len(digests) == 5


def test_deploy_returns_the_measurement(make_unit):
    unit = make_unit()
    assert unit.measurement == compute_measurement(standard_bundle())
    assert unit.service_names() == sorted(BUNDLED_FUNCS)


def test_deploy_rejects_policy_without_table():
    bundle = CodeBundle.assemble(
        load_policy_text(),
        [load_table_doc("Restock")],  # two policies left without tables
        load_patient_aggregation_docs(),
    )
    unit = Ccu.boot("u", SigningKeyPair.generate(), SECRET, StorageNode.in_memory())
    with pytest.raises(ServiceBuildError, match="no table for policy"):
        unit.deploy(bundle)


# --- sealing -------------------------------------------------------------


def test_seal_unseal_round_trip():
    blob = seal(SECRET, IDENTITY, b"the seed")
    assert unseal(SECRET, IDENTITY, blob) == b"the seed"


def test_unseal_needs_the_same_platform_and_identity():
    blob = seal(SECRET, IDENTITY, b"the seed")
    with pytest.raises(SealingError):
        unseal(secrets.token_bytes(32), IDENTITY, blob)
    with pytest.raises(SealingError):
        unseal(SECRET, b"\x22" * 32, blob)


def test_a_damaged_sealed_blob_is_a_sealing_error():
    blob = seal(SECRET, IDENTITY, b"the seed")
    flipped = blob[:-1] + bytes([blob[-1] ^ 0x01])
    # a blob shorter than nonce || tag fails in open_wire with ValueError
    for damaged in (flipped, blob[:27], blob[:12], b""):
        with pytest.raises(SealingError, match="does not open"):
            unseal(SECRET, IDENTITY, damaged)


def test_sealing_rejects_bad_inputs():
    with pytest.raises(SealingError):
        seal(b"short", IDENTITY, b"x")
    with pytest.raises(SealingError):
        seal(SECRET, b"", b"x")


def test_platform_secret_created_once(tmp_path):
    path = tmp_path / "platform.bin"
    first = load_or_create_platform_secret(path)
    assert len(first) == 32
    assert load_or_create_platform_secret(path) == first
    path.write_bytes(b"short")
    with pytest.raises(SealingError):
        load_or_create_platform_secret(path)


def test_unit_seed_seals_to_platform_and_code(authority):
    secret = secrets.token_bytes(32)
    unit = Ccu.boot("sealer", authority, secret, StorageNode.in_memory())
    unit.deploy(standard_bundle())
    unit.install_seed(generate_seed())
    blob = unit.seal_seed()

    twin = Ccu.boot("sealer-2", authority, secret, StorageNode.in_memory())
    twin.deploy(standard_bundle())
    twin.load_sealed_seed(blob)
    # same seed implies the same derived channel key pair
    assert twin.channel_certificate.ka_public == unit.channel_certificate.ka_public


def test_sealed_seed_does_not_open_under_modified_code(authority):
    secret = secrets.token_bytes(32)
    unit = Ccu.boot("sealer", authority, secret, StorageNode.in_memory())
    unit.deploy(standard_bundle())
    unit.install_seed(generate_seed())
    blob = unit.seal_seed()

    patched = dataclasses.replace(standard_bundle(), engine_tag="rogue")
    other_code = Ccu.boot("sealer-3", authority, secret, StorageNode.in_memory())
    other_code.deploy(patched)
    with pytest.raises(SealingError):
        other_code.load_sealed_seed(blob)

    other_platform = Ccu.boot("sealer-4", authority, secrets.token_bytes(32),
                              StorageNode.in_memory())
    other_platform.deploy(standard_bundle())
    with pytest.raises(SealingError):
        other_platform.load_sealed_seed(blob)


def test_redeploying_different_code_drops_the_seed(make_unit):
    unit = make_unit()
    before = unit.channel_certificate.ka_public
    unit.deploy(standard_bundle())  # same code keeps the seed
    assert unit.has_seed
    assert unit.channel_certificate.ka_public == before

    unit.deploy(dataclasses.replace(standard_bundle(), engine_tag="v2"))
    assert not unit.has_seed
    assert unit.channel_certificate.ka_public != before


def test_seed_lifecycle_preconditions(make_unit):
    fresh = make_unit(deploy=False, seed=False)
    with pytest.raises(ConfidecError):
        fresh.seal_seed()
    with pytest.raises(ConfidecError):
        fresh.load_sealed_seed(seal(SECRET, IDENTITY, generate_seed()))
    with pytest.raises(ConfidecError):
        fresh.install_seed(b"tiny")


# --- attestation ----------------------------------------------------------


def test_honest_evidence_verifies(authority, make_unit):
    unit = make_unit()
    attrs = verify_ccu(unit.evidence(), authority.verify_key, unit.measurement)
    assert attrs == {"Role": "CCU", "Unit": "unit-a"}


def test_foreign_authority_fails_at_the_unit_certificate(authority, make_unit):
    unit = make_unit()
    rogue_key = SigningKeyPair.generate()
    now = utcnow()
    rogue_cert = issue_certificate(
        SigningKeyPair.generate(),
        subject=unit.name,
        attributes={"Role": "CCU", "Unit": unit.name},
        subject_verify_key=rogue_key.verify_key,
        not_before=now,
        not_after=now.replace(year=now.year + 1),
    )
    evidence = dataclasses.replace(unit.evidence(), unit_cert=rogue_cert)
    with pytest.raises(UnitCertificateError):
        verify_ccu(evidence, authority.verify_key, unit.measurement)


def test_expired_unit_certificate_rejected(authority, make_unit):
    unit = make_unit()
    later = utcnow().replace(year=utcnow().year + 3)
    with pytest.raises(UnitCertificateError):
        verify_ccu(unit.evidence(), authority.verify_key, unit.measurement, now=later)


def test_forged_channel_certificate_fails_at_step_two(authority, make_unit):
    unit = make_unit()
    mallory = SigningKeyPair.generate()
    forged = issue_channel_certificate(
        mallory, unit.name, unit.channel_certificate.ka_public
    )
    evidence = dataclasses.replace(unit.evidence(), channel_cert=forged)
    with pytest.raises(ChannelCertificateError):
        verify_ccu(evidence, authority.verify_key, unit.measurement)


def test_tampered_report_fails_at_step_three(authority, make_unit):
    unit = make_unit()
    evidence = unit.evidence()
    broken = dataclasses.replace(
        evidence.report, signature=bytes(reversed(evidence.report.signature))
    )
    with pytest.raises(ReportError, match="signature"):
        verify_ccu(
            dataclasses.replace(evidence, report=broken),
            authority.verify_key,
            unit.measurement,
        )


def test_wrong_measurement_fails_at_step_three(authority, make_unit):
    unit = make_unit()
    with pytest.raises(ReportError, match="measurement"):
        verify_ccu(unit.evidence(), authority.verify_key, b"\x00" * 32)


def test_report_must_bind_the_presented_channel(authority, make_unit):
    unit = make_unit(seed=False)
    stale = unit.evidence()
    unit.install_seed(generate_seed())  # rotates the channel certificate
    fresh = unit.evidence()
    spliced = Evidence(
        unit_cert=fresh.unit_cert, channel_cert=fresh.channel_cert, report=stale.report
    )
    with pytest.raises(ReportError, match="bind"):
        verify_ccu(spliced, authority.verify_key, unit.measurement)


def test_session_refuses_to_talk_without_attestation(make_cert, authority, make_unit):
    unit = make_unit()
    cert, key = make_cert()
    session = ClientSession(cert, key, authority.verify_key)
    from confidec.errors import GatewayError

    with pytest.raises(GatewayError, match="no attested channel"):
        session.build_request("decision", {})
    with pytest.raises(ReportError):
        session.attest(unit.evidence(), b"\x99" * 32)
    with pytest.raises(GatewayError, match="no attested channel"):
        session.build_request("decision", {})  # failed attestation pins nothing


# --- seed exchange ---------------------------------------------------------


def test_seed_exchange_clones_the_channel_identity(make_unit):
    source = make_unit(name="unit-src")
    target = make_unit(name="unit-dst", seed=False)
    assert not target.has_seed
    exchange_seed(source, target)
    assert target.has_seed
    assert target.channel_certificate.ka_public == source.channel_certificate.ka_public


def test_seed_exchange_generates_a_seed_when_the_source_has_none(make_unit):
    source = make_unit(name="unit-src", seed=False)
    target = make_unit(name="unit-dst", seed=False)
    exchange_seed(source, target)
    assert source.has_seed and target.has_seed
    assert target.channel_certificate.ka_public == source.channel_certificate.ka_public


def test_seed_exchange_requires_matching_code(make_unit):
    source = make_unit(name="unit-src")
    patched = dataclasses.replace(standard_bundle(), engine_tag="rogue")
    target = make_unit(name="unit-dst", seed=False, bundle=patched)
    before = target.channel_certificate
    with pytest.raises(ReportError):
        exchange_seed(source, target)
    assert not target.has_seed
    assert target.channel_certificate == before


def test_seed_exchange_rejects_an_uncertified_receiver(authority, make_unit):
    source = make_unit(name="unit-src")
    imposter_key = SigningKeyPair.generate()
    now = utcnow()
    cert = issue_certificate(
        authority,
        subject="imposter",
        attributes={"Role": "Gateway"},
        subject_verify_key=imposter_key.verify_key,
        not_before=now,
        not_after=now.replace(year=now.year + 1),
    )
    imposter = Ccu(
        name="imposter",
        authority_verify_key=authority.verify_key,
        identity_cert=cert,
        signing_key=imposter_key,
        platform_secret=SECRET,
        storage=StorageNode.in_memory(),
    )
    imposter.deploy(standard_bundle())
    with pytest.raises(UnitCertificateError, match="not certified"):
        exchange_seed(source, imposter)
    assert not imposter.has_seed


def test_seed_exchange_needs_deployed_code(make_unit):
    source = make_unit(name="unit-src")
    bare = make_unit(name="unit-dst", deploy=False, seed=False)
    with pytest.raises(AttestationError):
        exchange_seed(source, bare)


# --- provisioning and decryption ------------------------------------------


def test_provision_stores_slim_and_full_datasets(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    response, key = _provision(unit, session)
    receipt = ClientSession.open_response(response, key)

    assert response.status == "ok"
    assert receipt["dataName"] == "vax/patients"
    assert receipt["structure"] == "Patient"
    assert set(receipt) == {"dataName", "structure", "slim", "full"}
    assert receipt["slim"]["name"] == "vax/patients"
    assert receipt["full"]["name"] == "vax/patients.full"
    assert receipt["slim"]["records"] == receipt["full"]["records"] == 12
    assert receipt["slim"]["storedBytes"] < receipt["full"]["storedBytes"]

    names = unit._storage.names
    assert names.resolve("vax/patients") == receipt["slim"]["address"]
    assert names.resolve("vax/patients.full") == receipt["full"]["address"]
    assert unit._storage.chain.verify_chain() is None
    assert len(unit._storage.chain) == 2


@pytest.mark.parametrize("request_type", ["provision", "decision"])
def test_an_accepted_request_derives_its_channel_key_once(
    make_unit, make_session, monkeypatch, request_type
):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session)
    derived = []
    derive = ccu.derive_channel_key

    def counting(pair, peer_public):
        derived.append(peer_public)
        return derive(pair, peer_public)

    monkeypatch.setattr(ccu, "derive_channel_key", counting)
    if request_type == "provision":
        response, key = _provision(unit, session)
    else:
        envelope, key = session.build_request(
            "decision", {"funcName": "PatientPrioritizationWithAggr", "dataName": "vax/patients"}
        )
        response = unit.handle("t-dec", envelope)
    assert ClientSession.open_response(response, key)
    assert len(derived) == 1


def test_stored_blobs_never_leak_field_plaintext(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session)
    store = unit._storage.blobs
    for address in store.addresses():
        blob = store.get(address)
        assert b"Asthma" not in blob
        assert b'"Age"' not in blob
        assert b"ConsentFormSigned" not in blob


def _in_layout(unit, records, structure="Patient"):
    """What decrypt_data returns for these records: ids and layout values."""
    layout = unit._layouts[structure]
    return [r.id for r in records], [[r.fields.get(f) for f in layout] for r in records]


def test_decrypt_data_round_trips_the_full_dataset(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    originals = generate_vax(VaxSpec("Patient", 12))
    response, key = _provision(unit, session, records=[record_to_obj(r) for r in originals])
    receipt = ClientSession.open_response(response, key)

    layout = unit._layouts["Patient"]
    decision_fields = {"Age", "PreExistingConditions", "CurrentMedications",
                       "PreviousVaccinations", "FamilyMedicalHistory", "ConsentFormSigned"}
    assert decision_fields <= set(layout)
    assert set(layout) < set(originals[0].fields)  # filler stripped
    assert list(layout) == sorted(layout)

    full = unit.decrypt_data("vax/patients.full", "Patient")
    slim = unit.decrypt_data("vax/patients", "Patient")
    assert full == slim == _in_layout(unit, originals)
    assert receipt["slim"]["storedBytes"] < receipt["full"]["storedBytes"]


def test_provision_rejects_duplicate_record_ids(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    objs = _patient_objs(3)
    objs[2] = dict(objs[0])
    response, _ = _provision(unit, session, records=objs)
    assert response.status == "error"
    assert "duplicate record id" in response.error


def test_provision_rejects_reserved_dataset_names(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    response, _ = _provision(unit, session, name="vax/patients.full")
    assert response.status == "error"
    assert "bad dataset name" in response.error


def test_provision_rejects_unknown_structures(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    response, _ = _provision(unit, session, structure="Invoice")
    assert response.status == "error"
    assert "no deployed function reads structure" in response.error


def test_provision_requires_a_seed(make_unit, make_session):
    unit = make_unit(seed=False)
    session = make_session(unit)
    response, _ = _provision(unit, session)
    assert response.status == "error"
    assert "no data seed" in response.error


def test_decrypt_data_checks_the_declared_structure(make_unit, make_session):
    unit = make_unit()
    _provision(unit, make_session(unit))
    with pytest.raises(StorageError, match="reads 'VaccinationCenter'"):
        unit.decrypt_data("vax/patients", "VaccinationCenter")


def test_invalid_client_certificate_cannot_provision(make_unit, make_cert, authority):
    unit = make_unit()
    rogue_issuer = SigningKeyPair.generate()
    cert, key = make_cert(issuer=rogue_issuer)
    session = ClientSession(cert, key, authority.verify_key)
    session.attest(unit.evidence(), unit.measurement)
    response, _ = _provision(unit, session)
    assert response.status == "error"
    assert response.error == "Invalid certificate"


def test_ephemeral_key_signed_by_another_key_cannot_provision(make_unit, make_cert, authority):
    unit = make_unit()
    cert, _ = make_cert()
    session = ClientSession(cert, SigningKeyPair.generate(), authority.verify_key)
    session.attest(unit.evidence(), unit.measurement)
    response, _ = _provision(unit, session)
    assert response.status == "error"
    assert response.error == "Invalid certificate"


def test_a_valid_certificate_is_refused_outside_a_request(make_unit, make_cert):
    unit = make_unit()
    cert, _ = make_cert()
    assert unit.check_certificate(cert) is None


def test_a_decision_runs_the_program_lowered_at_deploy(make_unit, make_session, monkeypatch):
    unit = make_unit()
    session = make_session(unit)
    records = generate_vax(VaxSpec("Patient", 20))
    want = [
        {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)}
        for r in decide_all(load_table("PatientPrioritizationWithAggr"), records,
                            load_patient_aggregations())
    ]

    def refuse(table):
        raise AssertionError("a table was lowered after deploy")

    for module in (program, engine, builder):
        monkeypatch.setattr(module, "compile_table", refuse)
    response, _ = _provision(unit, session, records=[record_to_obj(r) for r in records])
    assert response.status == "ok", response.error
    envelope, key = session.build_request(
        "decision", {"funcName": "PatientPrioritizationWithAggr", "dataName": "vax/patients"}
    )
    answer = ClientSession.open_response(unit.handle("t-dec", envelope), key)
    assert answer["results"] == want


def test_error_responses_carry_no_body(make_unit, make_session):
    unit = make_unit(seed=False)
    response, key = _provision(unit, make_session(unit))
    assert response.status == "error"
    assert response.body is None
    with pytest.raises(Exception):
        ClientSession.open_response(response, key)


# --- runtime dependencies ------------------------------------------------------

_ONE_DECISION = """
import secrets, sys
from datetime import timedelta
from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.certs import issue_certificate
from confidec.crypto.keys import SigningKeyPair
from confidec.dmn.tables import record_to_obj
from confidec.enclave.ccu import Ccu, generate_seed
from confidec.enclave.measurement import CodeBundle
from confidec.fixtures import load_patient_aggregation_docs, load_policy_text, load_table_doc
from confidec.gateway.client import ClientSession
from confidec.storage.node import StorageNode
from confidec.util import utcnow

authority = SigningKeyPair.generate()
unit = Ccu.boot("u", authority, platform_secret=secrets.token_bytes(32),
                storage=StorageNode.in_memory())
unit.deploy(CodeBundle.assemble(
    load_policy_text(),
    [load_table_doc(f) for f in ("PatientPrioritizationWithAggr", "Restock", "ChooseCarrier")],
    load_patient_aggregation_docs()))
unit.install_seed(generate_seed())
key = SigningKeyPair.generate()
now = utcnow()
cert = issue_certificate(authority, "hub", {"Role": "MedicalHub", "Country": "Italy"},
                         key.verify_key, now - timedelta(minutes=1), now + timedelta(days=1))
session = ClientSession(cert, key, authority.verify_key)
session.attest(unit.evidence(), unit.measurement)
records = [record_to_obj(r) for r in generate_vax(VaxSpec("Patient", 20))]
for kind, payload in [
    ("provision", {"dataName": "p", "structure": "Patient", "records": records}),
    ("decision", {"funcName": "PatientPrioritizationWithAggr", "dataName": "p"}),
]:
    envelope, channel_key = session.build_request(kind, payload)
    answer = ClientSession.open_response(unit.handle(kind, envelope), channel_key)
print(len(answer["results"]), "numpy" in sys.modules)
"""


def test_a_decision_does_not_import_numpy():
    out = subprocess.run(
        [sys.executable, "-c", _ONE_DECISION], capture_output=True, text=True, env=child_env(),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["20", "False"]


# --- stored record forms ------------------------------------------------------


def _decide(unit, session, data_name):
    """The expanded results of a patient decision, or its error text."""
    envelope, key = session.build_request(
        "decision", {"funcName": "PatientPrioritizationWithAggr", "dataName": data_name}
    )
    response = unit.handle("t-dec", envelope)
    if response.status != "ok":
        return response.error
    return ClientSession.open_response(response, key)["results"]


def _oracle(records):
    try:
        results = decide_all(
            load_table("PatientPrioritizationWithAggr"), records, load_patient_aggregations()
        )
    except ConfidecError as exc:
        return str(exc)
    return [
        {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)}
        for r in results
    ]


def _with_fields(record, **changes):
    fields = dict(record.fields)
    for name, value in changes.items():
        if value is None:
            del fields[name]
        else:
            fields[name] = value
    return dataclasses.replace(record, fields=fields)


@pytest.mark.parametrize("damage", [
    {},
    {"Age": None},
    {"Age": "sixty"},
    {"PreExistingConditions": 3},
    {"ConsentFormSigned": None},
    {"ConsentFormSigned": "yes", "Age": None},
])
def test_slim_and_full_datasets_decide_like_decide_all(make_unit, make_session, damage):
    unit = make_unit()
    session = make_session(unit)
    records = generate_vax(VaxSpec("Patient", 24))
    records[5] = _with_fields(records[5], **damage)
    response, _ = _provision(unit, session, records=[record_to_obj(r) for r in records])
    assert response.status == "ok", response.error

    want = _oracle(records)
    assert isinstance(want, list) == (not damage)
    assert _decide(unit, session, "vax/patients") == want
    assert _decide(unit, session, "vax/patients.full") == want


def test_records_stored_under_another_layout_never_decode(make_unit, make_session):
    unit = make_unit(seed=False)
    seed = generate_seed()
    unit.install_seed(seed)
    session = make_session(unit)
    records = generate_vax(VaxSpec("Patient", 12))
    _provision(unit, session, records=[record_to_obj(r) for r in records])
    assert _decide(unit, session, "vax/patients") == _oracle(records)
    old_layout = unit._layouts["Patient"]

    unit.deploy(bundle_reading_another_patient_field())
    unit.install_seed(seed)
    assert unit._layouts["Patient"] != old_layout
    session = make_session(unit)
    answer = _decide(unit, session, "vax/patients")
    assert isinstance(answer, str) and "authentication" in answer
    # full records are stored over their own field union and still decode
    assert _decide(unit, session, "vax/patients.full") == _oracle(records)


def _as_full(unit, manifest):
    """A slim manifest rewritten as a full one listing its blob as a record,
    with the field union, and its randomizer, of the dataset's full form."""
    full = json.loads(unit._storage.fetch("vax/patients.full"))
    entry = {"id": "p-0", "address": manifest.pop("address"), "t": manifest.pop("t")}
    manifest.update(form="full", records=[entry], t=full["t"], fields=full["fields"])


def _as_slim(unit, manifest):
    """A full manifest rewritten as a slim one naming its first record's blob."""
    first = manifest.pop("records")[0]
    manifest.update(form="slim", address=first["address"], t=first["t"])


@pytest.mark.parametrize("data_name, lie", [("vax/patients", _as_full),
                                            ("vax/patients.full", _as_slim)],
                         ids=["slim-as-full", "full-as-slim"])
def test_a_manifest_lying_about_the_record_form_fails_authentication(
    make_unit, make_session, data_name, lie
):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session)
    manifest = json.loads(unit._storage.fetch(data_name))
    lie(unit, manifest)
    unit._storage.publish(data_name, json.dumps(manifest).encode())
    answer = _decide(unit, session, data_name)
    assert isinstance(answer, str) and "authentication" in answer


def test_a_manifest_without_a_known_record_form_is_refused(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    _provision(unit, session)
    manifest = json.loads(unit._storage.fetch("vax/patients"))
    del manifest["form"]
    unit._storage.publish("vax/patients", json.dumps(manifest).encode())
    assert "names no known record form" in _decide(unit, session, "vax/patients")


def test_slim_records_are_value_arrays_without_ids(make_unit, make_session):
    unit = make_unit()
    session = make_session(unit)
    objs = _patient_objs(4)
    response, key = _provision(unit, session, records=objs)
    receipt = ClientSession.open_response(response, key)
    manifest = json.loads(unit._storage.fetch("vax/patients"))
    assert manifest["form"] == "slim"
    assert json.loads(unit._storage.fetch("vax/patients.full"))["form"] == "full"
    # one blob: the ids, then each record's layout values as a JSON array,
    # plus a fixed AEAD overhead; no field names
    layout = unit._layouts["Patient"]
    plaintext = json.dumps(
        [[obj["id"] for obj in objs], [[obj["fields"].get(f) for f in layout] for obj in objs]],
        separators=(",", ":"), ensure_ascii=False,
    ).encode()
    assert 0 < len(unit._storage.blobs.get(manifest["address"])) - len(plaintext) <= 64
    assert receipt["slim"]["storedBytes"] < receipt["full"]["storedBytes"]
