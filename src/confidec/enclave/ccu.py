"""The confidential compute unit.

A unit owns a signing identity certified by the authority, a deployed
code bundle (policies, tables, aggregations), and, once seeded, the data
seed from which every record key derives. It answers exactly two request
kinds through the gateway: provisioning datasets and running decisions.

The seed never leaves a unit except sealed to the platform or encrypted
to another attested unit's channel key.
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from datetime import datetime, timedelta
from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple

from confidec.crypto.aead import ae_decrypt, ae_encrypt, open_wire, seal_wire
from confidec.crypto.certs import Certificate, issue_certificate, verify_certificate
from confidec.crypto.keys import (
    SEED_LEN,
    KeyAgreementKeyPair,
    SigningKeyPair,
    derive_channel_key,
    derive_record_key,
    verify,
)
from confidec.dmn.model import is_finite
from confidec.dmn.program import fields_read
from confidec.dmn.tables import (
    parse_aggregation_spec,
    parse_decision_table,
    parse_record,  # noqa: F401 - perfbench/tracer.py times `ccu.parse_record`
)
from confidec.enclave.attestation import (
    AttestationReport,
    ChannelCertificate,
    Evidence,
    generate_report,
    issue_channel_certificate,
    verify_ccu,
)
from confidec.enclave.measurement import CodeBundle, compute_measurement
from confidec.enclave.sealing import seal, unseal
from confidec.errors import (
    AttestationError,
    CertificateError,
    ConfidecError,
    DecisionRejected,
    MalformedRequestError,
    ServiceBuildError,
    StorageError,
    TableValidationError,
    UnitCertificateError,
    UnknownFunctionError,
)
from confidec.gateway.wire import (
    RequestEnvelope,
    ResponseEnvelope,
    envelope_signing_bytes,
    response_aad,
)
from confidec.policy.alfa import parse_policy_descriptor
from confidec.service.builder import (
    REJECT_CERTIFICATE,
    DecisionService,
    build_desobj,
    handle_decision as run_decision_handler,
)
from confidec.storage.node import StorageNode
from confidec.util import b64, canonical_json, length_prefixed, unb64, utcnow

RANDOMIZER_LEN = 16
FULL_SUFFIX = ".full"

Clock = Callable[[], datetime]


def generate_seed() -> bytes:
    """Fresh 32-byte data seed."""
    return secrets.token_bytes(SEED_LEN)


SLIM = "slim"  # one blob per dataset: [ids, rows], each row in the structure's layout
FULL = "full"  # one blob per record: its values over the dataset's sorted field union

# JSON arrays of validated values: no keys to sort, no cycles to look for
_ARRAYS = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False)


def _record_aad_prefix(dataset: str, form: str, layout: Sequence[str]) -> bytes:
    """The AAD of a slim dataset's blob, and of a full dataset's records up to
    the record id that ends it.

    It binds the record form and the layout (a full dataset's field union),
    so that a manifest lying about the form, a unit deployed with another
    layout, or another union fails authentication instead of decoding values
    into the wrong fields.
    """
    return b"confidec/record/v2:" + length_prefixed(
        dataset.encode("utf-8"),
        form.encode("utf-8"),
        length_prefixed(*(name.encode("utf-8") for name in layout)),
    )


def _union_aad(dataset: str) -> bytes:
    """The AAD of a full dataset's sealed field union."""
    return b"confidec/fields/v1:" + length_prefixed(dataset.encode("utf-8"))


def _id_part(record_id: str) -> bytes:
    """What ends a record's AAD: `length_prefixed(record_id)`, written out."""
    encoded = record_id.encode("utf-8")
    return len(encoded).to_bytes(4, "big") + encoded


class Ccu:
    def __init__(
        self,
        name: str,
        authority_verify_key: bytes,
        identity_cert: Certificate,
        signing_key: SigningKeyPair,
        platform_secret: bytes,
        storage: StorageNode,
        clock: Clock | None = None,
    ):
        self.name = name
        self.authority_verify_key = authority_verify_key
        self.identity_cert = identity_cert
        self._signing_key = signing_key
        self._platform_secret = platform_secret
        self._storage = storage
        self._clock = clock or utcnow

        self._seed: bytes | None = None
        self._ka = KeyAgreementKeyPair.generate()
        self._channel_cert = issue_channel_certificate(
            self._signing_key, self.name, self._ka.public_bytes
        )
        self._bundle: CodeBundle | None = None
        self._measurement: bytes | None = None
        self._services: Dict[str, DecisionService] = {}
        # per structure, the fields of its slim records, in stored order
        self._layouts: Dict[str, Tuple[str, ...]] = {}

        self._busy = threading.Lock()
        self.handled: List[dict] = []
        self.last_trace: List[str] = []
        self._current_envelope: RequestEnvelope | None = None

    @classmethod
    def boot(
        cls,
        name: str,
        authority: SigningKeyPair,
        platform_secret: bytes,
        storage: StorageNode,
        clock: Clock | None = None,
        validity: timedelta = timedelta(days=365),
    ) -> "Ccu":
        """Create a unit with a fresh identity certified by the authority."""
        signing_key = SigningKeyPair.generate()
        now = (clock or utcnow)()
        cert = issue_certificate(
            authority,
            subject=name,
            attributes={"Role": "CCU", "Unit": name},
            subject_verify_key=signing_key.verify_key,
            not_before=now,
            not_after=now + validity,
        )
        return cls(
            name=name,
            authority_verify_key=authority.verify_key,
            identity_cert=cert,
            signing_key=signing_key,
            platform_secret=platform_secret,
            storage=storage,
            clock=clock,
        )

    # --- deployment -------------------------------------------------------

    def deploy(self, bundle: CodeBundle) -> bytes:
        """Install a code bundle; returns its measurement."""
        policies = parse_policy_descriptor(bundle.policy_text)
        tables = [parse_decision_table(doc) for doc in bundle.table_docs()]
        aggregations = [parse_aggregation_spec(doc) for doc in bundle.aggregation_docs()]
        tables_by_name = {t.name: t for t in tables}
        if len(tables_by_name) != len(tables):
            raise ServiceBuildError("bundle holds two tables with one name")

        guarded = []
        read: Dict[str, Set[str]] = {}
        for policy in policies:
            table = tables_by_name.get(policy.func_name)
            if table is None:
                raise ServiceBuildError(f"no table for policy {policy.func_name!r}")
            guarded.append((policy, table))
            aggs = [a for a in aggregations if a.name in policy.agg_names]
            read.setdefault(policy.data_name, set()).update(fields_read(table, aggs))
        # one layout per structure: every function reading it reads its rows
        layouts = {structure: tuple(sorted(fields)) for structure, fields in read.items()}
        services = {
            policy.func_name: build_desobj(
                policy, table, aggregations, layouts[policy.data_name]
            )
            for policy, table in guarded
        }

        measurement = compute_measurement(bundle)
        if self._measurement is not None and measurement != self._measurement and self._seed is not None:
            # a different code identity must not inherit the seed
            self._seed = None
            self._ka = KeyAgreementKeyPair.generate()
            self._channel_cert = issue_channel_certificate(
                self._signing_key, self.name, self._ka.public_bytes
            )
        self._bundle = bundle
        self._measurement = measurement
        self._services = services
        self._layouts = layouts
        return self._measurement

    @property
    def measurement(self) -> bytes | None:
        return self._measurement

    def service(self, func_name: str) -> DecisionService:
        if not isinstance(func_name, str):
            raise MalformedRequestError("funcName must be a string")
        try:
            return self._services[func_name]
        except KeyError:
            raise UnknownFunctionError("no deployed function by that name") from None

    def service_names(self) -> List[str]:
        return sorted(self._services)

    # --- seed and channel ---------------------------------------------------

    @property
    def has_seed(self) -> bool:
        return self._seed is not None

    def install_seed(self, seed: bytes) -> None:
        """Adopt a data seed; the channel key pair becomes seed-derived."""
        if len(seed) != SEED_LEN:
            raise ConfidecError(f"seed must be {SEED_LEN} bytes")
        self._seed = seed
        self._ka = KeyAgreementKeyPair.from_seed(seed)
        self._channel_cert = issue_channel_certificate(
            self._signing_key, self.name, self._ka.public_bytes
        )

    def seal_seed(self) -> bytes:
        """Seal the seed to this platform and the deployed measurement."""
        if self._seed is None:
            raise ConfidecError("unit has no seed to seal")
        if self._measurement is None:
            raise ConfidecError("unit has no deployed bundle to seal against")
        return seal(self._platform_secret, self._measurement, self._seed)

    def load_sealed_seed(self, blob: bytes) -> None:
        if self._measurement is None:
            raise ConfidecError("deploy a bundle before unsealing the seed")
        self.install_seed(unseal(self._platform_secret, self._measurement, blob))

    @property
    def channel_certificate(self) -> ChannelCertificate:
        return self._channel_cert

    def evidence(self) -> Evidence:
        """Identity certificate, channel certificate and a fresh report."""
        if self._measurement is None:
            raise ConfidecError("unit has no deployed bundle to report")
        report = generate_report(
            self._signing_key, self._measurement, self._channel_cert.digest()
        )
        return Evidence(
            unit_cert=self.identity_cert, channel_cert=self._channel_cert, report=report
        )

    def _channel_key(self, ephemeral_pub: bytes) -> bytes:
        try:
            return derive_channel_key(self._ka, ephemeral_pub)
        except ValueError:  # X25519 refuses a low-order point
            raise MalformedRequestError("ephemeral key is unusable") from None

    # --- gateway entry point -------------------------------------------------

    def handle(self, correlation_id: str, envelope: RequestEnvelope) -> ResponseEnvelope:
        """Process one envelope; called by the gateway worker only."""
        if not self._busy.acquire(blocking=False):
            raise RuntimeError("unit asked to handle two requests at once")
        started = time.monotonic_ns()
        self._current_envelope = envelope
        try:
            try:
                key = self._channel_key(envelope.ephemeral_pub)
                if envelope.request_type == "provision":
                    obj = self.handle_provision(envelope, key)
                else:
                    obj = self.handle_decision(envelope, key)
                body = ae_encrypt(key, canonical_json(obj), aad=response_aad(correlation_id))
                return ResponseEnvelope(correlation_id=correlation_id, status="ok", body=body)
            except ConfidecError as exc:
                return ResponseEnvelope(
                    correlation_id=correlation_id, status="error", error=str(exc)
                )
        finally:
            self._current_envelope = None
            self.handled.append(
                {"ticket": correlation_id, "start": started, "end": time.monotonic_ns()}
            )
            self._busy.release()

    # --- provisioning -----------------------------------------------------------

    def handle_provision(self, envelope: RequestEnvelope, key: bytes) -> dict:
        """Store a dataset twice, full and slimmed to decision fields, and
        return the receipt; key is the request's channel key."""
        if self.check_certificate(envelope.client_cert) is None:
            raise DecisionRejected(REJECT_CERTIFICATE)
        payload = _open_payload(envelope, key)

        try:
            data_name = payload["dataName"]
            structure = payload["structure"]
            raw_records = payload["records"]
        except (KeyError, TypeError) as exc:
            raise MalformedRequestError(f"provision payload missing key: {exc}") from exc
        if not isinstance(structure, str):
            raise MalformedRequestError("structure must be a string")
        if not isinstance(raw_records, list):
            raise MalformedRequestError("records must be a list")
        if self._seed is None:
            raise ConfidecError("unit has no data seed installed")
        if not isinstance(data_name, str) or not data_name or data_name.endswith(FULL_SUFFIX):
            raise MalformedRequestError("bad dataset name")

        layout = self._layouts.get(structure)
        if layout is None:
            raise UnknownFunctionError("no deployed function reads structure of that name")

        union = _checked_field_union(raw_records)
        receipt = {"dataName": data_name, "structure": structure}
        # the full form first: the chain notarizes `<name>.full`, then `<name>`
        receipt["full"] = self._store_full(data_name + FULL_SUFFIX, structure, union, raw_records)
        receipt["slim"] = self._store_slim(data_name, structure, layout, raw_records)
        return receipt

    def _store_full(
        self,
        name: str,
        structure: str,
        union: Tuple[str, ...],
        records: Sequence[dict],
    ) -> dict:
        """Seal the field union into the manifest under the manifest's
        randomizer, then each record's values over the union under its own
        randomizer, kept in its manifest entry; returns the form's part of the
        receipt."""
        seed = self._seed
        put = self._storage.blobs.put
        encode = _ARRAYS.encode
        prefix = _record_aad_prefix(name, FULL, union)
        t = secrets.token_bytes(RANDOMIZER_LEN)
        key = derive_record_key(seed, t)
        manifest = {
            "dataset": name,
            "structure": structure,
            "form": FULL,
            "t": b64(t),
            "fields": b64(seal_wire(key, encode(union).encode("utf-8"), _union_aad(name))),
        }
        entries = []
        blob_bytes = 0
        for record in records:
            record_id = record["id"]
            t = secrets.token_bytes(RANDOMIZER_LEN)
            # None for an absent field: never a valid value, so unambiguous
            plaintext = encode(list(map(record["fields"].get, union))).encode("utf-8")
            blob = seal_wire(derive_record_key(seed, t), plaintext, prefix + _id_part(record_id))
            entries.append({"id": record_id, "address": put(blob), "t": b64(t)})
            blob_bytes += len(blob)
        manifest["records"] = entries
        return self._publish(name, manifest, blob_bytes, len(records))

    def _store_slim(
        self,
        name: str,
        structure: str,
        layout: Tuple[str, ...],
        records: Sequence[dict],
    ) -> dict:
        """Seal the ids and the layout rows of all records as one blob under
        one fresh randomizer, kept in the manifest; returns the form's part of
        the receipt."""
        t = secrets.token_bytes(RANDOMIZER_LEN)
        plaintext = canonical_json([
            [record["id"] for record in records],
            [list(map(record["fields"].get, layout)) for record in records],
        ])
        blob = seal_wire(
            derive_record_key(self._seed, t), plaintext, _record_aad_prefix(name, SLIM, layout)
        )
        manifest = {
            "dataset": name,
            "structure": structure,
            "form": SLIM,
            "address": self._storage.blobs.put(blob),
            "t": b64(t),
        }
        return self._publish(name, manifest, len(blob), len(records))

    def _publish(self, name: str, manifest: dict, blob_bytes: int, count: int) -> dict:
        """Publish a form's manifest under name; returns the form's part of the
        receipt."""
        manifest_bytes = canonical_json(manifest)
        return {
            "name": name,
            "address": self._storage.publish(name, manifest_bytes),
            "records": count,
            "storedBytes": blob_bytes + len(manifest_bytes),
        }

    # --- decisions ---------------------------------------------------------------

    def handle_decision(self, envelope: RequestEnvelope, key: bytes) -> dict:
        """Run the guarded handler named in the envelope payload; key is the
        request's channel key."""
        payload = _open_payload(envelope, key)
        try:
            func_name = payload["funcName"]
            data_name = payload["dataName"]
        except (KeyError, TypeError) as exc:
            raise MalformedRequestError(f"decision payload missing key: {exc}") from exc

        service = self.service(func_name)
        if not isinstance(data_name, str):
            raise MalformedRequestError("bad dataset name")
        self.last_trace = []
        return run_decision_handler(service, envelope.client_cert, data_name, self)

    # HandlerEnv implementation ----------------------------------------------

    def check_certificate(self, certificate: Certificate) -> Mapping[str, str] | None:
        """Attributes of a certificate the authority issued and whose key signed
        the in-flight envelope's ephemeral key; None otherwise, and always None
        outside a request."""
        envelope = self._current_envelope
        if envelope is None or not verify(
            certificate.subject_verify_key,
            envelope_signing_bytes(envelope.request_type, envelope.ephemeral_pub),
            envelope.ephemeral_sig,
        ):
            return None
        try:
            return verify_certificate(self.authority_verify_key, certificate, now=self._clock())
        except CertificateError:
            return None

    def decrypt_data(
        self, data_name: str, structure: str
    ) -> Tuple[List[str], List[list]]:
        """The ids of the records published under data_name and, per record,
        its values in the structure's layout (None for an absent field).

        Slim records are stored in that form; full ones are projected onto it.
        A manifest that names another dataset is refused before any blob is
        read. Every blob is hash-checked on get and authenticated against its
        dataset, form and layout, and a full record also against its id; a
        manifest the storage operator malformed raises StorageError like any
        other tampering.
        """
        seed = self._seed
        if seed is None:
            raise ConfidecError("unit has no data seed installed")
        layout = self._layouts[structure]
        try:
            manifest = json.loads(self._storage.fetch(data_name))
            if manifest.get("structure") != structure:
                raise StorageError(
                    "dataset holds another structure's records, "
                    f"but the function reads {structure!r}"
                )
            if not isinstance(manifest["dataset"], str):
                raise TypeError  # malformed, as below
            if manifest["dataset"] != data_name:
                raise StorageError("stored manifest names another dataset")
            form = manifest.get("form")
            if form == SLIM:
                return self._open_slim(seed, data_name, manifest, layout)
            if form == FULL:
                return self._open_full(seed, data_name, manifest, layout)
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError):
            # a field of the wrong shape or type, bad base64, a short blob
            raise StorageError("stored dataset is malformed") from None
        raise StorageError("dataset names no known record form")

    def _open_slim(
        self, seed: bytes, name: str, manifest: dict, layout: Tuple[str, ...]
    ) -> Tuple[List[str], List[list]]:
        blob = self._storage.blobs.get(manifest["address"])
        key = derive_record_key(seed, unb64(manifest["t"]))
        aad = _record_aad_prefix(name, SLIM, layout)
        # one authenticated [ids, rows] document the unit wrote
        ids, rows = json.loads(open_wire(key, blob, aad))
        return ids, rows

    def _open_full(
        self, seed: bytes, name: str, manifest: dict, layout: Tuple[str, ...]
    ) -> Tuple[List[str], List[list]]:
        get = self._storage.blobs.get
        key = derive_record_key(seed, unb64(manifest["t"]))
        union = json.loads(open_wire(key, unb64(manifest["fields"]), _union_aad(name)))
        prefix = _record_aad_prefix(name, FULL, union)
        ids = []
        plaintexts = []
        for entry in manifest["records"]:
            record_id = entry["id"]
            blob = get(entry["address"])
            key = derive_record_key(seed, unb64(entry["t"]))
            plaintexts.append(open_wire(key, blob, prefix + _id_part(record_id)))
            ids.append(record_id)
        # each plaintext is one authenticated JSON array the unit wrote over
        # this union, so the batch parses as one array and indexes safely
        rows = json.loads(b"[" + b",".join(plaintexts) + b"]")
        position = {field: i for i, field in enumerate(union)}
        picks = [position.get(field) for field in layout]
        return ids, [[None if i is None else row[i] for i in picks] for row in rows]

    def trace(self, step: str) -> None:
        self.last_trace.append(step)


def _checked_field_union(records: list) -> Tuple[str, ...]:
    """Check a provision's record documents in one pass, with the texts of
    `parse_record` and none of the caller's names or values, and refuse a
    repeated id; returns the sorted union of the records' field names.

    The documents come from `json.loads`, so exact type checks suffice: a
    value is a str, a bool, or an int or float that is finite as a float.
    """
    seen: Set[str] = set()
    union: Set[str] = set()
    for doc in records:
        try:
            record_id = doc["id"]
            fields = doc["fields"]
        except (KeyError, TypeError) as exc:
            raise TableValidationError(f"record document missing key: {exc}") from exc
        if type(record_id) is not str:
            raise TableValidationError("record id must be a string")
        if type(fields) is not dict:
            raise TableValidationError("record fields must be an object")
        if not record_id:
            raise TableValidationError("record id must be non-empty")
        for name, value in fields.items():
            if not name:
                raise TableValidationError("record field names must be non-empty")
            kind = type(value)
            if kind is str or kind is bool:
                continue
            if kind is not int and kind is not float:
                raise TableValidationError(
                    f"record field holds an unsupported value type {kind.__name__}"
                )
            if not is_finite(value):
                raise TableValidationError("record field holds a non-finite number")
        if record_id in seen:
            raise TableValidationError("duplicate record id in the dataset")
        seen.add(record_id)
        union.update(fields)
    return tuple(sorted(union))


def _open_payload(envelope: RequestEnvelope, key: bytes) -> dict:
    """The request's JSON object, opened with its channel key."""
    plaintext = ae_decrypt(key, envelope.payload, aad=envelope.request_type.encode())
    try:
        payload = json.loads(plaintext)
    except (RecursionError, ValueError) as exc:  # RecursionError: nested too deep
        raise MalformedRequestError("request payload is not JSON") from exc
    if not isinstance(payload, dict):
        raise MalformedRequestError("request payload must be an object")
    return payload


def exchange_seed(source: Ccu, target: Ccu, now: datetime | None = None) -> None:
    """Move the data seed from one unit to another after mutual attestation.

    Both units must run the same deployed bundle. Either attestation
    failure aborts the exchange before any seed material moves; on success
    both units derive identical channel key pairs from the shared seed.
    """
    if source.measurement is None or target.measurement is None:
        raise AttestationError("both units need a deployed bundle before a seed exchange")

    target_attrs = verify_ccu(
        target.evidence(), source.authority_verify_key, source.measurement, now=now
    )
    if target_attrs.get("Role") != "CCU":
        raise UnitCertificateError("seed receiver is not certified as a unit")
    source_attrs = verify_ccu(
        source.evidence(), target.authority_verify_key, target.measurement, now=now
    )
    if source_attrs.get("Role") != "CCU":
        raise UnitCertificateError("seed sender is not certified as a unit")

    if not source.has_seed:
        source.install_seed(generate_seed())

    ephemeral = KeyAgreementKeyPair.generate()
    key = derive_channel_key(ephemeral, target.channel_certificate.ka_public)
    sealed = seal_wire(key, source._seed, b"confidec/seed-transfer/v1")
    target_key = derive_channel_key(target._ka, ephemeral.public_bytes)
    target.install_seed(open_wire(target_key, sealed, b"confidec/seed-transfer/v1"))
