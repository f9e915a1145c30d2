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
from confidec.dmn.model import Record
from confidec.dmn.program import fields_read
from confidec.dmn.tables import (
    parse_aggregation_spec,
    parse_decision_table,
    parse_record,
    record_to_obj,
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
from confidec.enclave.sealing import SealedBlob, seal, unseal
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

# The most records, summed over datasets, whose opened plaintexts a unit
# remembers between decisions (see `Ccu.decrypt_data`): about 3.5 MB of slim
# patient records at 0.4 KB each, or 13 MB of full ones at 1.6 KB. A dataset
# with more records is opened in full on every read.
OPENED_RECORDS_CAP = 8_192

Clock = Callable[[], datetime]


def generate_seed() -> bytes:
    """Fresh 32-byte data seed."""
    return secrets.token_bytes(SEED_LEN)


SLIM = "slim"  # a JSON array of the record's values in its structure's layout
FULL = "full"  # the record's {"id", "fields"} document


def _record_aad_prefix(dataset: str, form: str, layout: Sequence[str]) -> bytes:
    """The AAD of a dataset's records, up to the record id that ends it.

    It binds the record form and, for slim records, the layout, so that a
    manifest lying about the form, or a unit deployed with another layout,
    fails authentication instead of decoding values into the wrong fields.
    """
    return b"confidec/record/v2:" + length_prefixed(
        dataset.encode("utf-8"),
        form.encode("utf-8"),
        length_prefixed(*(name.encode("utf-8") for name in layout)),
    )


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
        allow_light_encryption: bool = False,
    ):
        self.name = name
        self.authority_verify_key = authority_verify_key
        self.identity_cert = identity_cert
        self._signing_key = signing_key
        self._platform_secret = platform_secret
        self._storage = storage
        self._clock = clock or utcnow
        self.allow_light_encryption = allow_light_encryption

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
        # per record AAD prefix, least recently read first, the generation
        # last read: address -> (randomizer text, record id, plaintext)
        self._opened: Dict[bytes, Dict[str, Tuple[str, str, bytes]]] = {}
        self._opened_records = 0

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
        allow_light_encryption: bool = False,
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
            allow_light_encryption=allow_light_encryption,
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
        self._forget_opened()
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
        self._forget_opened()
        self._ka = KeyAgreementKeyPair.from_seed(seed)
        self._channel_cert = issue_channel_certificate(
            self._signing_key, self.name, self._ka.public_bytes
        )

    def seal_seed(self) -> SealedBlob:
        """Seal the seed to this platform and the deployed measurement."""
        if self._seed is None:
            raise ConfidecError("unit has no seed to seal")
        if self._measurement is None:
            raise ConfidecError("unit has no deployed bundle to seal against")
        return seal(self._platform_secret, "measurement", self._measurement, self._seed)

    def load_sealed_seed(self, blob: SealedBlob) -> None:
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
        return derive_channel_key(self._ka, ephemeral_pub)

    # --- gateway entry point -------------------------------------------------

    def handle(self, correlation_id: str, envelope: RequestEnvelope) -> ResponseEnvelope:
        """Process one envelope; called by the gateway worker only."""
        if not self._busy.acquire(blocking=False):
            raise RuntimeError("unit asked to handle two requests at once")
        started = time.monotonic_ns()
        self._current_envelope = envelope
        try:
            try:
                if envelope.request_type == "provision":
                    obj = self.handle_provision(envelope)
                else:
                    obj = self.handle_decision(envelope)
                body = ae_encrypt(
                    self._channel_key(envelope.ephemeral_pub),
                    canonical_json(obj),
                    aad=response_aad(correlation_id),
                )
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

    def handle_provision(self, envelope: RequestEnvelope) -> dict:
        """Store a dataset twice, full and slimmed to decision fields, and
        return the receipt."""
        if self.check_certificate(envelope.client_cert) is None:
            raise DecisionRejected(REJECT_CERTIFICATE)
        payload = self._open_payload(envelope)

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
        light = bool(payload.get("lightEncryption", False))
        if light and not self.allow_light_encryption:
            raise MalformedRequestError(
                "light encryption is a benchmark mode and is not accepted here"
            )
        if self._seed is None:
            raise ConfidecError("unit has no data seed installed")
        if not isinstance(data_name, str) or not data_name or data_name.endswith(FULL_SUFFIX):
            raise MalformedRequestError("bad dataset name")

        layout = self._layouts.get(structure)
        if layout is None:
            raise UnknownFunctionError("no deployed function reads structure of that name")

        records = [parse_record(obj) for obj in raw_records]
        seen: Set[str] = set()
        for record in records:
            if record.id in seen:
                raise TableValidationError("duplicate record id in the dataset")
            seen.add(record.id)

        receipt = {"dataName": data_name, "structure": structure, "light": light}
        # the full form first: the chain notarizes `<name>.full`, then `<name>`
        receipt["full"] = self._store_form(
            data_name + FULL_SUFFIX, structure, FULL, (), records, light
        )
        receipt["slim"] = self._store_form(data_name, structure, SLIM, layout, records, light)
        return receipt

    def _store_form(
        self,
        name: str,
        structure: str,
        form: str,
        layout: Tuple[str, ...],
        records: Sequence[Record],
        light: bool,
    ) -> dict:
        """Seal each record in one form, put its blob and publish the manifest
        over them under name; returns the form's part of the receipt.

        Each record gets a fresh randomizer, so its own key, kept in its
        manifest entry; a light dataset has one randomizer, kept in the
        manifest, and its key is derived once.
        """
        seed = self._seed
        put = self._storage.blobs.put
        prefix = _record_aad_prefix(name, form, layout)
        if light:
            t = secrets.token_bytes(RANDOMIZER_LEN)
            key = derive_record_key(seed, t)
        entries = []
        blob_bytes = 0
        for record in records:
            if form == SLIM:
                plaintext = canonical_json([record.fields.get(field) for field in layout])
            else:
                plaintext = canonical_json(record_to_obj(record))
            if not light:
                t = secrets.token_bytes(RANDOMIZER_LEN)
                key = derive_record_key(seed, t)
            blob = seal_wire(key, plaintext, prefix + _id_part(record.id))
            entry = {"id": record.id, "address": put(blob)}
            if not light:
                entry["t"] = b64(t)
            entries.append(entry)
            blob_bytes += len(blob)

        manifest: dict = {
            "dataset": name,
            "structure": structure,
            "form": form,
            "light": light,
            "records": entries,
        }
        if light:
            manifest["t"] = b64(t)
        manifest_bytes = canonical_json(manifest)
        return {
            "name": name,
            "address": self._storage.publish(name, manifest_bytes),
            "records": len(entries),
            "storedBytes": blob_bytes + len(manifest_bytes),
        }

    # --- decisions ---------------------------------------------------------------

    def handle_decision(self, envelope: RequestEnvelope) -> dict:
        """Run the guarded handler named in the envelope payload."""
        payload = self._open_payload(envelope)
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
        Every blob is hash-checked on get and authenticated against its
        dataset, form, layout and id; a manifest the storage operator
        malformed raises StorageError like any other tampering.

        A record read before under the same AAD prefix, from the same address
        with the same randomizer text and id, is not opened again: AES-GCM
        opening is a function of key, bytes and AAD, the key of the seed and
        the randomizer, and the get just re-checked that the bytes hash to
        the address, so the remembered plaintext is what opening would give.
        """
        seed = self._seed
        if seed is None:
            raise ConfidecError("unit has no data seed installed")
        layout = self._layouts[structure]
        get = self._storage.blobs.get
        ids = []
        plaintexts = []
        opened = {}
        try:
            manifest = json.loads(self._storage.fetch(data_name))
            if manifest.get("structure") != structure:
                raise StorageError(
                    "dataset holds another structure's records, "
                    f"but the function reads {structure!r}"
                )
            form = manifest.get("form")
            if form not in (SLIM, FULL):
                raise StorageError("dataset names no known record form")
            prefix = _record_aad_prefix(manifest["dataset"], form, layout if form == SLIM else ())
            light = bool(manifest.get("light", False))
            if light:
                t = manifest["t"]
                key = derive_record_key(seed, unb64(t))
            last_read = self._opened.get(prefix, {})
            for entry in manifest["records"]:
                record_id = entry["id"]
                address = entry["address"]
                blob = get(address)
                if not light:
                    t = entry["t"]
                kept = last_read.get(address)
                if kept is None or kept[0] != t or kept[1] != record_id:
                    if not light:
                        key = derive_record_key(seed, unb64(t))
                    kept = (t, record_id, open_wire(key, blob, prefix + _id_part(record_id)))
                opened[address] = kept
                ids.append(kept[1])
                plaintexts.append(kept[2])
        except (AttributeError, KeyError, RecursionError, TypeError, ValueError):
            # a field of the wrong shape or type, bad base64, a short blob
            raise StorageError("stored dataset is malformed") from None
        self._remember_opened(prefix, opened)
        # each plaintext is one authenticated JSON document the unit wrote,
        # so the batch parses as one array
        docs = json.loads(b"[" + b",".join(plaintexts) + b"]")
        if form == SLIM:
            return ids, docs
        return ids, [[doc["fields"].get(field) for field in layout] for doc in docs]

    def _remember_opened(self, prefix: bytes, opened: Dict[str, Tuple[str, str, bytes]]) -> None:
        """Keep a prefix's generation just read as its most recent, evicting
        the least recently read prefixes down to OPENED_RECORDS_CAP records."""
        self._opened_records -= len(self._opened.pop(prefix, ()))
        if len(opened) > OPENED_RECORDS_CAP:
            return
        self._opened[prefix] = opened
        self._opened_records += len(opened)
        while self._opened_records > OPENED_RECORDS_CAP:
            self._opened_records -= len(self._opened.pop(next(iter(self._opened))))

    def _forget_opened(self) -> None:
        self._opened = {}
        self._opened_records = 0

    def trace(self, step: str) -> None:
        self.last_trace.append(step)

    # --- envelope plumbing ------------------------------------------------------

    def _open_payload(self, envelope: RequestEnvelope) -> dict:
        plaintext = ae_decrypt(
            self._channel_key(envelope.ephemeral_pub),
            envelope.payload,
            aad=envelope.request_type.encode(),
        )
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
    sealed = ae_encrypt(key, source._seed, aad=b"confidec/seed-transfer/v1")
    target_key = derive_channel_key(target._ka, ephemeral.public_bytes)
    target.install_seed(ae_decrypt(target_key, sealed, aad=b"confidec/seed-transfer/v1"))
