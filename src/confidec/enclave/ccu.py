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
from collections import OrderedDict
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from confidec.crypto.aead import ae_decrypt, ae_encrypt, open_wire, seal_wire
from confidec.crypto.certs import Certificate, issue_certificate, verify_certificate
from confidec.crypto.keys import (
    RANDOMIZER_LEN,
    SEED_LEN,
    KeyAgreementKeyPair,
    SigningKeyPair,
    derive_channel_key,
    derive_record_key,
    verify,
)
from confidec.dmn.model import check_record_docs
from confidec.dmn.program import fields_read
from confidec.dmn.tables import (
    parse_aggregation_spec,
    parse_decision_table,
    parse_record,  # noqa: F401 - perfbench/tracer.py times `ccu.parse_record`
)
from confidec.enclave.attestation import (
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
    KeyDerivationError,
    MalformedRequestError,
    ServiceBuildError,
    StorageError,
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
    OpenedRecords,
    build_desobj,
    handle_decision as run_decision_handler,
)
from confidec.storage.node import StorageNode
from confidec.util import b64, canonical_json, length_prefixed, typed_fields, unb64, utcnow

FULL_SUFFIX = ".full"


def generate_seed() -> bytes:
    """Fresh 32-byte data seed."""
    return secrets.token_bytes(SEED_LEN)


def issue_unit_certificate(
    authority: SigningKeyPair, name: str, verify_key: bytes, now: datetime
) -> Certificate:
    """The authority's certificate for a unit's identity key."""
    return issue_certificate(
        authority,
        subject=name,
        attributes={"Role": "CCU", "Unit": name},
        subject_verify_key=verify_key,
        not_before=now,
        not_after=now + timedelta(days=365),
    )


# Each form is one blob per dataset, [fields, ids, columns]: the form's fields,
# the record ids and a column per field. Both forms of a provision are sealed
# under the one key of its manifest's randomizer.
SLIM = "slim"  # the fields of the structure's layout
FULL = "full"  # the sorted union of the dataset's fields

# JSON arrays of validated values: no keys to sort, no cycles to look for
_ARRAYS = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), check_circular=False)

# The most cells (records times layout fields plus one for the ids, summed
# over datasets and forms) a unit keeps opened for later decisions. A cell
# held about 52 bytes with the ids, the columns and one function's decision
# body (tracemalloc, 4 000 patients over 6 layout fields), so the cap is about
# 3.4 MB. A kept version holds a body per function that decided over it: the
# deployed functions reading its structure bound their number.
OPENED_CELLS = 1 << 16


def _record_aad(dataset: str, form: str, layout: Sequence[str]) -> bytes:
    """The AAD of a dataset's blob in one form. It binds the dataset, the form
    and, for a slim blob, the structure's layout, so that a blob read under
    another name, form or layout fails authentication; a full blob names its
    own fields."""
    bound = layout if form == SLIM else ()
    return b"confidec/record/v4:" + length_prefixed(
        dataset.encode("utf-8"),
        form.encode("utf-8"),
        length_prefixed(*(name.encode("utf-8") for name in bound)),
    )


def _project(
    columns: Sequence[Sequence[object]], fields: Sequence[str], layout: Sequence[str], n: int
) -> List[Sequence[object]]:
    """The columns of layout's fields, picked from n records' columns over
    fields; a layout field that fields lack reads as one shared column of
    None."""
    position = {field: i for i, field in enumerate(fields)}
    absent = [None] * n
    return [columns[position[field]] if field in position else absent for field in layout]


@dataclass(frozen=True)
class _Opened:
    """One form of a dataset as the unit opened it: the manifest bytes it
    read and the records."""

    manifest: bytes
    records: OpenedRecords

    @property
    def cells(self) -> int:
        return len(self.records.ids) * (len(self.records.columns) + 1)


class Ccu:
    def __init__(
        self,
        name: str,
        authority_verify_key: bytes,
        identity_cert: Certificate,
        signing_key: SigningKeyPair,
        platform_secret: bytes,
        storage: StorageNode,
    ):
        self.name = name
        self.authority_verify_key = authority_verify_key
        self.identity_cert = identity_cert
        self._signing_key = signing_key
        self._platform_secret = platform_secret
        self._storage = storage

        self._seed: bytes | None = None
        self._set_channel_keys(KeyAgreementKeyPair.generate())
        self._measurement: bytes | None = None
        self._services: Dict[str, DecisionService] = {}
        # per structure, the fields of its slim records, in stored order
        self._layouts: Dict[str, Tuple[str, ...]] = {}
        # per (dataset, form), the version last opened, least recently read first
        self._opened: OrderedDict[Tuple[str, str], _Opened] = OrderedDict()

        # held by a request, and by a deploy or seed install while it swaps
        self._busy = threading.Lock()
        self.handled: List[dict] = []
        self.last_trace: List[str] = []

    @classmethod
    def boot(
        cls,
        name: str,
        authority: SigningKeyPair,
        platform_secret: bytes,
        storage: StorageNode,
    ) -> "Ccu":
        """Create a unit with a fresh identity certified by the authority."""
        signing_key = SigningKeyPair.generate()
        return cls(
            name=name,
            authority_verify_key=authority.verify_key,
            identity_cert=issue_unit_certificate(
                authority, name, signing_key.verify_key, utcnow()
            ),
            signing_key=signing_key,
            platform_secret=platform_secret,
            storage=storage,
        )

    # --- deployment -------------------------------------------------------

    def deploy(self, bundle: CodeBundle) -> bytes:
        """Install a code bundle; returns its measurement. The bundle is
        lowered first; the swap then waits for the request in flight, if
        any."""
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
        with self._busy:
            if self._measurement is not None and measurement != self._measurement and self._seed is not None:
                # a different code identity must not inherit the seed
                self._seed = None
                self._set_channel_keys(KeyAgreementKeyPair.generate())
            self._measurement = measurement
            self._services = services
            self._layouts = layouts
            self._opened.clear()
        return measurement

    @property
    def measurement(self) -> bytes | None:
        return self._measurement

    def service(self, func_name: str) -> DecisionService:
        try:
            return self._services[func_name]
        except KeyError:
            raise UnknownFunctionError("no deployed function by that name") from None

    # --- seed and channel ---------------------------------------------------

    @property
    def has_seed(self) -> bool:
        return self._seed is not None

    def install_seed(self, seed: bytes) -> None:
        """Adopt a data seed, once the request in flight, if any, is done;
        the channel key pair becomes seed-derived."""
        if len(seed) != SEED_LEN:
            raise ConfidecError(f"seed must be {SEED_LEN} bytes")
        with self._busy:
            self._seed = seed
            self._set_channel_keys(KeyAgreementKeyPair.from_seed(seed))
            self._opened.clear()

    def _set_channel_keys(self, ka: KeyAgreementKeyPair) -> None:
        """Adopt a channel key pair and certify its public key."""
        self._ka = ka
        self._channel_cert = issue_channel_certificate(
            self._signing_key, self.name, ka.public_bytes
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
        """Process one envelope; called by the gateway worker only. A request
        that arrives while another, a deploy or a seed install holds the unit
        raises RuntimeError."""
        if not self._busy.acquire(blocking=False):
            raise RuntimeError("unit asked to handle two requests at once")
        started = time.monotonic_ns()
        self.last_trace = []
        try:
            try:
                key = self._channel_key(envelope.ephemeral_pub)
                attributes = self._caller(envelope)
                if envelope.request_type == "provision":
                    plaintext = canonical_json(self.handle_provision(envelope, key, attributes))
                else:
                    plaintext = self.handle_decision(envelope, key, attributes)
                body = ae_encrypt(key, plaintext, aad=response_aad(correlation_id))
                return ResponseEnvelope(correlation_id=correlation_id, status="ok", body=body)
            except ConfidecError as exc:
                return ResponseEnvelope(
                    correlation_id=correlation_id, status="error", error=str(exc)
                )
        finally:
            self.handled.append(
                {"ticket": correlation_id, "start": started, "end": time.monotonic_ns()}
            )
            self._busy.release()

    def _caller(self, envelope: RequestEnvelope) -> Mapping[str, str] | None:
        """Attributes of the envelope's certificate if the authority issued it
        and its key signed the envelope's ephemeral key; None otherwise."""
        certificate = envelope.client_cert
        if not verify(
            certificate.subject_verify_key,
            envelope_signing_bytes(envelope.request_type, envelope.ephemeral_pub),
            envelope.ephemeral_sig,
        ):
            return None
        try:
            return verify_certificate(self.authority_verify_key, certificate, now=utcnow())
        except CertificateError:
            return None

    # --- provisioning -----------------------------------------------------------

    def handle_provision(
        self, envelope: RequestEnvelope, key: bytes, attributes: Mapping[str, str] | None
    ) -> dict:
        """Seal a dataset in two forms, full and slimmed to decision fields,
        publish one manifest naming both, and return the receipt; key is the
        request's channel key and attributes the caller's, None if its
        certificate failed."""
        if attributes is None:
            raise DecisionRejected(REJECT_CERTIFICATE)
        data_name, structure, raw_records = _open_payload(
            envelope, key, dataName=str, structure=str, records=list
        )
        if self._seed is None:
            raise ConfidecError("unit has no data seed installed")
        if not data_name or data_name.endswith(FULL_SUFFIX):
            raise MalformedRequestError("bad dataset name")

        layout = self._layouts.get(structure)
        if layout is None:
            raise UnknownFunctionError("no deployed function reads structure of that name")
        # the name's kept versions will not be read again once this
        # provision publishes: free them before its records take memory
        for form in (SLIM, FULL):
            self._opened.pop((data_name, form), None)

        union = check_record_docs(raw_records)
        ids = [record["id"] for record in raw_records]
        # each record's values over the union, transposed: one pass over the
        # records in the order they were parsed, not one per field
        columns = list(zip(*[list(map(record["fields"].get, union)) for record in raw_records]))
        t = secrets.token_bytes(RANDOMIZER_LEN)
        key = derive_record_key(self._seed, t)
        # the full form holds every text of the payload, so its seal refuses
        # one that is not UTF-8 before any blob is stored
        full, full_bytes = self._seal(key, data_name, FULL, union, ids, columns)
        slim_columns = _project(columns, union, layout, len(ids))
        slim, slim_bytes = self._seal(key, data_name, SLIM, layout, ids, slim_columns)
        # one manifest for both forms, published once both blobs are stored
        manifest = canonical_json(
            {"dataset": data_name, "structure": structure, "t": b64(t), SLIM: slim, FULL: full}
        )
        count = len(raw_records)
        return {
            "dataName": data_name,
            "structure": structure,
            "address": self._storage.publish(data_name, manifest),
            SLIM: {"records": count, "storedBytes": slim_bytes + len(manifest)},
            FULL: {"records": count, "storedBytes": full_bytes + len(manifest)},
        }

    def _seal(
        self,
        key: bytes,
        data_name: str,
        form: str,
        fields: Sequence[str],
        ids: List[str],
        columns: Sequence[Sequence[object]],
    ) -> Tuple[str, int]:
        """Seal one form of a dataset, [fields, ids, columns], as one blob
        under key and store it; returns the blob's address and size."""
        try:
            plaintext = _ARRAYS.encode([fields, ids, columns]).encode("utf-8")
            aad = _record_aad(data_name, form, fields)
        except UnicodeEncodeError:  # a lone surrogate: valid JSON, but no UTF-8
            raise MalformedRequestError("provision holds text that is not UTF-8") from None
        blob = seal_wire(key, plaintext, aad)
        return self._storage.blobs.put(blob), len(blob)

    # --- decisions ---------------------------------------------------------------

    def handle_decision(
        self, envelope: RequestEnvelope, key: bytes, attributes: Mapping[str, str] | None
    ) -> bytes:
        """Run the guarded handler named in the envelope payload and return
        the decision body; key is the request's channel key and attributes
        the caller's, None if its certificate failed."""
        func_name, data_name = _open_payload(envelope, key, funcName=str, dataName=str)
        return run_decision_handler(self.service(func_name), attributes, data_name, self)

    # HandlerEnv implementation ----------------------------------------------

    def decrypt_data(self, data_name: str, structure: str) -> OpenedRecords:
        """The ids of the records published under data_name and, per field
        of the structure's layout, the column of their values (None for an
        absent field).

        `<name>` reads the slim blob of `<name>`'s manifest and `<name>.full`
        its full blob. Either blob names its fields, and its columns are
        picked by name: a slim blob's are the layout's, a full one's the
        dataset's union, and a layout field the union lacks reads as one
        shared column of None. A manifest that names another dataset is
        refused before any blob is read. The blob is hash-checked on get and
        authenticated against its dataset, its form and, if slim, the layout;
        a manifest the storage operator malformed raises StorageError like
        any other tampering.

        Every read fetches and checks the manifest and gets the blob. When
        the manifest's bytes are those of the version last opened in this
        form, that version's records answer, without opening the blob again:
        the bytes fix the address and the randomizer, the get has just
        checked the blob's content against the address, and the seed and
        layout have not changed since (`deploy` and `install_seed` wait for
        the request in flight, then drop every kept version). So they are
        the records an open would give. Opened versions are kept within
        OPENED_CELLS, the least recently read dropped first; a version
        larger than that is not kept.
        """
        seed = self._seed
        if seed is None:
            raise ConfidecError("unit has no data seed installed")
        layout = self._layouts[structure]
        dataset = data_name.removesuffix(FULL_SUFFIX)
        form = SLIM if dataset == data_name else FULL
        try:
            manifest_bytes = self._storage.fetch(dataset)
            manifest = json.loads(manifest_bytes)
            if manifest.get("structure") != structure:
                raise StorageError(
                    "dataset holds another structure's records, "
                    f"but the function reads {structure!r}"
                )
            # a field absent or of another type raises ValueError: malformed, as below
            (named,) = typed_fields(manifest, "manifest", ValueError, dataset=str)
            if named != dataset:
                raise StorageError("stored manifest names another dataset")
            address, t = typed_fields(manifest, "manifest", ValueError, **{form: str}, t=str)
            key = derive_record_key(seed, unb64(t))
            blob = self._storage.blobs.get(address)
            kept = self._opened.get((dataset, form))
            if kept is not None and kept.manifest == manifest_bytes:
                self._opened.move_to_end((dataset, form))
                return kept.records
            # one authenticated [fields, ids, columns] document the unit wrote
            fields, ids, columns = json.loads(open_wire(key, blob, _record_aad(dataset, form, layout)))
            n = len(ids)
            if len(columns) != len(fields) or any(len(column) != n for column in columns):
                raise ValueError  # malformed, as below
            columns = _project(columns, fields, layout, n)
        except (AttributeError, KeyDerivationError, RecursionError, TypeError, ValueError):
            # no object, a field of the wrong shape or type, bad base64, a
            # randomizer of the wrong length, a short blob
            raise StorageError("stored dataset is malformed") from None
        records = OpenedRecords(ids, columns)
        self._keep((dataset, form), _Opened(manifest_bytes, records))
        return records

    def _keep(self, key: Tuple[str, str], opened: _Opened) -> None:
        """Keep an opened version in place of the key's last one, dropping
        the least recently read versions until the cells fit OPENED_CELLS; a
        version larger than the cap is not kept and drops nothing."""
        if opened.cells > OPENED_CELLS:
            return
        self._opened.pop(key, None)
        while sum(kept.cells for kept in self._opened.values()) + opened.cells > OPENED_CELLS:
            self._opened.popitem(last=False)
        self._opened[key] = opened

    def trace(self, step: str) -> None:
        self.last_trace.append(step)


def _open_payload(envelope: RequestEnvelope, key: bytes, **shape: type) -> List[object]:
    """The values of the request's JSON object, opened with its channel key,
    under the keys shape names; each value must be of exactly the type shape
    gives its key."""
    plaintext = ae_decrypt(key, envelope.payload, aad=envelope.request_type.encode())
    try:
        payload = json.loads(plaintext)
    except (RecursionError, ValueError) as exc:  # RecursionError: nested too deep
        raise MalformedRequestError("request payload is not JSON") from exc
    if not isinstance(payload, dict):
        raise MalformedRequestError("request payload must be an object")
    return typed_fields(payload, "payload", MalformedRequestError, **shape)


def exchange_seed(source: Ccu, target: Ccu) -> None:
    """Move the data seed from one unit to another after mutual attestation.

    Both units must run the same deployed bundle. Either attestation
    failure aborts the exchange before any seed material moves; on success
    both units derive identical channel key pairs from the shared seed.
    """
    if source.measurement is None or target.measurement is None:
        raise AttestationError("both units need a deployed bundle before a seed exchange")

    target_attrs = verify_ccu(target.evidence(), source.authority_verify_key, source.measurement)
    if target_attrs.get("Role") != "CCU":
        raise UnitCertificateError("seed receiver is not certified as a unit")
    source_attrs = verify_ccu(source.evidence(), target.authority_verify_key, target.measurement)
    if source_attrs.get("Role") != "CCU":
        raise UnitCertificateError("seed sender is not certified as a unit")

    if not source.has_seed:
        source.install_seed(generate_seed())

    ephemeral = KeyAgreementKeyPair.generate()
    key = derive_channel_key(ephemeral, target.channel_certificate.ka_public)
    sealed = seal_wire(key, source._seed, b"confidec/seed-transfer/v1")
    target_key = derive_channel_key(target._ka, ephemeral.public_bytes)
    target.install_seed(open_wire(target_key, sealed, b"confidec/seed-transfer/v1"))
