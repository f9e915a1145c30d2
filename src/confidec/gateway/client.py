"""Client-side channel to an attested unit.

A session verifies the unit's attestation evidence once, then encrypts
request payloads under per-request channel keys so the gateway in between
only ever sees ciphertext.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Tuple

from confidec.crypto.aead import ae_decrypt, ae_encrypt
from confidec.crypto.certs import Certificate
from confidec.crypto.keys import KeyAgreementKeyPair, SigningKeyPair, derive_channel_key
from confidec.enclave.attestation import Evidence, verify_ccu
from confidec.errors import GatewayError
from confidec.gateway.wire import (
    RequestEnvelope,
    ResponseEnvelope,
    envelope_signing_bytes,
    response_aad,
)
from confidec.util import canonical_json


class ClientSession:
    def __init__(
        self,
        certificate: Certificate,
        signing_key: SigningKeyPair,
        authority_verify_key: bytes,
    ):
        self.certificate = certificate
        self._signing_key = signing_key
        self._authority_verify_key = authority_verify_key
        self._unit_ka_public: bytes | None = None

    def attest(self, evidence: Evidence, expected_measurement: bytes) -> Mapping[str, str]:
        """Verify the unit before talking to it; pins its channel key."""
        attributes = verify_ccu(evidence, self._authority_verify_key, expected_measurement)
        self._unit_ka_public = evidence.channel_cert.ka_public
        return attributes

    def build_request(self, request_type: str, payload_obj: Any) -> Tuple[RequestEnvelope, bytes]:
        """Encrypt a payload for the unit; returns the envelope and the
        channel key needed to open the response."""
        if self._unit_ka_public is None:
            raise GatewayError("session has no attested channel")
        ephemeral = KeyAgreementKeyPair.generate()
        key = derive_channel_key(ephemeral, self._unit_ka_public)
        signature = self._signing_key.sign(
            envelope_signing_bytes(request_type, ephemeral.public_bytes)
        )
        envelope = RequestEnvelope(
            request_type=request_type,
            client_cert=self.certificate,
            ephemeral_pub=ephemeral.public_bytes,
            ephemeral_sig=signature,
            payload=ae_encrypt(key, canonical_json(payload_obj), aad=request_type.encode()),
        )
        return envelope, key

    @staticmethod
    def open_response(response: ResponseEnvelope, channel_key: bytes) -> Any:
        """Decrypt an ok response body; raises GatewayError on error status.

        A decision's compact results come back expanded, one
        {"recordId", "outcome", "values"} object per record.
        """
        if response.status != "ok":
            raise GatewayError(response.error or "request failed")
        plaintext = ae_decrypt(
            channel_key, response.body, aad=response_aad(response.correlation_id)
        )
        body = json.loads(plaintext)
        if isinstance(body, dict) and "outputs" in body:
            return expand_results(body)
        return body


def expand_results(body: dict) -> dict:
    """Turn a decision body's `outputs`, `ids` and `k` into one result object
    per record; k is -1 for a record no rule matched. Lists of unequal
    length raise ValueError.

    Each result is made from one template per distinct output tuple, so the
    results with equal outputs share one `values` list, and the no-match
    results one empty list: a caller that changes one result's values
    changes them all.
    """
    templates = [{"outcome": "decided", "values": values} for values in body.pop("outputs")]
    templates.append({"outcome": "noMatch", "values": []})  # templates[-1], for k = -1
    body["results"] = [
        {"recordId": record_id, **templates[k]}
        for record_id, k in zip(body.pop("ids"), body.pop("k"), strict=True)
    ]
    return body
