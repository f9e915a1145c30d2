"""Wire envelopes exchanged through the gateway.

Requests carry the client certificate, a signed ephemeral key-agreement
public key, and the payload encrypted under the derived channel key. The
gateway forwards envelopes without being able to open them.
"""

from __future__ import annotations

from dataclasses import dataclass

from confidec.crypto.aead import Ciphertext
from confidec.crypto.certs import Certificate, certificate_to_obj
from confidec.util import b64

REQUEST_TYPES = ("provision", "decision")


def envelope_signing_bytes(request_type: str, ephemeral_pub: bytes) -> bytes:
    """Bytes a client signs to bind its ephemeral key to the request."""
    return b"confidec/envelope/v1:" + request_type.encode("utf-8") + b":" + ephemeral_pub


@dataclass(frozen=True)
class RequestEnvelope:
    request_type: str
    client_cert: Certificate
    ephemeral_pub: bytes
    ephemeral_sig: bytes
    payload: Ciphertext

    def __post_init__(self):
        if self.request_type not in REQUEST_TYPES:
            raise ValueError(f"bad request type {self.request_type!r}")
        if len(self.ephemeral_pub) != 32:
            raise ValueError("ephemeral public key must be 32 bytes")


@dataclass(frozen=True)
class ResponseEnvelope:
    correlation_id: str
    status: str  # "ok" | "error"
    body: Ciphertext | None = None
    error: str | None = None

    def __post_init__(self):
        if self.status not in ("ok", "error"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "ok" and self.body is None:
            raise ValueError("ok response needs a body")
        if self.status == "error" and not self.error:
            raise ValueError("error response needs an error message")


def _ciphertext_to_obj(ct: Ciphertext) -> dict:
    return {"nonce": b64(ct.nonce), "body": b64(ct.body), "tag": b64(ct.tag)}


def request_to_obj(env: RequestEnvelope) -> dict:
    return {
        "requestType": env.request_type,
        "clientCert": certificate_to_obj(env.client_cert),
        "ephemeralPub": b64(env.ephemeral_pub),
        "ephemeralSig": b64(env.ephemeral_sig),
        "payload": _ciphertext_to_obj(env.payload),
    }


def response_to_obj(env: ResponseEnvelope) -> dict:
    obj: dict = {"correlationId": env.correlation_id, "status": env.status}
    if env.body is not None:
        obj["body"] = _ciphertext_to_obj(env.body)
    if env.error is not None:
        obj["error"] = env.error
    return obj


def response_aad(correlation_id: str) -> bytes:
    return b"confidec/response/v1:" + correlation_id.encode("utf-8")
