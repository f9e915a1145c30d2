"""Lightweight attribute certificates.

A certificate binds a subject, its verification key and a flat attribute
map, signed by the issuing authority over the canonical JSON form of every
field except the signature itself.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Mapping

from confidec.crypto.keys import SigningKeyPair, verify
from confidec.errors import (
    CertificateFormatError,
    CertificateSignatureError,
    CertificateValidityError,
)
from confidec.util import (
    b64, canonical_json, format_rfc3339, parse_rfc3339, typed_fields, unb64, utcnow,
)


@dataclass(frozen=True)
class Certificate:
    serial: str
    subject: str
    not_before: datetime
    not_after: datetime
    attributes: Mapping[str, str]
    subject_verify_key: bytes
    issuer_signature: bytes

    def signed_bytes(self) -> bytes:
        document = certificate_to_obj(self)
        del document["issuerSignature"]
        return canonical_json(document)


def issue_certificate(
    issuer: SigningKeyPair,
    subject: str,
    attributes: Mapping[str, str],
    subject_verify_key: bytes,
    not_before: datetime,
    not_after: datetime,
) -> Certificate:
    """Sign a new certificate with a random 16-byte hex serial."""
    if not_after <= not_before:
        raise ValueError("certificate validity window is empty")
    for key, value in attributes.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise ValueError("certificate attributes must map strings to strings")
    unsigned = Certificate(
        serial=secrets.token_hex(16),
        subject=subject,
        not_before=not_before,
        not_after=not_after,
        attributes=dict(attributes),
        subject_verify_key=subject_verify_key,
        issuer_signature=b"",
    )
    return replace(unsigned, issuer_signature=issuer.sign(unsigned.signed_bytes()))


def verify_certificate(
    issuer_verify_key: bytes,
    cert: Certificate,
    now: datetime | None = None,
) -> Mapping[str, str]:
    """Check issuer signature and validity window; return the attributes.

    Raises CertificateSignatureError or CertificateValidityError; callers
    that need a boolean catch CertificateError.
    """
    now = now or utcnow()
    if not verify(issuer_verify_key, cert.signed_bytes(), cert.issuer_signature):
        raise CertificateSignatureError(
            f"certificate {cert.serial!r}: issuer signature does not verify"
        )
    if now < cert.not_before or now > cert.not_after:
        raise CertificateValidityError(
            f"certificate {cert.serial!r}: outside validity window at {format_rfc3339(now)}"
        )
    return dict(cert.attributes)


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "serial": cert.serial,
        "subject": cert.subject,
        "notBefore": format_rfc3339(cert.not_before),
        "notAfter": format_rfc3339(cert.not_after),
        "attributes": dict(cert.attributes),
        "subjectVerifyKey": b64(cert.subject_verify_key),
        "issuerSignature": b64(cert.issuer_signature),
    }


def certificate_from_obj(obj: Mapping) -> Certificate:
    serial, subject, not_before, not_after, attributes, verify_key, signature = typed_fields(
        obj, "certificate", CertificateFormatError,
        serial=str, subject=str, notBefore=str, notAfter=str, attributes=dict,
        subjectVerifyKey=str, issuerSignature=str,
    )
    try:
        return Certificate(
            serial=serial,
            subject=subject,
            not_before=parse_rfc3339(not_before),
            not_after=parse_rfc3339(not_after),
            attributes=dict(attributes),
            subject_verify_key=unb64(verify_key),
            issuer_signature=unb64(signature),
        )
    except ValueError:
        # a time that is not RFC 3339, or bad base64
        raise CertificateFormatError("malformed certificate document") from None
