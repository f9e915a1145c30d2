"""Remote attestation: channel certificates, reports, verification.

Verification walks three steps, each with its own failure class so a
caller can tell a rogue authority from a forged channel from tampered
code: (1) the unit identity certificate chains to the authority, (2) the
channel certificate is signed by the unit key, (3) the report signature
verifies and binds the expected measurement to that exact channel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Mapping

from confidec.crypto.certs import Certificate, verify_certificate
from confidec.crypto.keys import SigningKeyPair, verify
from confidec.errors import (
    CertificateError,
    ChannelCertificateError,
    ReportError,
    UnitCertificateError,
)
from confidec.util import b64, canonical_json


@dataclass(frozen=True)
class ChannelCertificate:
    """Binds a key-agreement public key to a unit subject."""

    subject: str
    ka_public: bytes
    signature: bytes

    def signed_bytes(self) -> bytes:
        return canonical_json({"subject": self.subject, "kaPublic": b64(self.ka_public)})

    def digest(self) -> bytes:
        return hashlib.sha256(self.signed_bytes() + self.signature).digest()


def issue_channel_certificate(
    unit_key: SigningKeyPair, subject: str, ka_public: bytes
) -> ChannelCertificate:
    if len(ka_public) != 32:
        raise ValueError("key-agreement public key must be 32 bytes")
    unsigned = ChannelCertificate(subject=subject, ka_public=ka_public, signature=b"")
    return replace(unsigned, signature=unit_key.sign(unsigned.signed_bytes()))


@dataclass(frozen=True)
class AttestationReport:
    """Signed claim: this code identity serves this channel."""

    measurement: bytes
    channel_cert_hash: bytes
    signature: bytes

    def signed_bytes(self) -> bytes:
        return canonical_json(
            {
                "measurement": self.measurement.hex(),
                "channelCertHash": self.channel_cert_hash.hex(),
            }
        )


def generate_report(
    unit_key: SigningKeyPair, measurement: bytes, channel_cert_hash: bytes
) -> AttestationReport:
    if len(measurement) != 32:
        raise ValueError("measurement must be 32 bytes")
    unsigned = AttestationReport(
        measurement=measurement, channel_cert_hash=channel_cert_hash, signature=b""
    )
    return replace(unsigned, signature=unit_key.sign(unsigned.signed_bytes()))


@dataclass(frozen=True)
class Evidence:
    """Everything a verifier needs: identity cert, channel cert, report."""

    unit_cert: Certificate
    channel_cert: ChannelCertificate
    report: AttestationReport


def verify_ccu(
    evidence: Evidence,
    authority_verify_key: bytes,
    expected_measurement: bytes,
    now: datetime | None = None,
) -> Mapping[str, str]:
    """Verify unit evidence; returns the unit certificate attributes.

    Raises UnitCertificateError, ChannelCertificateError or ReportError
    depending on which step fails.
    """
    try:
        attributes = verify_certificate(authority_verify_key, evidence.unit_cert, now=now)
    except CertificateError as exc:
        raise UnitCertificateError(f"unit certificate rejected: {exc}") from exc

    channel = evidence.channel_cert
    if not verify(
        evidence.unit_cert.subject_verify_key, channel.signed_bytes(), channel.signature
    ):
        raise ChannelCertificateError("channel certificate is not signed by the unit key")

    report = evidence.report
    if not verify(
        evidence.unit_cert.subject_verify_key, report.signed_bytes(), report.signature
    ):
        raise ReportError("attestation report signature does not verify")
    if report.measurement != expected_measurement:
        raise ReportError(
            f"code measurement {report.measurement.hex()} does not match the "
            f"expected {expected_measurement.hex()}"
        )
    if report.channel_cert_hash != channel.digest():
        raise ReportError("attestation report does not bind this channel certificate")

    return attributes
