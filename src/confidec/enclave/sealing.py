"""Sealing: encrypt unit secrets to a platform plus code identity.

The platform secret stands in for fused hardware keys. A sealing key is
SHA3-256(platformSecret || measurement), the exact code measurement of the
deployed bundle. Data sealed on one platform or under one measurement cannot
be opened under another. A sealed blob is the wire form nonce || tag || body
that the record store also keeps.
"""

from __future__ import annotations

import os
import secrets
from hashlib import sha3_256
from pathlib import Path

from confidec.crypto.aead import open_wire, seal_wire
from confidec.errors import AuthenticationFailure, SealingError

PLATFORM_SECRET_LEN = 32
SEALED_AAD = b"confidec/sealed/measurement"


def load_or_create_platform_secret(path: str | Path) -> bytes:
    """Read the platform secret, creating it on first use (mode 0600)."""
    path = Path(path)
    if path.exists():
        secret = path.read_bytes()
        if len(secret) != PLATFORM_SECRET_LEN:
            raise SealingError(f"platform secret at {path} has the wrong length")
        return secret
    secret = secrets.token_bytes(PLATFORM_SECRET_LEN)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.touch(mode=0o600)
    path.write_bytes(secret)
    os.chmod(path, 0o600)
    return secret


def _sealing_key(platform_secret: bytes, measurement: bytes) -> bytes:
    if len(platform_secret) != PLATFORM_SECRET_LEN:
        raise SealingError("platform secret must be 32 bytes")
    if not measurement:
        raise SealingError("sealing measurement must be non-empty")
    return sha3_256(platform_secret + measurement).digest()


def seal(platform_secret: bytes, measurement: bytes, plaintext: bytes) -> bytes:
    """Seal plaintext to (platform, measurement) as wire bytes nonce || tag || body."""
    return seal_wire(_sealing_key(platform_secret, measurement), plaintext, SEALED_AAD)


def unseal(platform_secret: bytes, measurement: bytes, blob: bytes) -> bytes:
    """Open a sealed blob; a wrong platform or measurement, or a damaged
    blob, raises SealingError."""
    key = _sealing_key(platform_secret, measurement)
    try:
        return open_wire(key, blob, SEALED_AAD)
    except (AuthenticationFailure, ValueError) as exc:  # ValueError: a short blob
        raise SealingError("sealed blob does not open under this identity") from exc
