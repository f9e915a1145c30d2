"""Authenticated encryption: AES-256-GCM with random 96-bit nonces.

The two encrypted fields of the gateway envelopes travel as a `Ciphertext`
(`ae_encrypt`/`ae_decrypt`). Everything a unit stores or seals (records, the
sealed seed, the seed sent to another unit) is the flat wire form
nonce || tag || body (`seal_wire`/`open_wire`). Both go through the same
checked core.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from confidec.errors import AuthenticationFailure

NONCE_LEN = 12
TAG_LEN = 16
KEY_LEN = 32
HEADER_LEN = NONCE_LEN + TAG_LEN  # the wire form's nonce || tag


@dataclass(frozen=True)
class Ciphertext:
    """Nonce, encrypted body and authentication tag for one message."""

    nonce: bytes
    body: bytes
    tag: bytes

    def __post_init__(self):
        if len(self.nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        if len(self.tag) != TAG_LEN:
            raise ValueError(f"tag must be {TAG_LEN} bytes")


def _check_key(key: bytes) -> None:
    if len(key) != KEY_LEN:
        raise ValueError(f"key must be {KEY_LEN} bytes, got {len(key)}")


def _encrypt(key: bytes, plaintext: bytes, aad: bytes) -> tuple[bytes, bytes]:
    """A fresh nonce and AES-GCM's body || tag under it."""
    _check_key(key)
    nonce = secrets.token_bytes(NONCE_LEN)
    return nonce, AESGCM(key).encrypt(nonce, plaintext, aad)


def _decrypt(key: bytes, nonce: bytes, body_and_tag: bytes, aad: bytes) -> bytes:
    _check_key(key)
    try:
        return AESGCM(key).decrypt(nonce, body_and_tag, aad)
    except InvalidTag as exc:
        raise AuthenticationFailure("ciphertext failed authentication") from exc


def ae_encrypt(key: bytes, plaintext: bytes, aad: bytes = b"") -> Ciphertext:
    """Encrypt under a fresh random nonce, binding aad to the ciphertext."""
    nonce, sealed = _encrypt(key, plaintext, aad)
    return Ciphertext(nonce=nonce, body=sealed[:-TAG_LEN], tag=sealed[-TAG_LEN:])


def ae_decrypt(key: bytes, ct: Ciphertext, aad: bytes = b"") -> bytes:
    """Decrypt and authenticate; any mismatch raises AuthenticationFailure."""
    return _decrypt(key, ct.nonce, ct.body + ct.tag, aad)


def seal_wire(key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt under a fresh random nonce to the wire form nonce || tag || body."""
    nonce, sealed = _encrypt(key, plaintext, aad)
    return nonce + sealed[-TAG_LEN:] + sealed[:-TAG_LEN]


def open_wire(key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
    """Decrypt and authenticate a wire-form blob; a blob shorter than its
    header raises ValueError, any mismatch AuthenticationFailure."""
    if len(blob) < HEADER_LEN:
        raise ValueError("ciphertext blob too short")
    return _decrypt(key, blob[:NONCE_LEN], blob[HEADER_LEN:] + blob[NONCE_LEN:HEADER_LEN], aad)
