"""Key pairs and key derivation.

Signatures are ECDSA over P-256 with SHA-256; key agreement is X25519.
Channel keys hash the raw shared secret with SHA-256; record keys bind a
private seed to a public 16-byte randomizer with SHA3-256.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from confidec.errors import KeyDerivationError

SEED_LEN = 32
RANDOMIZER_LEN = 16

_SIG_ALG = ec.ECDSA(hashes.SHA256())


@dataclass(frozen=True)
class SigningKeyPair:
    """ECDSA P-256 signing key with its DER-encoded public half."""

    _private: ec.EllipticCurvePrivateKey

    @classmethod
    def generate(cls) -> "SigningKeyPair":
        return cls(ec.generate_private_key(ec.SECP256R1()))

    @classmethod
    def from_pem(cls, pem: bytes) -> "SigningKeyPair":
        key = serialization.load_pem_private_key(pem, password=None)
        if not isinstance(key, ec.EllipticCurvePrivateKey):
            raise ValueError("expected an EC private key")
        return cls(key)

    def private_pem(self) -> bytes:
        return self._private.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )

    @property
    def verify_key(self) -> bytes:
        """SubjectPublicKeyInfo DER bytes of the public key."""
        return self._private.public_key().public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message, _SIG_ALG)


def verify(verify_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid; never raises on a bad signature."""
    try:
        public = serialization.load_der_public_key(verify_key)
        if not isinstance(public, ec.EllipticCurvePublicKey):
            return False
        public.verify(signature, message, _SIG_ALG)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


@dataclass(frozen=True)
class KeyAgreementKeyPair:
    """X25519 key pair; deterministic when derived from a seed."""

    _private: X25519PrivateKey

    @classmethod
    def generate(cls) -> "KeyAgreementKeyPair":
        return cls(X25519PrivateKey.generate())

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyAgreementKeyPair":
        """Derive the pair deterministically from a 32-byte seed.

        The private scalar is a domain-separated hash of the seed, so the
        same seed always yields the same public key and the seed itself
        never doubles as key material.
        """
        if len(seed) != SEED_LEN:
            raise KeyDerivationError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
        scalar = hashlib.sha256(b"confidec/channel-key-pair/v1" + seed).digest()
        return cls(X25519PrivateKey.from_private_bytes(scalar))

    @property
    def public_bytes(self) -> bytes:
        return self._private.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    def exchange(self, peer_public: bytes) -> bytes:
        if len(peer_public) != 32:
            raise KeyDerivationError("peer public key must be 32 bytes")
        return self._private.exchange(X25519PublicKey.from_public_bytes(peer_public))


def derive_channel_key(pair: KeyAgreementKeyPair, peer_public: bytes) -> bytes:
    """Session key for one envelope: SHA-256 of the raw shared secret."""
    return hashlib.sha256(pair.exchange(peer_public)).digest()


def derive_record_key(seed: bytes, randomizer: bytes) -> bytes:
    """Record key: SHA3-256(seed || randomizer).

    The randomizer is stored in clear in the dataset's manifest; without the
    seed it reveals nothing about the key.
    """
    if len(seed) != SEED_LEN:
        raise KeyDerivationError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    if len(randomizer) != RANDOMIZER_LEN:
        raise KeyDerivationError(
            f"randomizer must be {RANDOMIZER_LEN} bytes, got {len(randomizer)}"
        )
    return hashlib.sha3_256(seed + randomizer).digest()
