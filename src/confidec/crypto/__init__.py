"""Signatures, key agreement, key derivation, authenticated encryption."""

from confidec.crypto.aead import Ciphertext, ae_decrypt, ae_encrypt, open_wire, seal_wire
from confidec.crypto.certs import (
    Certificate,
    certificate_from_obj,
    certificate_to_obj,
    issue_certificate,
    verify_certificate,
)
from confidec.crypto.keys import (
    KeyAgreementKeyPair,
    SigningKeyPair,
    derive_channel_key,
    derive_record_key,
    verify,
)

__all__ = [
    "Ciphertext",
    "ae_decrypt",
    "ae_encrypt",
    "open_wire",
    "seal_wire",
    "Certificate",
    "certificate_from_obj",
    "certificate_to_obj",
    "issue_certificate",
    "verify_certificate",
    "KeyAgreementKeyPair",
    "SigningKeyPair",
    "derive_channel_key",
    "derive_record_key",
    "verify",
]
