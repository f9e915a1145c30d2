"""Authenticated encryption, key derivation and attribute certificates."""

import base64
import binascii
import itertools
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from confidec.crypto.aead import (
    KEY_LEN,
    NONCE_LEN,
    TAG_LEN,
    Ciphertext,
    ae_decrypt,
    ae_encrypt,
    open_wire,
    seal_wire,
)
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
from confidec.errors import (
    AuthenticationFailure,
    CertificateFormatError,
    CertificateSignatureError,
    CertificateValidityError,
    KeyDerivationError,
)
from confidec.util import unb64

KEY = bytes(range(32))
T0 = datetime(2026, 1, 1, tzinfo=timezone.utc)


def _flip(blob: bytes, index: int = 0) -> bytes:
    return blob[:index] + bytes([blob[index] ^ 0x01]) + blob[index + 1 :]


def test_encrypt_decrypt_round_trip():
    ct = ae_encrypt(KEY, b"forty-two patients", aad=b"ctx")
    assert ae_decrypt(KEY, ct, aad=b"ctx") == b"forty-two patients"


def test_empty_plaintext_round_trips():
    ct = ae_encrypt(KEY, b"")
    assert ct.body == b""
    assert ae_decrypt(KEY, ct) == b""


@pytest.mark.parametrize("part", ["nonce", "body", "tag"])
def test_tampering_any_part_fails_authentication(part):
    ct = ae_encrypt(KEY, b"immutable", aad=b"a")
    broken = Ciphertext(**{
        "nonce": ct.nonce, "body": ct.body or b"\x00", "tag": ct.tag,
        part: _flip(getattr(ct, part) or b"\x00"),
    })
    with pytest.raises(AuthenticationFailure):
        ae_decrypt(KEY, broken, aad=b"a")


def test_wrong_aad_fails_authentication():
    ct = ae_encrypt(KEY, b"bound", aad=b"table/v1")
    with pytest.raises(AuthenticationFailure):
        ae_decrypt(KEY, ct, aad=b"table/v2")
    with pytest.raises(AuthenticationFailure):
        ae_decrypt(KEY, ct)


def test_wrong_key_fails_authentication():
    ct = ae_encrypt(KEY, b"secret")
    with pytest.raises(AuthenticationFailure):
        ae_decrypt(_flip(KEY), ct)


@pytest.mark.parametrize("bad", [b"", b"short", bytes(31), bytes(33)])
def test_key_length_is_checked(bad):
    with pytest.raises(ValueError):
        ae_encrypt(bad, b"x")
    with pytest.raises(ValueError):
        ae_decrypt(bad, ae_encrypt(KEY, b"x"))


def test_fresh_nonce_per_encryption():
    seen = {ae_encrypt(KEY, b"same").nonce for _ in range(200)}
    assert len(seen) == 200


def test_ciphertext_shape_is_validated():
    with pytest.raises(ValueError):
        Ciphertext(nonce=bytes(NONCE_LEN - 1), body=b"", tag=bytes(TAG_LEN))
    with pytest.raises(ValueError):
        Ciphertext(nonce=bytes(NONCE_LEN), body=b"", tag=bytes(TAG_LEN + 1))


# --- the wire form the record store keeps ---------------------------------


def test_sealed_wire_is_the_ciphertext_wire_form():
    blob = seal_wire(KEY, b"stored record", aad=b"r")
    assert len(blob) == NONCE_LEN + TAG_LEN + len(b"stored record")
    ct = Ciphertext(
        nonce=blob[:NONCE_LEN], tag=blob[NONCE_LEN:NONCE_LEN + TAG_LEN],
        body=blob[NONCE_LEN + TAG_LEN:],
    )
    assert ae_decrypt(KEY, ct, aad=b"r") == b"stored record"
    ct = ae_encrypt(KEY, b"envelope field", aad=b"r")
    assert open_wire(KEY, ct.nonce + ct.tag + ct.body, aad=b"r") == b"envelope field"
    assert open_wire(KEY, seal_wire(KEY, b"")) == b""


@pytest.mark.parametrize("index", [0, NONCE_LEN - 1, NONCE_LEN, NONCE_LEN + TAG_LEN - 1,
                                   NONCE_LEN + TAG_LEN, -1],
                         ids=["nonce", "nonce-end", "tag", "tag-end", "body", "body-end"])
def test_tampering_any_part_of_the_wire_fails_authentication(index):
    blob = seal_wire(KEY, b"immutable", aad=b"a")
    with pytest.raises(AuthenticationFailure):
        open_wire(KEY, _flip(blob, index % len(blob)), aad=b"a")


def test_the_wire_binds_its_aad_and_key():
    blob = seal_wire(KEY, b"bound", aad=b"table/v1")
    with pytest.raises(AuthenticationFailure):
        open_wire(KEY, blob, aad=b"table/v2")
    with pytest.raises(AuthenticationFailure):
        open_wire(KEY, blob)
    with pytest.raises(AuthenticationFailure):
        open_wire(_flip(KEY), blob, aad=b"table/v1")


@pytest.mark.parametrize("bad", [b"", b"short", bytes(31), bytes(33)])
def test_the_wire_checks_the_key_length(bad):
    with pytest.raises(ValueError):
        seal_wire(bad, b"x")
    with pytest.raises(ValueError):
        open_wire(bad, seal_wire(KEY, b"x"))


def test_a_short_wire_blob_is_refused_before_decryption():
    with pytest.raises(ValueError, match="too short"):
        open_wire(KEY, bytes(NONCE_LEN + TAG_LEN - 1))
    with pytest.raises(ValueError, match="too short"):
        open_wire(KEY, b"")


def test_unb64_rejects_whatever_strict_b64decode_rejects():
    # every string up to five characters over an alphabet holding padding,
    # URL-safe and non-ASCII characters and whitespace
    alphabet = "QA+/=_- \né"
    for length in range(6):
        for chars in itertools.product(alphabet, repeat=length):
            text = "".join(chars)
            try:
                want = base64.b64decode(text.encode("ascii"), validate=True)
            except ValueError:
                with pytest.raises(ValueError):
                    unb64(text)
            else:
                assert unb64(text) == want, text
    with pytest.raises(binascii.Error):
        unb64("QQ=")


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=KEY_LEN, max_size=KEY_LEN),
    plaintext=st.binary(max_size=512),
    aad=st.binary(max_size=64),
)
def test_round_trip_for_arbitrary_payloads(key, plaintext, aad):
    assert ae_decrypt(key, ae_encrypt(key, plaintext, aad), aad) == plaintext


def test_record_key_is_deterministic():
    seed, rnd = bytes(32), bytes(16)
    assert derive_record_key(seed, rnd) == derive_record_key(seed, rnd)
    assert len(derive_record_key(seed, rnd)) == KEY_LEN


def test_record_key_depends_on_both_inputs():
    seed, rnd = bytes(32), bytes(16)
    assert derive_record_key(seed, rnd) != derive_record_key(_flip(seed), rnd)
    assert derive_record_key(seed, rnd) != derive_record_key(seed, _flip(rnd))


@pytest.mark.parametrize("seed_len,rnd_len", [(31, 16), (33, 16), (32, 15), (32, 17), (0, 0)])
def test_record_key_length_checks(seed_len, rnd_len):
    with pytest.raises(KeyDerivationError):
        derive_record_key(bytes(seed_len), bytes(rnd_len))


def test_channel_key_agreement_is_symmetric():
    a = KeyAgreementKeyPair.generate()
    b = KeyAgreementKeyPair.generate()
    shared_ab = derive_channel_key(a, b.public_bytes)
    shared_ba = derive_channel_key(b, a.public_bytes)
    assert shared_ab == shared_ba
    assert len(shared_ab) == KEY_LEN

    outsider = KeyAgreementKeyPair.generate()
    assert derive_channel_key(outsider, b.public_bytes) != shared_ab


def test_channel_pair_from_seed_is_deterministic():
    seed = bytes(range(32))
    assert (
        KeyAgreementKeyPair.from_seed(seed).public_bytes
        == KeyAgreementKeyPair.from_seed(seed).public_bytes
    )
    assert (
        KeyAgreementKeyPair.from_seed(seed).public_bytes
        != KeyAgreementKeyPair.from_seed(_flip(seed)).public_bytes
    )
    with pytest.raises(KeyDerivationError):
        KeyAgreementKeyPair.from_seed(bytes(16))


def test_exchange_rejects_malformed_peer_key():
    with pytest.raises(KeyDerivationError):
        KeyAgreementKeyPair.generate().exchange(bytes(16))


def test_sign_verify_round_trip():
    pair = SigningKeyPair.generate()
    sig = pair.sign(b"notarize me")
    assert verify(pair.verify_key, b"notarize me", sig)
    assert not verify(pair.verify_key, b"notarize me!", sig)
    assert not verify(pair.verify_key, b"notarize me", _flip(sig, 8))
    assert not verify(b"not a key", b"notarize me", sig)
    assert not verify(SigningKeyPair.generate().verify_key, b"notarize me", sig)


def test_signing_key_pem_round_trip():
    pair = SigningKeyPair.generate()
    clone = SigningKeyPair.from_pem(pair.private_pem())
    assert clone.verify_key == pair.verify_key
    assert verify(pair.verify_key, b"m", clone.sign(b"m"))


def _cert(issuer, **overrides):
    subject_key = SigningKeyPair.generate()
    kwargs = {
        "subject": "hub",
        "attributes": {"Role": "MedicalHub", "Country": "Italy"},
        "subject_verify_key": subject_key.verify_key,
        "not_before": T0,
        "not_after": T0 + timedelta(days=30),
    }
    kwargs.update(overrides)
    return issue_certificate(issuer, **kwargs)


def test_certificate_verifies_and_yields_attributes():
    issuer = SigningKeyPair.generate()
    cert = _cert(issuer)
    attrs = verify_certificate(issuer.verify_key, cert, now=T0 + timedelta(days=1))
    assert attrs == {"Role": "MedicalHub", "Country": "Italy"}


@pytest.mark.parametrize("offset", [timedelta(days=-1), timedelta(days=31)])
def test_certificate_validity_window_enforced(offset):
    issuer = SigningKeyPair.generate()
    with pytest.raises(CertificateValidityError):
        verify_certificate(issuer.verify_key, _cert(issuer), now=T0 + offset)


def test_certificate_from_other_issuer_rejected():
    cert = _cert(SigningKeyPair.generate())
    with pytest.raises(CertificateSignatureError):
        verify_certificate(SigningKeyPair.generate().verify_key, cert, now=T0)


def test_tampered_attributes_break_the_signature():
    issuer = SigningKeyPair.generate()
    cert = _cert(issuer)
    forged = certificate_from_obj({
        **certificate_to_obj(cert),
        "attributes": {"Role": "CCU", "Country": "Italy"},
    })
    with pytest.raises(CertificateSignatureError):
        verify_certificate(issuer.verify_key, forged, now=T0)


def test_certificate_obj_round_trip():
    cert = _cert(SigningKeyPair.generate())
    again = certificate_from_obj(certificate_to_obj(cert))
    assert again == cert
    assert certificate_to_obj(again) == certificate_to_obj(cert)


def test_certificate_signed_form_is_pinned():
    # certificates already stored in CLI homes are signed over exactly these bytes
    cert = Certificate(
        serial="00ff",
        subject="Clínica São José",
        not_before=datetime(2026, 1, 2, 5, 4, 5, tzinfo=timezone(timedelta(hours=2))),
        not_after=datetime(2027, 1, 2, 3, 4, 5, 678000, tzinfo=timezone.utc),
        attributes={"Role": "Patient", "Città": "Torino €"},
        subject_verify_key=bytes(range(32)),
        issuer_signature=b"\x01" * 64,
    )
    assert cert.signed_bytes() == (
        b'{"attributes":{"Citt\xc3\xa0":"Torino \xe2\x82\xac","Role":"Patient"},'
        b'"notAfter":"2027-01-02T03:04:05.678000Z","notBefore":"2026-01-02T03:04:05Z",'
        b'"serial":"00ff","subject":"Cl\xc3\xadnica S\xc3\xa3o Jos\xc3\xa9",'
        b'"subjectVerifyKey":"AAECAwQFBgcICQoLDA0ODxAREhMUFRYXGBkaGxwdHh8="}'
    )


def test_malformed_certificate_document_rejected():
    obj = certificate_to_obj(_cert(SigningKeyPair.generate()))
    del obj["issuerSignature"]
    with pytest.raises(CertificateFormatError):
        certificate_from_obj(obj)
    with pytest.raises(CertificateFormatError):
        certificate_from_obj({"serial": "x"})


def test_issue_rejects_bad_inputs():
    issuer = SigningKeyPair.generate()
    with pytest.raises(ValueError):
        _cert(issuer, not_after=T0)
    with pytest.raises(ValueError):
        _cert(issuer, attributes={"Role": 7})
