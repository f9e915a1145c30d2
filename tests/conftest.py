"""Shared fixtures: an authority, certificate/unit/session factories."""

import os
import secrets
from datetime import timedelta

import pytest

import confidec
from confidec.crypto.certs import issue_certificate
from confidec.crypto.keys import SigningKeyPair
from confidec.enclave.ccu import Ccu, generate_seed
from confidec.enclave.measurement import CodeBundle
from confidec.fixtures import (
    load_patient_aggregation_docs,
    load_policy_text,
    load_table_doc,
)
from confidec.gateway.client import ClientSession
from confidec.gateway.queue import Gateway
from confidec.storage.node import StorageNode
from confidec.util import utcnow

BUNDLED_FUNCS = ("PatientPrioritizationWithAggr", "Restock", "ChooseCarrier")


def child_env(**overrides) -> dict:
    """The environment for a child Python that must import the confidec under
    test: the parent's, with the directory holding that package first on
    PYTHONPATH, whether it came from PYTHONPATH, an editable or a site install."""
    root = os.path.dirname(os.path.dirname(confidec.__file__))
    inherited = os.environ.get("PYTHONPATH")
    path = root + os.pathsep + inherited if inherited else root
    return dict(os.environ, PYTHONPATH=path, **overrides)


def standard_bundle() -> CodeBundle:
    return CodeBundle.assemble(
        load_policy_text(),
        [load_table_doc(name) for name in BUNDLED_FUNCS],
        load_patient_aggregation_docs(),
    )


def bundle_reading_another_patient_field() -> CodeBundle:
    """The standard bundle, but an aggregation filter also names BloodType,
    so the Patient layout gains a field."""
    docs = load_patient_aggregation_docs()
    docs[1] = dict(docs[1], filter=docs[1]["filter"] + [{"field": "BloodType", "cell": "-"}])
    return CodeBundle.assemble(
        load_policy_text(), [load_table_doc(f) for f in BUNDLED_FUNCS], docs
    )


@pytest.fixture(scope="session")
def authority():
    return SigningKeyPair.generate()


@pytest.fixture
def make_cert(authority):
    """Factory for client certificates; defaults to an authorized hub."""

    def _make(subject="hub", attrs=None, signing_key=None, days=30, issuer=None):
        key = signing_key or SigningKeyPair.generate()
        now = utcnow()
        cert = issue_certificate(
            issuer or authority,
            subject=subject,
            attributes=attrs if attrs is not None else {"Role": "MedicalHub", "Country": "Italy"},
            subject_verify_key=key.verify_key,
            not_before=now - timedelta(minutes=1),
            not_after=now + timedelta(days=days),
        )
        return cert, key

    return _make


@pytest.fixture
def make_unit(authority):
    """Factory for booted units, deployed and seeded unless told otherwise."""

    def _make(name="unit-a", deploy=True, seed=True, storage=None, bundle=None):
        unit = Ccu.boot(
            name,
            authority,
            platform_secret=secrets.token_bytes(32),
            storage=storage or StorageNode.in_memory(),
        )
        if deploy:
            unit.deploy(bundle or standard_bundle())
        if seed:
            unit.install_seed(generate_seed())
        return unit

    return _make


@pytest.fixture
def make_session(authority, make_cert):
    """Factory for client sessions already attested against a unit."""

    def _make(unit, attrs=None, subject="hub"):
        cert, key = make_cert(subject=subject, attrs=attrs)
        session = ClientSession(cert, key, authority.verify_key)
        session.attest(unit.evidence(), unit.measurement)
        return session

    return _make


@pytest.fixture
def make_gateway():
    """Factory for gateways in front of a handler, closed after the test."""
    made = []

    def _make(handler, capacity=64):
        gateway = Gateway(handler, capacity=capacity)
        made.append(gateway)
        return gateway

    yield _make
    for gateway in made:
        gateway.close()
