"""A model-based test of a directory-backed unit's lifecycle.

A hypothesis state machine provisions and re-provisions two datasets, fails
storage writes, decides, redeploys and reopens the store, against a plaintext
model: each dataset's last committed version. After every step both forms of
every committed dataset decide as `decide_all` does over that version, and the
chain verifies with one entry per successful provision.
"""

import secrets
import shutil
import tempfile
from datetime import timedelta

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import disk_full, standard_bundle
from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.certs import issue_certificate
from confidec.crypto.keys import SigningKeyPair
from confidec.dmn.engine import decide_all
from confidec.dmn.tables import record_to_obj
from confidec.enclave.ccu import Ccu, generate_seed
from confidec.errors import ConfidecError
from confidec.fixtures import load_patient_aggregations, load_table
from confidec.gateway.client import ClientSession
from confidec.storage.node import StorageNode
from confidec.util import utcnow

NAMES = ("vax/patients", "vax/others")
TABLE = load_table("PatientPrioritizationWithAggr")
AGGREGATIONS = load_patient_aggregations()
AUTHORITY = SigningKeyPair.generate()


def _oracle(records):
    try:
        results = decide_all(TABLE, records, AGGREGATIONS)
    except ConfidecError as exc:
        return str(exc)
    return [
        {"recordId": r.record_id, "outcome": r.outcome, "values": list(r.values)}
        for r in results
    ]


def _session(unit):
    key = SigningKeyPair.generate()
    now = utcnow()
    certificate = issue_certificate(
        AUTHORITY,
        subject="hub",
        attributes={"Role": "MedicalHub", "Country": "Italy"},
        subject_verify_key=key.verify_key,
        not_before=now - timedelta(minutes=1),
        not_after=now + timedelta(days=1),
    )
    session = ClientSession(certificate, key, AUTHORITY.verify_key)
    session.attest(unit.evidence(), unit.measurement)
    return session


class UnitLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="confidec-lifecycle-")
        self.seed = generate_seed()
        self.platform_secret = secrets.token_bytes(32)
        self.committed = {}  # dataset name -> its records as last provisioned
        self.provisions = 0
        self._open_unit()

    def _open_unit(self):
        self.unit = Ccu.boot(
            "unit-a", AUTHORITY, self.platform_secret, StorageNode.at_directory(self.directory)
        )
        self.unit.deploy(standard_bundle())
        self.unit.install_seed(self.seed)
        self.session = _session(self.unit)

    def _provision(self, name, size, seed):
        records = generate_vax(VaxSpec("Patient", size, seed))
        envelope, _ = self.session.build_request("provision", {
            "dataName": name, "structure": "Patient",
            "records": [record_to_obj(r) for r in records],
        })
        return records, self.unit.handle("t-prov", envelope)

    def _decide(self, data_name):
        envelope, key = self.session.build_request(
            "decision", {"funcName": TABLE.name, "dataName": data_name}
        )
        response = self.unit.handle("t-dec", envelope)
        if response.status != "ok":
            return response.error
        return ClientSession.open_response(response, key)["results"]

    @rule(name=st.sampled_from(NAMES), size=st.integers(0, 8), seed=st.integers(0, 99))
    def provision(self, name, size, seed):
        records, response = self._provision(name, size, seed)
        assert response.status == "ok", response.error
        self.committed[name] = records
        self.provisions += 1

    @rule(name=st.sampled_from(NAMES), size=st.integers(0, 8), seed=st.integers(0, 99),
          writes=st.integers(0, 3))
    def provision_whose_write_fails(self, name, size, seed, writes):
        """One of the four writes fails: the full blob, the slim blob, the
        manifest or the chain line."""
        with disk_full(after=writes):
            _, response = self._provision(name, size, seed)
        assert (response.status, response.error) == ("error", "storage write failed")

    def _want(self, name):
        if name not in self.committed:
            return "name was never published"
        return _oracle(self.committed[name])

    @rule(name=st.sampled_from(NAMES), full=st.booleans())
    def decide(self, name, full):
        assert self._decide(name + ".full" if full else name) == self._want(name)

    @rule()
    def redeploy_the_same_bundle(self):
        self.unit.deploy(standard_bundle())
        assert self.unit.has_seed

    @rule()
    def reopen_the_store(self):
        self._open_unit()

    @invariant()
    def both_forms_answer_the_committed_version(self):
        for name in NAMES:
            want = self._want(name)
            assert self._decide(name) == want
            assert self._decide(name + ".full") == want

    @invariant()
    def the_chain_holds_one_entry_per_provision(self):
        chain = self.unit._storage.chain
        assert chain.verify_chain() is None
        assert len(chain) == self.provisions

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


UnitLifecycle.TestCase.settings = settings(
    max_examples=30, stateful_step_count=10, derandomize=True, database=None, deadline=None
)
test_unit_lifecycle = UnitLifecycle.TestCase
