"""A model-based test of a directory-backed unit's lifecycle.

A hypothesis state machine provisions and re-provisions two datasets, fails
storage writes, decides, redeploys (the same bundle, or under the same seed one
whose Patient layout differs, or one whose patient table answers other outputs
over the same layout, and back), installs a fresh seed, flips a byte of a
committed blob file and reopens the store, against a plaintext model: each
dataset's last committed version, the bundle and the seed it was committed
under, and which of its forms' blobs were altered since. After every step each
form of every committed dataset decides as `decide_all` does over that version
with the deployed bundle's table, unless its blob was altered, which fails the
content check, or it was committed under another seed, or (slim only) under
another layout, which fails authentication; the chain verifies with one entry
per successful provision. Most of these reads find the version, and the
decision body, the unit keeps from the read before, so they hold both to the
answers of a fresh open and decision.
"""

import json
import secrets
import shutil
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from conftest import (
    BUNDLED_FUNCS,
    bundle_reading_another_patient_field,
    disk_full,
    standard_bundle,
)
from confidec.bench.vax import VaxSpec, generate_vax
from confidec.crypto.certs import issue_certificate
from confidec.crypto.keys import SigningKeyPair
from confidec.dmn.engine import decide_all
from confidec.dmn.tables import parse_decision_table, record_to_obj
from confidec.enclave.measurement import CodeBundle
from confidec.enclave.ccu import Ccu, generate_seed
from confidec.errors import ConfidecError
from confidec.fixtures import (
    load_patient_aggregation_docs,
    load_patient_aggregations,
    load_policy_text,
    load_table_doc,
)
from confidec.gateway.client import ClientSession
from confidec.storage.node import StorageNode
from confidec.util import utcnow

NAMES = ("vax/patients", "vax/others")
TABLE_DOC = load_table_doc("PatientPrioritizationWithAggr")
# the patient table with other outputs: its name, inputs and layout stay
OTHER_OUTPUTS_DOC = dict(TABLE_DOC, rules=[
    dict(rule, outputs=[f"{value} again" for value in rule["outputs"]])
    for rule in TABLE_DOC["rules"]
])
AGGREGATIONS = load_patient_aggregations()
AUTHORITY = SigningKeyPair.generate()
# the bundles a unit runs in turn
BUNDLES = {
    "standard": standard_bundle(),
    "another-layout": bundle_reading_another_patient_field(),
    "other-outputs": CodeBundle.assemble(
        load_policy_text(),
        [OTHER_OUTPUTS_DOC if f == TABLE_DOC["name"] else load_table_doc(f)
         for f in BUNDLED_FUNCS],
        load_patient_aggregation_docs(),
    ),
}
# per bundle, its patient table and the bundle whose Patient layout it has
TABLES = {
    "standard": parse_decision_table(TABLE_DOC),
    "another-layout": parse_decision_table(TABLE_DOC),
    "other-outputs": parse_decision_table(OTHER_OUTPUTS_DOC),
}
LAYOUT_OF = {"standard": "standard", "another-layout": "another-layout",
             "other-outputs": "standard"}


def _oracle(table, records):
    try:
        results = decide_all(table, records, AGGREGATIONS)
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
        self.bundle = "standard"  # the deployed bundle, deployed again on reopening
        # dataset name -> its records as last provisioned, the bundle and the seed then
        self.committed = {}
        # (dataset name, full) of each committed form whose blob file was altered
        self.tampered = set()
        self.provisions = 0
        self._open_unit()

    def _open_unit(self):
        self.unit = Ccu.boot(
            "unit-a", AUTHORITY, self.platform_secret, StorageNode.at_directory(self.directory)
        )
        self.unit.deploy(BUNDLES[self.bundle])
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
            "decision", {"funcName": TABLE_DOC["name"], "dataName": data_name}
        )
        response = self.unit.handle("t-dec", envelope)
        if response.status != "ok":
            return response.error
        return ClientSession.open_response(response, key)["results"]

    @initialize(size=st.integers(0, 8), seed=st.integers(0, 99))
    def provision_the_first_dataset(self, size, seed):
        """So that most steps read a committed dataset; the other one starts
        unpublished."""
        self.provision(NAMES[0], size, seed)

    @rule(name=st.sampled_from(NAMES), size=st.integers(0, 8), seed=st.integers(0, 99))
    def provision(self, name, size, seed):
        records, response = self._provision(name, size, seed)
        assert response.status == "ok", response.error
        self.committed[name] = records, self.bundle, self.seed
        self.tampered -= {(name, False), (name, True)}
        self.provisions += 1

    @rule(name=st.sampled_from(NAMES), size=st.integers(0, 8), seed=st.integers(0, 99),
          writes=st.integers(0, 3))
    def provision_whose_write_fails(self, name, size, seed, writes):
        """One of the four writes fails: the full blob, the slim blob, the
        manifest or the chain line."""
        with disk_full(after=writes):
            _, response = self._provision(name, size, seed)
        assert (response.status, response.error) == ("error", "storage write failed")

    def _assert_answers(self, name, full):
        answer = self._decide(name + ".full" if full else name)
        if name not in self.committed:
            assert answer == "name was never published"
            return
        records, bundle, seed = self.committed[name]
        if (name, full) in self.tampered:  # the blob is checked before it is opened
            assert answer == "blob failed its content check"
        elif seed != self.seed or not full and LAYOUT_OF[bundle] != LAYOUT_OF[self.bundle]:
            # a blob opens under its seed, and a slim one under its layout
            assert isinstance(answer, str) and "authentication" in answer
        else:
            assert answer == _oracle(TABLES[self.bundle], records)

    @rule(name=st.sampled_from(NAMES), full=st.booleans())
    def decide(self, name, full):
        self._assert_answers(name, full)

    @rule()
    def redeploy_the_same_bundle(self):
        self.unit.deploy(BUNDLES[self.bundle])
        assert self.unit.has_seed

    def _redeploy(self, bundle):
        """Deploy a bundle under the same seed, which a bundle of another
        measurement drops and so must be installed again."""
        self.bundle = bundle
        self.unit.deploy(BUNDLES[bundle])
        self.unit.install_seed(self.seed)
        self.session = _session(self.unit)

    @rule()
    def redeploy_another_layout(self):
        self._redeploy("another-layout")

    @rule()
    def redeploy_other_outputs(self):
        """The next decision answers the new table, never a body kept from
        the old one over the same layout."""
        self._redeploy("other-outputs")

    @rule()
    def redeploy_the_standard_bundle(self):
        self._redeploy("standard")

    @rule()
    def reopen_the_store(self):
        self._open_unit()

    @rule()
    def install_a_fresh_seed(self):
        self.seed = generate_seed()
        self.unit.install_seed(self.seed)
        self.session = _session(self.unit)

    def _intact_forms(self):
        return [(name, full) for name in sorted(self.committed) for full in (False, True)
                if (name, full) not in self.tampered]

    @precondition(lambda self: self._intact_forms())
    @rule(data=st.data())
    def flip_a_byte_of_a_committed_blob(self, data):
        """The operator alters a blob file the unit has just read: the next
        read answers the content check, not the version it read before."""
        name, full = data.draw(st.sampled_from(self._intact_forms()))
        self._assert_answers(name, full)
        address = json.loads(self.unit._storage.fetch(name))["full" if full else "slim"]
        path = Path(self.directory) / "blobs" / address
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        self.tampered.add((name, full))
        self._assert_answers(name, full)

    @invariant()
    def both_forms_answer_the_committed_version(self):
        for name in NAMES:
            self._assert_answers(name, full=False)
            self._assert_answers(name, full=True)

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
