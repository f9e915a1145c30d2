"""Decision services: binding validation, the handler skeleton, audit output."""

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from confidec.bench.vax import VaxSpec, decision_batches, expected_outcome, generate_vax
from confidec.crypto.keys import SigningKeyPair
from confidec.dmn.tables import record_to_obj
from confidec.dmn.model import ColumnRelation, FilterAtom
from confidec.dmn.program import compile_table
from confidec.dmn.tables import parse_aggregation_spec, parse_decision_table
from confidec.errors import DecisionRejected, PolicySyntaxError, ServiceBuildError
from confidec.fixtures import load_patient_aggregations, load_policy_text, load_table
from confidec.gateway.client import ClientSession, expand_results
from confidec.policy.alfa import parse_policy_descriptor
from confidec.service.builder import (
    REJECT_CERTIFICATE,
    REJECT_POLICY,
    OpenedRecords,
    build_desobj,
    compact_results,
    decision_body,
    emit_audit_script,
    handle_decision,
)
from confidec.util import canonical_json

HUB_ATTRS = {"Role": "MedicalHub", "Country": "Italy"}


def _policy_for(func_name):
    specs = parse_policy_descriptor(load_policy_text())
    return next(s for s in specs if s.func_name == func_name)


def _patient_service():
    return build_desobj(
        _policy_for("PatientPrioritizationWithAggr"),
        load_table("PatientPrioritizationWithAggr"),
        load_patient_aggregations(),
    )


def _patient_batch():
    # one cohort, so the batch aggregates land where its rule expects them
    records = generate_vax(VaxSpec("Patient", 16))
    return decision_batches("Patient", records)["r1"]


class RecordingEnv:
    """Scripted handler environment that records the step sequence."""

    def __init__(self, records):
        self.records = records
        self.steps = []
        self.decrypted = None

    def decrypt_data(self, data_name, structure):
        self.decrypted = (data_name, structure)
        layout = _patient_service().program.layout
        return OpenedRecords(
            [r.id for r in self.records],
            [[r.fields.get(f) for r in self.records] for f in layout],
        )

    def trace(self, step):
        self.steps.append(step)


def test_build_binds_aggregations_in_policy_order():
    service = _patient_service()
    assert service.func_name == "PatientPrioritizationWithAggr"
    assert service.data_name == "Patient"
    assert [a.name for a in service.program.aggregations] == ["meanAge", "sumAge"]


def test_build_rejects_table_name_mismatch():
    with pytest.raises(ServiceBuildError, match="policy guards"):
        build_desobj(_policy_for("PatientPrioritizationWithAggr"), load_table("Restock"), [])


def test_build_rejects_non_decide_action():
    text = load_policy_text().replace('Action == "decide"', 'Action == "read"', 1)
    with pytest.raises(PolicySyntaxError, match="policy action must be decide$"):
        parse_policy_descriptor(text)


def test_build_rejects_unknown_aggregation_name():
    aggs = [a for a in load_patient_aggregations() if a.name == "meanAge"]
    with pytest.raises(ServiceBuildError, match="unknown aggregation 'sumAge'"):
        build_desobj(
            _policy_for("PatientPrioritizationWithAggr"),
            load_table("PatientPrioritizationWithAggr"),
            aggs,
        )


def test_build_rejects_duplicate_aggregation_specs():
    aggs = load_patient_aggregations()
    with pytest.raises(ServiceBuildError, match="defined twice"):
        build_desobj(
            _policy_for("PatientPrioritizationWithAggr"),
            load_table("PatientPrioritizationWithAggr"),
            aggs + aggs,
        )


def test_build_rejects_table_aggregate_columns_missing_from_policy():
    policy = dataclasses.replace(
        _policy_for("PatientPrioritizationWithAggr"), agg_names=("meanAge",)
    )
    aggs = [a for a in load_patient_aggregations() if a.name == "meanAge"]
    with pytest.raises(ServiceBuildError, match=r"missing \['sumAge'\]"):
        build_desobj(policy, load_table("PatientPrioritizationWithAggr"), aggs)


def test_build_rejects_policy_aggregations_the_table_never_reads():
    policy = dataclasses.replace(_policy_for("Restock"), agg_names=("meanStock",))
    spec = parse_aggregation_spec({
        "name": "meanStock",
        "reducer": "mean",
        "targetField": "CurrentStockLevel",
        "filter": [],
    })
    with pytest.raises(ServiceBuildError, match=r"extra \['meanStock'\]"):
        build_desobj(policy, load_table("Restock"), [spec])


def test_build_refuses_filters_it_cannot_lower():
    spec = load_patient_aggregations()[0]
    atom = FilterAtom(field="Age", condition=ColumnRelation("<", "Weight", 1.0))
    with pytest.raises(ValueError, match=f"^aggregation {spec.name!r}, atom 0: "
                                         "column references not allowed in filters$"):
        dataclasses.replace(spec, filter=(atom,))


def test_build_refuses_a_layout_without_the_fields_it_reads():
    with pytest.raises(ServiceBuildError, match=r"layout lacks fields \['Age'"):
        build_desobj(
            _policy_for("PatientPrioritizationWithAggr"),
            load_table("PatientPrioritizationWithAggr"),
            load_patient_aggregations(),
            layout=("ConsentFormSigned",),
        )


def test_handler_runs_steps_in_order():
    service = _patient_service()
    env = RecordingEnv(_patient_batch())
    handle_decision(service, HUB_ATTRS, "vax/patients", env)
    assert env.steps == [
        "ParseDecisionReq",
        "CheckCertificate",
        "CheckCallability",
        "DecryptData",
        "Aggregate meanAge",
        "Aggregate sumAge",
        "Decide",
        "Return",
    ]
    assert env.decrypted == ("vax/patients", "Patient")


def test_handler_payload_shape():
    service = _patient_service()
    batch = _patient_batch()
    payload = json.loads(handle_decision(service, HUB_ATTRS, "vax/patients", RecordingEnv(batch)))
    assert payload["funcName"] == "PatientPrioritizationWithAggr"
    assert set(payload) == {"funcName", "outputs", "ids", "k"}
    assert payload["ids"] == [r.id for r in batch]
    # each distinct output once, in first-hit order
    first_hits = list(dict.fromkeys(payload["k"]))
    assert first_hits == list(range(len(payload["outputs"])))
    expanded = expand_results(payload)
    assert set(expanded) == {"funcName", "results"}
    for entry in expanded["results"]:
        assert set(entry) == {"recordId", "outcome", "values"}
        assert entry["outcome"] == "decided"
        assert entry["values"] == [expected_outcome("Patient", entry["recordId"])]


def test_compact_results_keep_outputs_that_only_equal_in_python_apart():
    table = parse_decision_table({
        "name": "T",
        "columns": [{"name": "a", "kind": "input", "type": "number"},
                    {"name": "o", "kind": "output", "type": "number"}],
        "rules": [{"conditions": ["<1"], "outputs": [1]},
                  {"conditions": ["<2"], "outputs": [1.0]},
                  {"conditions": ["<3"], "outputs": [1]}],
    })
    body = compact_results("T", compile_table(table), ["x", "y", "z", "w", "v"], [1, 0, 2, -1, 1])
    assert body["outputs"] == [[1.0], [1]] and type(body["outputs"][0][0]) is float
    assert body["ids"] == ["x", "y", "z", "w", "v"] and body["k"] == [0, 1, 1, -1, 0]
    assert [r["values"] for r in expand_results(body)["results"]] == [[1.0], [1], [1], [], [1.0]]


# text a JSON encoder must escape, and text it must pass through as UTF-8 (a
# lone surrogate is no UTF-8, and provision refuses it)
_BODY_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028'), st.characters(codec="utf-8")),
    max_size=6,
)


@st.composite
def _decisions(draw):
    """A table of up to 14 rules over one number column, whose rules have
    outputs of every kind, some equal, and some records' hits."""
    n_rules = draw(st.integers(min_value=0, max_value=14))
    outputs = [
        [draw(_BODY_TEXT),
         draw(st.one_of(st.integers(-(2 ** 60), 2 ** 60),
                        st.floats(allow_nan=False, allow_infinity=False))),
         draw(st.booleans())]
        for _ in range(n_rules)
    ]
    table = parse_decision_table({
        "name": draw(_BODY_TEXT.filter(bool)),
        "columns": [{"name": "a", "kind": "input", "type": "number"},
                    {"name": "s", "kind": "output", "type": "string"},
                    {"name": "n", "kind": "output", "type": "number"},
                    {"name": "b", "kind": "output", "type": "boolean"}],
        "rules": [{"conditions": [f"<{r}"], "outputs": o} for r, o in enumerate(outputs)],
    })
    hits = draw(st.lists(st.integers(-1, n_rules - 1), max_size=40))
    ids = draw(st.lists(_BODY_TEXT, min_size=len(hits), max_size=len(hits)))
    return table, ids, hits


@settings(max_examples=300, deadline=None)
@given(_decisions())
def test_the_assembled_body_is_the_canonical_json_of_the_compact_results(case):
    table, ids, hits = case
    program = compile_table(table)
    want = canonical_json(compact_results(table.name, program, ids, hits))
    assert decision_body(table.name, program, canonical_json(ids), hits) == want


@pytest.mark.parametrize("hits", [[], [-1, -1, -1], list(range(12)) * 2],
                         ids=["empty", "no-match", "twelve-outputs"])
def test_the_assembled_body_at_its_edges(hits):
    table = parse_decision_table({
        "name": "T\u00e9\"\\",
        "columns": [{"name": "a", "kind": "input", "type": "number"},
                    {"name": "o", "kind": "output", "type": "string"}],
        "rules": [{"conditions": [f"<{r}"], "outputs": [f"o\u00e9{r}\n"]} for r in range(12)],
    })
    program = compile_table(table)
    ids = [f"id-\u2603-\"{i}\\" for i in range(len(hits))]
    body = decision_body(table.name, program, canonical_json(ids), hits)
    assert body == canonical_json(compact_results(table.name, program, ids, hits))
    assert len(json.loads(body)["outputs"]) == len(set(hits) - {-1})


def test_results_with_equal_outputs_share_one_values_list():
    body = {"funcName": "T", "outputs": [["a"], ["b", 1]],
            "ids": ["x", "y", "z", "w", "v"], "k": [0, 1, 0, -1, -1]}
    results = expand_results(body)["results"]
    assert results == [
        {"recordId": "x", "outcome": "decided", "values": ["a"]},
        {"recordId": "y", "outcome": "decided", "values": ["b", 1]},
        {"recordId": "z", "outcome": "decided", "values": ["a"]},
        {"recordId": "w", "outcome": "noMatch", "values": []},
        {"recordId": "v", "outcome": "noMatch", "values": []},
    ]
    assert [list(r) for r in results] == [["recordId", "outcome", "values"]] * 5
    assert results[0]["values"] is results[2]["values"]
    assert results[3]["values"] is results[4]["values"]
    assert results[0]["values"] is not results[1]["values"]
    assert len({id(r) for r in results}) == 5


@pytest.mark.parametrize("ids, k", [(["x", "y"], [0]), (["x"], [0, -1])],
                         ids=["fewer-k", "fewer-ids"])
def test_expanding_a_body_whose_lists_differ_in_length_raises(ids, k):
    body = {"funcName": "T", "outputs": [["a"]], "ids": ids, "k": k}
    with pytest.raises(ValueError):
        expand_results(body)


def test_handler_reports_aggregates_only_when_asked():
    batch = _patient_batch()
    quiet = json.loads(
        handle_decision(_patient_service(), HUB_ATTRS, "vax/patients", RecordingEnv(batch))
    )
    assert "aggregates" not in quiet


def test_invalid_certificate_message_is_exact():
    service = _patient_service()
    env = RecordingEnv(_patient_batch())
    with pytest.raises(DecisionRejected) as exc:
        handle_decision(service, None, "vax/patients", env)
    assert str(exc.value) == "Invalid certificate"
    assert env.steps == ["ParseDecisionReq", "CheckCertificate"]
    assert env.decrypted is None


def test_policy_denial_message_is_exact():
    service = _patient_service()
    env = RecordingEnv(_patient_batch())
    with pytest.raises(DecisionRejected) as exc:
        handle_decision(service, {"Role": "Patient", "Country": "Italy"}, "vax/patients", env)
    assert str(exc.value) == "Access policy not satisfied"
    assert env.steps == ["ParseDecisionReq", "CheckCertificate", "CheckCallability"]
    assert env.decrypted is None


def test_reject_messages_are_fixed_strings():
    assert REJECT_CERTIFICATE == "Invalid certificate"
    assert REJECT_POLICY == "Access policy not satisfied"


PATIENT_AUDIT_SCRIPT = """\
func PatientPrioritizationWithAggrHandler(payload) {
    (cert, func, dataName) <- DecisionLib.ParseDecisionReq(payload)
    (certVal, attr) <- DecisionLib.CheckCertificate(cert)
    if certVal == true {
        calVal <- DecisionLib.CheckCallability(Role == "MedicalHub" && Country == "Italy", attr)
        if calVal == true {
            data <- DecisionLib.DecryptData(dataName, Patient)
            aggrInputs <- []
            aggrVar <- DecisionLib.Aggregate(meanAge, data)
            aggrInputs <- Append(aggrInputs, aggrVar)
            aggrVar <- DecisionLib.Aggregate(sumAge, data)
            aggrInputs <- Append(aggrInputs, aggrVar)
            decision <- PatientPrioritizationWithAggr(data, aggrInputs)
            return decision
        } else {
            except "Access policy not satisfied"
        }
    } else {
        except "Invalid certificate"
    }
}
"""


def test_audit_script_exact_text():
    script = emit_audit_script(_policy_for("PatientPrioritizationWithAggr"))
    assert script == PATIENT_AUDIT_SCRIPT


def test_audit_script_without_aggregations():
    script = emit_audit_script(_policy_for("Restock"))
    assert "DecisionLib.DecryptData(dataName, VaccinationCenter)" in script
    assert "DecisionLib.Aggregate(" not in script
    assert 'except "Access policy not satisfied"' in script


def test_audit_script_is_deterministic():
    first = emit_audit_script(_policy_for("ChooseCarrier"))
    second = emit_audit_script(_policy_for("ChooseCarrier"))
    assert first == second


# --- the audit script against what runs ---------------------------------------


def _audit_steps(script):
    """The steps an audit script says an accepted decision runs, and per
    refusal text, the steps run before it refuses.

    `DecisionLib.X(...)` is step X, `DecisionLib.Aggregate(name, ...)` is
    `Aggregate name`, calling the function on the data is `Decide` and
    `return decision` is `Return`. An `except` refuses after the steps that
    ran before the `if` it is the else branch of.
    """
    steps, refusals, branches = [], {}, []
    for line in script.splitlines()[1:]:
        line = line.strip()
        if match := re.search(r"DecisionLib\.Aggregate\((\w+),", line):
            steps.append(f"Aggregate {match[1]}")
        elif match := re.search(r"DecisionLib\.(\w+)\(", line):
            steps.append(match[1])
        elif re.fullmatch(r"decision <- \w+\(data, aggrInputs\)", line):
            steps.append("Decide")
        elif line == "return decision":
            steps.append("Return")
        elif line.startswith("if "):
            branches.append(len(steps))
        elif match := re.fullmatch(r'except "(.*)"', line):
            refusals[match[1]] = steps[:branches[-1]]
        elif line == "}" and branches:
            branches.pop()
    return steps, refusals


@pytest.mark.parametrize("policy", parse_policy_descriptor(load_policy_text()),
                         ids=lambda policy: policy.func_name)
def test_the_audit_script_names_the_steps_a_unit_runs(
    make_unit, make_session, make_cert, authority, policy
):
    steps, refusals = _audit_steps(emit_audit_script(policy))
    unit = make_unit()
    records = [record_to_obj(r) for r in generate_vax(VaxSpec(policy.data_name, 6))]
    envelope, _ = make_session(unit).build_request(
        "provision", {"dataName": "audited", "structure": policy.data_name, "records": records}
    )
    assert unit.handle("t-prov", envelope).status == "ok"

    rogue_cert, rogue_key = make_cert(issuer=SigningKeyPair.generate())
    rogue = ClientSession(rogue_cert, rogue_key, authority.verify_key)
    rogue.attest(unit.evidence(), unit.measurement)
    sessions = {
        "accepted": make_session(unit),
        "CheckCertificate": rogue,
        "CheckCallability": make_session(unit, attrs={"Role": "Patient", "Country": "Italy"}),
    }
    payload = {"funcName": policy.func_name, "dataName": "audited"}
    for outcome, session in sessions.items():
        envelope, _ = session.build_request("decision", payload)
        response = unit.handle(f"t-{outcome}", envelope)
        if outcome == "accepted":
            assert response.status == "ok", response.error
            assert unit.last_trace == steps
        else:
            assert unit.last_trace[-1] == outcome
            assert refusals[response.error] == unit.last_trace
    assert set(refusals) == {REJECT_CERTIFICATE, REJECT_POLICY}
