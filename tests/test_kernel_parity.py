"""The batch evaluator must agree with the per-record reference semantics.

`decide_records` compiles a table to an opcode program and runs it over the
whole batch; `decide_record` checks one record's conditions one at a time
with `eval_condition`. On every table and record the two must give the same
`DecisionResult`, or raise the same `ConfidecError` subclass; a batch must
give the per-record results in order, or raise the class of its first
failing record.
"""

import random

from hypothesis import given, settings, strategies as st

from confidec.bench.vax import VaxSpec, generate_vax
from confidec.dmn.aggregate import evaluate_aggregate
from confidec.dmn.engine import decide_record, decide_records
from confidec.dmn.model import ColumnRelation, DecisionResult, Record
from confidec.dmn.tables import parse_decision_table
from confidec.errors import ConfidecError, MissingFieldError, TypeMismatchError
from confidec.fixtures import load_patient_aggregations, load_table

_WORDS = ("oak", "pine", "fir", "elm", "yew")

# Values of the wrong type for a column of each value type.
_WRONG = {"number": ("wrong type", True), "string": (3, False), "boolean": ("yes", 1)}


def _random_table(rng, n_cols, n_rules):
    kinds = [rng.choice(["number", "string", "boolean", "number"]) for _ in range(n_cols)]
    columns = [{"name": f"c{i}", "kind": "input", "type": kinds[i]} for i in range(n_cols)]
    numeric = [f"c{i}" for i, k in enumerate(kinds) if k == "number"]
    columns.append({"name": "o", "kind": "output", "type": "string"})

    def cell(i):
        kind = kinds[i]
        if kind == "number":
            pick = rng.randrange(8)
            if pick == 0:
                return "-"
            if pick == 1:
                return f"<{rng.randint(0, 9)}"
            if pick == 2:
                return f">={rng.randint(0, 9)}"
            if pick == 3:
                return f"{rng.randint(0, 9)}"
            if pick == 4:
                lo = rng.randint(0, 5)
                return f"[{lo}..{lo + rng.randint(1, 4)}{rng.choice('[]')}"
            if pick == 5 and numeric:
                return f"<= {rng.choice(numeric)} * {rng.choice([0.5, 1, 2])}"
            if pick == 6:
                lo = rng.randint(0, 5)
                return f"]{lo}..{lo + rng.randint(1, 4)}{rng.choice('[]')}"
            return f">{rng.randint(0, 9)}"
        if kind == "string":
            if rng.random() < 0.3:
                return "-"
            members = rng.sample(_WORDS, rng.randint(1, 3))
            return ",".join(f'"{w}"' for w in members)
        return rng.choice(["-", "true", "false"])

    rules = [
        {"conditions": [cell(i) for i in range(n_cols)], "outputs": [f"r{j}"]}
        for j in range(n_rules)
    ]
    return parse_decision_table({"name": "P", "columns": columns, "rules": rules})


def _random_records(rng, table, count):
    records = []
    for i in range(count):
        fields = {}
        for col in table.input_columns:
            if rng.random() < 0.05:
                continue  # sometimes omit a field entirely
            if rng.random() < 0.05:
                fields[col.name] = rng.choice(_WRONG[col.value_type])
            elif col.value_type == "number":
                fields[col.name] = rng.randint(0, 9)
            elif col.value_type == "string":
                fields[col.name] = rng.choice(_WORDS + ("unseen",))
            else:
                fields[col.name] = rng.random() < 0.5
        records.append(Record(id=f"p-{i}", fields=fields))
    return records


def _random_case(rng):
    table = _random_table(rng, rng.randint(1, 5), rng.randint(1, 8))
    return table, _random_records(rng, table, rng.randint(0, 30))


def _outcome(decide):
    """What a call returns, or the class of the ConfidecError it raises."""
    try:
        return decide()
    except ConfidecError as exc:
        return type(exc)


def _assert_agrees(table, records, aggregates=None):
    """Check decide_records against decide_record; returns the per-record
    outcomes so callers can see what the case covered."""
    want = [_outcome(lambda r=r: decide_record(table, r, aggregates)) for r in records]
    for record, expected in zip(records, want):
        got = _outcome(lambda: decide_records(table, [record], aggregates))
        if isinstance(expected, DecisionResult):
            assert got == [expected], record
        else:
            assert got is expected, record
    first_error = next((w for w in want if not isinstance(w, DecisionResult)), None)
    assert _outcome(lambda: decide_records(table, records, aggregates)) == (first_error or want)
    return want


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_batch_agrees_with_decide_record_on_random_tables(rng):
    _assert_agrees(*_random_case(rng))


def test_random_cases_reach_every_outcome():
    """The generator behind the property test makes every kind of case."""
    rng = random.Random(20260814)
    seen = set()
    relations = 0
    for _ in range(200):
        table, records = _random_case(rng)
        relations += any(
            isinstance(cond, ColumnRelation) for rule in table.rules for cond in rule.conditions
        )
        for outcome in _assert_agrees(table, records):
            seen.add(outcome.outcome if isinstance(outcome, DecisionResult) else outcome)
    assert seen == {"decided", "noMatch", MissingFieldError, TypeMismatchError}
    assert relations > 0


def _damage(rng, records):
    """Drop or mistype one field in about one record in ten."""
    damaged = []
    for record in records:
        fields = dict(record.fields)
        if fields and rng.random() < 0.1:
            name = rng.choice(sorted(fields))
            if rng.random() < 0.5:
                del fields[name]
            else:
                fields[name] = 3 if isinstance(fields[name], str) else "wrong type"
        damaged.append(Record(id=record.id, fields=fields))
    return damaged


def test_batch_agrees_with_decide_record_on_bundled_data():
    patient_specs = load_patient_aggregations()
    rng = random.Random(7)
    for role, func in [
        ("VaccinationCenter", "Restock"),
        ("Carrier", "ChooseCarrier"),
        ("Patient", "PatientPrioritizationWithAggr"),
    ]:
        table = load_table(func)
        records = generate_vax(VaxSpec(role, 220, seed=1))
        aggregates = None
        if role == "Patient":
            aggregates = {s.name: evaluate_aggregate(s, records) for s in patient_specs}
        outcomes = _assert_agrees(table, records, aggregates)
        assert all(isinstance(o, DecisionResult) for o in outcomes), func
        assert any(o.outcome == "decided" for o in outcomes), func
        damaged = [
            o for _ in range(5) for o in _assert_agrees(table, _damage(rng, records), aggregates)
        ]
        assert not all(isinstance(o, DecisionResult) for o in damaged), func
