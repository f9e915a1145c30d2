"""The batch evaluator must agree with the per-record reference semantics.

`decide_records` runs a table lowered to Python functions over a whole
encoded batch; `decide_record` checks one record's conditions one at a time
with `eval_condition`. On every table and record the two must give the same
rule index (STATUS_NO_MATCH for no match), or raise the same `ConfidecError`
with the same text; a batch must give the per-record hits in order, or
raise the error of its first failing record.

The aggregation filters `compile_table` lowers over the same rows must give
what `evaluate_aggregate` gives over the `Record`s: the same value, or the
same `AggregationError` naming the same first record.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from confidec.bench.vax import VaxSpec, generate_vax
from confidec.dmn.aggregate import evaluate_aggregate
from confidec.dmn.engine import decide_all, decide_record, decide_records, encode_records
from confidec.dmn.model import ColumnRelation, DecisionResult, Record, Relational, Wildcard
from confidec.dmn.program import (
    MAX_OPS_PER_FUNCTION,
    STATUS_NO_MATCH,
    AbortRecord,
    compile_table,
)
from confidec.dmn.tables import parse_aggregation_spec, parse_decision_table
from confidec.errors import (
    AggregationError,
    ConfidecError,
    MissingFieldError,
    TypeMismatchError,
)
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
    """What a call returns, or the class and text of the ConfidecError it
    raises."""
    try:
        return decide()
    except ConfidecError as exc:
        return type(exc), str(exc)


def _missing(name):
    return MissingFieldError, f"field {name!r} required by a condition is missing from a record"


def _mistyped(name):
    return TypeMismatchError, f"field {name!r} of a record has the wrong type"


def _kernel(table, records, aggregates):
    program = compile_table(table)
    return decide_records(program, encode_records(program, records), aggregates or {})


def _assert_agrees(table, records, aggregates=None):
    """Check decide_records against decide_record; returns decide_record's
    per-record outcomes so callers can see what the case covered."""
    want = [_outcome(lambda r=r: decide_record(table, r, aggregates)) for r in records]
    hits = [
        w if not isinstance(w, DecisionResult)
        else STATUS_NO_MATCH if w.rule_index is None else w.rule_index
        for w in want
    ]
    for record, expected in zip(records, hits):
        got = _outcome(lambda: _kernel(table, [record], aggregates))
        assert got == ([expected] if isinstance(expected, int) else expected), record
    first_error = next((h for h in hits if not isinstance(h, int)), None)
    assert _outcome(lambda: _kernel(table, records, aggregates)) == (first_error or hits)
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
            seen.add(outcome.outcome if isinstance(outcome, DecisionResult) else outcome[0])
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


# -- aggregation filters lowered over the rows --------------------------------------

# cells of every value type, so atoms also read fields of another type
_FILTER_CELLS = ("-", "<5", ">=3", "4", "[2..7[", "]1..6]", '"oak","fir"', '"unseen"',
                 "true", "false")


def _random_aggregations(rng, table):
    """Up to three aggregations over the table's fields and one no record has."""
    fields = [c.name for c in table.input_columns] + ["absent"]
    return tuple(
        parse_aggregation_spec({
            "name": f"a{k}",
            "filter": [
                {"field": rng.choice(fields), "cell": rng.choice(_FILTER_CELLS)}
                for _ in range(rng.randint(0, 3))
            ],
            "targetField": rng.choice(fields),
            "reducer": rng.choice(["sum", "mean", "max", "min"]),
        })
        for k in range(rng.randint(1, 3))
    )


def _aggregate_outcome(evaluate):
    """The value, or the AggregationError's text, which names the record."""
    try:
        return evaluate()
    except AggregationError as exc:
        return f"AggregationError: {exc}"


def _assert_aggregates_agree(table, records, specs):
    """Check each lowered aggregation against evaluate_aggregate over the
    records; returns the outcomes."""
    program = compile_table(table, specs)
    batch = encode_records(program, records)
    outcomes = []
    for spec, lowered in zip(specs, program.aggregations):
        want = _aggregate_outcome(lambda: evaluate_aggregate(spec, records))
        got = _aggregate_outcome(lambda: evaluate_aggregate(lowered, batch))
        assert got == want and type(got) is type(want), (spec, records)
        outcomes.append(want)
    return outcomes


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_lowered_aggregations_agree_with_evaluate_aggregate(rng):
    table, records = _random_case(rng)
    _assert_aggregates_agree(table, records, _random_aggregations(rng, table))


def test_random_aggregations_reach_every_outcome():
    """The generator behind the property test makes every kind of case."""
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        table, records = _random_case(rng)
        for outcome in _assert_aggregates_agree(table, records, _random_aggregations(rng, table)):
            if isinstance(outcome, float):
                seen.add("value")
            else:
                seen.add(next(kind for kind in ("lacks", "not numeric", "empty selection")
                              if kind in outcome))
    assert seen == {"value", "lacks", "not numeric", "empty selection"}


def test_bundled_aggregations_agree_bit_for_bit():
    table = load_table("PatientPrioritizationWithAggr")
    specs = tuple(load_patient_aggregations())
    rng = random.Random(11)
    records = generate_vax(VaxSpec("Patient", 400, seed=3))
    outcomes = _assert_aggregates_agree(table, records, specs)
    assert all(isinstance(o, float) for o in outcomes)
    damaged = [
        o for _ in range(5) for o in _assert_aggregates_agree(table, _damage(rng, records), specs)
    ]
    # both filters test Age >= 18, so a record whose target is damaged is
    # filtered out instead of failing
    assert all(isinstance(o, float) for o in damaged)
    assert damaged[:2] != outcomes


# -- tables that span several generated functions ------------------------------


def _table(kinds, rows):
    """A table of input columns c0, c1, ... of the given value types, with one
    rule per row of cells; rule j outputs "r<j>"."""
    columns = [{"name": f"c{i}", "kind": "input", "type": kind} for i, kind in enumerate(kinds)]
    columns.append({"name": "o", "kind": "output", "type": "string"})
    rules = [{"conditions": cells, "outputs": [f"r{j}"]} for j, cells in enumerate(rows)]
    return parse_decision_table({"name": "W", "columns": columns, "rules": rules})


def _ops_before(table, rule_index):
    """How many ops the rules before rule_index have; more than
    MAX_OPS_PER_FUNCTION puts the rule past the first generated function."""
    return sum(
        not isinstance(cond, Wildcard)
        for rule in table.rules[:rule_index]
        for cond in rule.conditions
    )


def _records(*field_maps):
    return [Record(id=f"w-{i}", fields=fields) for i, fields in enumerate(field_maps)]


def test_a_table_without_condition_columns_decides_every_record():
    """Its functions and a filter without a test read no slot at all, and
    still run once per record."""
    table = _table([], [[]])
    program = compile_table(table)
    assert program.reads == () and program.encode([]) == []
    records = _records({"c0": 1}, {}, {"c0": "x"})
    want = _assert_agrees(table, records)
    assert [w.rule_index for w in want] == [0, 0, 0]
    assert _kernel(table, records, None) == [r.rule_index for r in decide_all(table, records)]
    specs = tuple(
        parse_aggregation_spec({"name": f"a{k}", "filter": filter_, "targetField": "c0",
                                "reducer": "sum"})
        for k, filter_ in enumerate(([], [{"field": "c0", "cell": "-"}]))
    )
    assert [agg.reads for agg in compile_table(table, specs).aggregations] == [(), ()]
    good = _records({"c0": 1}, {"c0": 2.5}, {"c0": 3})
    assert _assert_aggregates_agree(table, good, specs) == [6.5, 6.5]
    assert _assert_aggregates_agree(table, records, specs) == [
        f"AggregationError: aggregation {spec.name!r}: a selected record lacks "
        "target field 'c0'" for spec in specs
    ]


@pytest.mark.parametrize("kinds", [[], ["number"]], ids=["no-columns", "one-column"])
def test_a_table_without_rules_matches_no_record(kinds):
    table = _table(kinds, [])
    assert compile_table(table).functions == ()
    records = _records({"c0": 1}, {}, {"c0": "x"})
    want = _assert_agrees(table, records)
    assert [w.outcome for w in want] == ["noMatch"] * 3
    assert [r.rule_index for r in decide_all(table, records)] == [None] * 3
    assert _kernel(table, records, None) == [STATUS_NO_MATCH] * 3


def test_one_slot_table_hits_and_misses_in_every_function():
    table = _table(["number"], [[str(i)] for i in range(300)])
    # three groups: the first inline in the row loop, two functions
    assert len(compile_table(table).functions) == 2
    records = _records(
        *({"c0": v} for v in (0, 127, 128, 200, 255, 256, 299, 300, -1)),
        {}, {"c0": "wrong type"},
    )
    want = _assert_agrees(table, records)
    hits = [w.rule_index for w in want[:7]]
    assert hits == [0, 127, 128, 200, 255, 256, 299]
    assert _ops_before(table, 200) > MAX_OPS_PER_FUNCTION
    assert _ops_before(table, 299) > 2 * MAX_OPS_PER_FUNCTION
    assert [w.outcome for w in want[7:9]] == ["noMatch", "noMatch"]
    assert want[9:] == [_missing("c0"), _mistyped("c0")]


def test_a_field_first_read_in_a_later_function_aborts_there():
    # rules 0..199 read only c0; rules 200.. read c1, and c2 and c3 once c1 passes
    rows = [[str(i), "-", "-", "-"] for i in range(200)]
    rows += [["-", f"<={j}", '"oak","fir"', "true"] for j in range(60)]
    table = _table(["number", "number", "string", "boolean"], rows)
    assert len(compile_table(table).functions) == 2
    assert _ops_before(table, 200) > MAX_OPS_PER_FUNCTION
    assert _ops_before(table, 230) > 2 * MAX_OPS_PER_FUNCTION
    full = {"c0": 999, "c1": 30, "c2": "fir", "c3": True}
    records = _records(
        full,
        dict(full, c1=70),
        dict(full, c2="unseen"),
        {k: v for k, v in full.items() if k != "c1"},
        dict(full, c1="wrong type"),
        {k: v for k, v in full.items() if k != "c2"},
        dict(full, c3=1),
        {k: v for k, v in full.items() if k != "c3"},
        dict(full, c0=150, c1="wrong type"),
    )
    want = _assert_agrees(table, records)
    assert want[0].rule_index == 230
    assert [w.outcome for w in want[1:3]] == ["noMatch", "noMatch"]
    assert want[3:8] == [
        _missing("c1"), _mistyped("c1"), _missing("c2"), _mistyped("c3"), _missing("c3"),
    ]
    assert want[8].rule_index == 150


def test_a_column_relation_in_a_later_function_checks_its_own_slot_first():
    # rules 0..199 read only c2; rules 200.. compare c0 with c1
    rows = [["-", "-", str(i)] for i in range(200)]
    rows += [[f"<= c1 * {j}", "-", "-"] for j in range(1, 4)]
    table = _table(["number", "number", "number"], rows)
    assert _ops_before(table, 200) > MAX_OPS_PER_FUNCTION
    records = _records(
        {"c0": 999, "c1": 1000, "c2": 999}, {"c0": 999, "c1": 400, "c2": 999},
        {"c0": 999, "c1": 100, "c2": 999},
        {"c1": 500, "c2": 999}, {"c0": 999, "c2": 999}, {"c2": 999},
        {"c0": "wrong type", "c2": 999}, {"c0": 999, "c1": "wrong type", "c2": 999},
        {"c0": "wrong type", "c2": 999, "c1": True},
    )
    want = _assert_agrees(table, records)
    assert [w.rule_index for w in want[:2]] == [200, 202]
    assert want[2].outcome == "noMatch"
    assert want[3:] == [
        _missing("c0"), _missing("c1"), _missing("c0"),
        _mistyped("c0"), _mistyped("c1"), _mistyped("c0"),
    ]


def test_rules_with_more_ops_than_the_cap():
    n = MAX_OPS_PER_FUNCTION + 22
    kinds = ["number"] * n
    table = _table(kinds, [
        [">5"] * n,
        [">=0"] * (n - 1) + ["<3"],
        ["1"] + ["-"] * (n - 1),
    ])
    # each rule is a group of its own; the later two are functions
    assert len(compile_table(table).functions) == 2

    def fields(value, **overrides):
        out = {f"c{i}": value for i in range(n)}
        out.update(overrides)
        return out

    last = f"c{n - 1}"
    records = _records(
        fields(9), fields(4, **{last: 2}), fields(1, **{last: 5}), fields(4, **{last: 5}),
        {k: v for k, v in fields(4).items() if k != last},
        fields(9, c140="wrong type"),
        fields(4, **{last: True}),
    )
    want = _assert_agrees(table, records)
    assert [w.rule_index for w in want[:3]] == [0, 1, 2]
    assert want[3].outcome == "noMatch"
    assert want[4:] == [_missing(last), _mistyped("c140"), _mistyped(last)]


def test_an_all_wildcard_rule_ends_the_table():
    rows = [[str(i), '"oak"'] for i in range(200)]
    rows += [["-", "-"]]
    rows += [[str(i), "-"] for i in range(200, 250)]
    table = _table(["number", "string"], rows)
    assert _ops_before(table, 200) > 3 * MAX_OPS_PER_FUNCTION
    # rules 0..199 fill four groups, the last of which ends with rule 200;
    # the row loop tests the first inline and calls the other three
    assert len(compile_table(table).functions) == 3
    records = _records(
        {"c0": 5, "c1": "oak"}, {"c0": 5, "c1": "pine"}, {"c0": 230, "c1": "oak"},
        {"c0": 999}, {"c0": 3}, {"c1": "oak"},
    )
    want = _assert_agrees(table, records)
    assert [w.rule_index for w in want[:4]] == [5, 200, 200, 200]
    assert want[4:] == [_missing("c1"), _missing("c0")]


def _long_random_case(rng):
    table = _random_table(rng, rng.randint(1, 5), rng.randint(30, 300))
    return table, _random_records(rng, table, rng.randint(0, 30))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_batch_agrees_with_decide_record_on_long_random_tables(rng):
    _assert_agrees(*_long_random_case(rng))


def test_long_random_cases_reach_later_functions():
    """The long random tables span several functions, and their records are
    decided, or abort, past the first one."""
    rng = random.Random(20261018)
    later = set()
    for _ in range(40):
        table, records = _long_random_case(rng)
        for outcome in _assert_agrees(table, records):
            if isinstance(outcome, DecisionResult) and outcome.rule_index is not None:
                if _ops_before(table, outcome.rule_index) > MAX_OPS_PER_FUNCTION:
                    later.add("decided")
            elif isinstance(outcome, DecisionResult):
                if _ops_before(table, len(table.rules)) > MAX_OPS_PER_FUNCTION:
                    later.add("noMatch")
    assert later == {"decided", "noMatch"}


def test_non_finite_numbers_never_reach_the_generated_code():
    table = _table(["number"], [["<1"]])
    rule = table.rules[0]
    bad = dataclasses.replace(
        table, rules=(dataclasses.replace(rule, conditions=(Relational("<", math.inf),)),)
    )
    with pytest.raises(ValueError, match="non-finite"):
        compile_table(bad)


# -- nothing from a table reaches the generated code -------------------------------

_HOSTILE = (
    '"', "'", "\\", "\n", "\r\n", "#", "{", "}", "'''", '"""', "\x00",
    "__import__('os')", "__import__('os').system('exit 1')", "); _abort(0) #",
)

_hostile_text = st.lists(
    st.one_of(st.sampled_from(_HOSTILE), st.text(min_size=1, max_size=4)), min_size=1, max_size=4,
).map("".join)

# text-set members are written between double quotes in a cell
_hostile_member = _hostile_text.map(lambda s: s.replace('"', "")).filter(bool)


@st.composite
def _hostile_cases(draw):
    n_cols = draw(st.integers(min_value=1, max_value=4))
    kinds = [draw(st.sampled_from(["number", "string", "boolean"])) for _ in range(n_cols)]
    names = draw(st.lists(_hostile_text, min_size=n_cols, max_size=n_cols, unique=True))
    # a number column with a plain name, so cells can refer to it
    names = [n for n in names if n != "ref"]
    kinds = kinds[:len(names)] + ["number"]
    names.append("ref")
    members = draw(st.lists(_hostile_member, min_size=1, max_size=5, unique=True))
    columns = [{"name": n, "kind": "input", "type": k} for n, k in zip(names, kinds)]
    columns.append({"name": draw(_hostile_text.filter(lambda s: s not in names)),
                    "kind": "output", "type": "string"})

    def cell(kind):
        if kind == "number":
            return draw(st.sampled_from(["-", "<5", "[2..7[", "3", "<= ref * 2", "> ref"]))
        if kind == "string":
            chosen = draw(st.lists(st.sampled_from(members), min_size=1, max_size=3))
            return draw(st.sampled_from(["-", ",".join(f'"{m}"' for m in chosen)]))
        return draw(st.sampled_from(["-", "true", "false"]))

    rules = [
        {"conditions": [cell(k) for k in kinds], "outputs": [draw(_hostile_text)]}
        for _ in range(draw(st.integers(min_value=1, max_value=12)))
    ]
    table = parse_decision_table(
        {"name": draw(_hostile_text), "columns": columns, "rules": rules}
    )

    def value(kind):
        if kind == "number":
            return draw(st.integers(min_value=0, max_value=9))
        if kind == "string":
            return draw(st.one_of(st.sampled_from(members), _hostile_text))
        return draw(st.booleans())

    records = [
        Record(
            id=draw(_hostile_text),
            fields={n: value(k) for n, k in zip(names, kinds) if draw(st.integers(0, 19))},
        )
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]

    def atom():
        cell = draw(st.sampled_from(["-", "<5", "3", "true", "strings"]))
        if cell == "strings":
            chosen = draw(st.lists(st.sampled_from(members), min_size=1, max_size=3))
            cell = ",".join(f'"{m}"' for m in chosen)
        return {"field": draw(st.one_of(st.sampled_from(names), _hostile_text)), "cell": cell}

    aggregations = tuple(
        parse_aggregation_spec({
            "name": draw(_hostile_text),
            "filter": [atom() for _ in range(draw(st.integers(min_value=0, max_value=3)))],
            "targetField": draw(st.one_of(st.sampled_from(names), _hostile_text)),
            "reducer": draw(st.sampled_from(["sum", "mean", "max", "min"])),
        })
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    )
    return table, records, aggregations


def _is_allowed_constant(const):
    if const is None or type(const) in (int, float):
        return True
    return type(const) is frozenset and all(type(c) is float for c in const)


@settings(max_examples=200, deadline=None)
@given(_hostile_cases())
def test_hostile_table_strings_never_enter_the_generated_code(case):
    table, records, aggregations = case
    _assert_agrees(table, records)
    _assert_aggregates_agree(table, records, aggregations)
    program = compile_table(table, aggregations)
    generated = [(f, "<decision table>") for f in program.functions]
    generated += [(a.select, "<aggregation filter>") for a in program.aggregations]
    for function, filename in generated:
        code = function.__code__
        assert set(code.co_names) <= {"_abort"}
        assert all(_is_allowed_constant(c) for c in code.co_consts), code.co_consts
        assert code.co_filename == filename
        assert set(function.__globals__) == {"__builtins__", "_abort"}
    # the row loop tests the first group inline and names only `_abort` and
    # the later groups' functions
    later = {f"_f{k}" for k in range(1, len(program.functions) + 1)}
    loop = program.run.__code__
    assert loop.co_filename == "<row loop>"
    assert set(loop.co_names) <= {"_abort"} | later, loop.co_names
    assert all(_is_allowed_constant(c) for c in loop.co_consts), loop.co_consts
    assert set(program.run.__globals__) == {"__builtins__", "_abort"} | later


# -- the float rows: exact floats, trapping cells ----------------------------------

_B = 2 ** 53
# ints at and around the edge of exact floats, and far beyond it
_BIG_INTS = (_B - 2, _B - 1, _B, _B + 1, _B + 2, _B + 3, -_B + 1, -_B, -_B - 1, -_B - 2,
             2 ** 64 + 1, -(2 ** 64) - 1, 3 ** 40)
# cells whose bounds lie near 2**53; each is a float once parsed
_BIG_CELLS = (f"<{_B}", f"<={_B}", f">{_B}", f">={_B}", f"{_B}", f"{_B + 2}", f"-{_B}",
              f"{-_B - 2}", f"<{-_B}", f">=-{_B}", f"[{_B - 2}..{_B}]", f"]{_B}..{_B + 4}]",
              f"[-{_B}..-{_B - 2}[", "<= c1 * 1", "> c1 * 1", ">= c1 * 0.5", "< c1 * 2")


def _one_cell_table(cell, kinds=("number", "number")):
    """One rule testing c0 with the cell; c1 is there for column relations."""
    return _table(list(kinds), [[cell] + ["-"] * (len(kinds) - 1)])


def _spec(name, cell, target, reducer, field="c0"):
    return parse_aggregation_spec({
        "name": name, "filter": [{"field": field, "cell": cell}],
        "targetField": target, "reducer": reducer,
    })


def _same_float(a, b):
    """Equal, and of the same sign when zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_ints_near_two_to_the_53_decide_like_decide_record():
    records = _records(*(
        {"c0": x, "c1": y} for x in _BIG_INTS for y in (_B, _B + 1, -_B - 1, 7)
    ))
    seen = set()
    for cell in _BIG_CELLS:
        for want in _assert_agrees(_one_cell_table(cell), records):
            seen.add(want.outcome)
    assert seen == {"decided", "noMatch"}


def test_ints_near_two_to_the_53_filter_and_aggregate_like_the_records():
    records = _records(*({"c0": x, "c1": x} for x in _BIG_INTS))
    table = _one_cell_table("-")
    for cell in _BIG_CELLS[:13]:
        specs = tuple(
            _spec(f"a{k}", cell, target, reducer)
            for k, (target, reducer) in enumerate(
                (t, r) for t in ("c0", "c1") for r in ("sum", "mean", "max", "min")
            )
        )
        _assert_aggregates_agree(table, records, specs)
    # a target of exact ints sums as the reference's floats do
    spec = _spec("s", "-", "c0", "sum")
    program = compile_table(table, (spec,))
    batch = encode_records(program, records)
    assert evaluate_aggregate(program.aggregations[0], batch) == evaluate_aggregate(spec, records)


def test_an_int_beyond_two_to_the_53_equals_a_bound_as_its_float_does():
    table = _one_cell_table(f"{_B}")
    want = _assert_agrees(table, _records({"c0": _B + 1}, {"c0": _B - 1}, {"c0": -_B - 1}))
    assert [w.outcome for w in want] == ["decided", "noMatch", "noMatch"]


def test_negative_zero_decides_and_aggregates_like_the_records():
    records = _records(*(
        {"c0": x, "c1": y} for x in (-0.0, 0.0, 0, -1, 1) for y in (-0.0, 0.0, 0)
    ))
    for cell in ("0", "-0", "<0", "<=0", ">0", ">=-0", "[0..1]", "]0..1]", "[-1..0[",
                 "<= c1 * 1", "< c1 * -1", ">= c1 * 2"):
        _assert_agrees(_one_cell_table(cell), records)
    table = _one_cell_table("-")
    for order in (records, records[::-1]):
        specs = tuple(
            _spec(f"a{k}", cell, "c0", reducer)
            for k, (cell, reducer) in enumerate(
                (c, r) for c in ("<=0", "[-0..0]") for r in ("sum", "mean", "max", "min")
            )
        )
        program = compile_table(table, specs)
        batch = encode_records(program, order)
        for spec, lowered in zip(specs, program.aggregations):
            assert _same_float(
                evaluate_aggregate(lowered, batch), evaluate_aggregate(spec, order)
            ), spec


def test_booleans_in_number_columns_are_mistyped():
    records = _records(
        {"c0": True, "c1": 1}, {"c0": False, "c1": 1}, {"c0": 1, "c1": True},
        {"c0": 0, "c1": False},
    )
    for cell in ("1", "0", "<5", ">=0", "[0..1]", "<= c1 * 1"):
        want = _assert_agrees(_one_cell_table(cell), records)
        assert want[:2] == [_mistyped("c0")] * 2
    assert _assert_agrees(_one_cell_table("<= c1 * 1"), records)[2:] == [_mistyped("c1")] * 2
    table = _one_cell_table("-")
    for cell in ("1", "<5", "[0..1]"):
        for target in ("c0", "c1"):
            specs = (_spec("a", cell, target, "sum"), _spec("b", cell, target, "max"))
            _assert_aggregates_agree(table, records, specs)


@pytest.mark.parametrize("kind, cell, good, wrong", [
    ("number", "<5", 3, "wrong type"),
    ("string", '"oak","fir"', "oak", 3),
    ("boolean", "true", True, 1),
])
def test_a_slot_a_filter_shares_with_the_table_skips_in_the_filter_and_aborts_the_table(
    kind, cell, good, wrong
):
    table = _table([kind, "number"], [[cell, "-"]])
    specs = (_spec("a", cell, "c1", "sum"), _spec("b", cell, "c1", "max"))
    program = compile_table(table, specs)
    # the filter reads the table's slot
    assert len(program.encode([[good], [1]])) == 2
    records = _records({"c0": good, "c1": 2}, {"c1": 5}, {"c0": wrong, "c1": 7})
    outcomes = _assert_aggregates_agree(table, records, specs)
    assert outcomes == [2.0, 2.0]
    want = _assert_agrees(table, records)
    assert want[1:] == [_missing("c0"), _mistyped("c0")]


def _encode_rows(program, rows):
    """The program's encoder over the columns of these value rows, read back
    as one list of cells per row."""
    return [list(row) for row in zip(*program.encode([list(c) for c in zip(*rows)]))]


def test_rows_hold_exact_floats_and_trapping_cells():
    table = _table(["number", "string", "boolean"], [["<5", '"oak"', "true"]])
    specs = (_spec("a", "true", "c0", "sum", field="c2"),
             _spec("b", '"oak"', "c0", "sum", field="x"))
    program = compile_table(table, specs)
    layout = program.layout
    assert layout == ("c0", "c1", "c2", "x")
    rows = _encode_rows(program, [
        [7, "oak", True, "oak"], [_B, "elm", False, "x"], [-_B, None, None, None],
        [_B + 1, 3, 1, 2], [2.5, "oak", True, None], [-0.0, "oak", True, "oak"],
    ])
    assert [type(c) for c in rows[0]] == [float, float, float, float]
    assert rows[0] == [7.0, 0.0, 1.0, 0.0]
    assert rows[1][0] == float(_B) and type(rows[1][0]) is float
    assert rows[2][0] == float(-_B) and type(rows[2][0]) is float
    assert rows[3][0] == _B + 1 and type(rows[3][0]) is int
    assert rows[4][0] == 2.5 and _same_float(rows[5][0], -0.0)
    # missing or mistyped cells: the table's trap, the filter-only slot's plain NaN
    for row in (rows[2], rows[3]):
        for j in (1, 2):
            cell = row[j]
            assert cell != cell and isinstance(cell, float)
            with pytest.raises(AbortRecord) as raised:
                cell < 1.0  # noqa: B015
            assert raised.value.args == (j,)
        assert type(row[3]) is float and row[3] != row[3]
        assert not row[3] < 1.0


def test_table_tests_carry_no_abort_clause_of_their_own():
    table = _table(["number", "string", "boolean", "number"],
                   [["<5", '"oak"', "true", "[1..2]"], ["3", "-", "false", "-"]])
    program = compile_table(table)
    assert program.functions == ()  # one group, tested in the row loop
    assert "_abort" not in program.run.__code__.co_names
    relation = compile_table(_table(["number", "number"], [["<= c1 * 2", "-"]]))
    assert relation.functions == ()
    assert relation.run.__code__.co_names == ("_abort",)
