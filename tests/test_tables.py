"""Table and aggregation document parsing, validation and round-trips."""

import copy
import dataclasses
import functools
import operator
import os
import pickle
import re
import subprocess
import sys
from datetime import date
from types import MappingProxyType
from typing import get_args

import pytest

from conftest import child_env
from confidec.dmn.model import (
    CONDITION_VALUE_TYPES,
    VALUE_TYPES,
    ColumnRelation,
    Condition,
    Record,
    TextSet,
    Wildcard,
    check_record_docs,
)
from confidec.dmn.program import compile_table
from confidec.dmn.tables import (
    parse_aggregation_spec,
    parse_decision_table,
    parse_record,
    record_to_obj,
    table_to_obj,
)
from confidec.errors import TableValidationError
from confidec.fixtures import (
    TABLE_FILES,
    load_patient_aggregation_docs,
    load_table,
    load_table_doc,
)


def _doc(columns, rules):
    return {"name": "T", "columns": columns, "rules": rules}


_NUM = {"name": "n", "kind": "input", "type": "number"}
_STR = {"name": "s", "kind": "input", "type": "string"}
_BOOL = {"name": "b", "kind": "input", "type": "boolean"}
_OUT = {"name": "o", "kind": "output", "type": "string"}


def test_parses_minimal_table():
    table = parse_decision_table(_doc(
        [_NUM, _OUT],
        [{"conditions": ["<10"], "outputs": ["low"]}],
    ))
    assert table.name == "T"
    assert len(table.rules) == 1
    assert [c.name for c in table.condition_columns] == ["n"]


def test_all_bundled_tables_parse():
    for name in TABLE_FILES:
        table = load_table(name)
        assert table.rules, name
        assert any(c.kind == "output" for c in table.columns), name


def test_round_trip_through_obj():
    for name in TABLE_FILES:
        doc = load_table_doc(name)
        table = load_table(name)
        assert parse_decision_table(table_to_obj(table)) == table
        assert table_to_obj(parse_decision_table(doc)) == table_to_obj(table)


def test_duplicate_column_names_rejected():
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [_NUM, dict(_NUM), _OUT],
            [{"conditions": ["-", "-"], "outputs": ["x"]}],
        ))


def test_output_column_required():
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc([_NUM], [{"conditions": ["-"], "outputs": []}]))


def test_condition_count_must_match_columns():
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [_NUM, _STR, _OUT],
            [{"conditions": ["-"], "outputs": ["x"]}],
        ))


def test_output_count_must_match_output_columns():
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [_NUM, _OUT],
            [{"conditions": ["-"], "outputs": ["x", "y"]}],
        ))


@pytest.mark.parametrize("col,cell,text", [
    (_NUM, '"word"', "only numeric conditions fit a number column"),  # text set
    (_NUM, "true", "only numeric conditions fit a number column"),    # boolean
    (_STR, "<10", "only string sets fit a string column"),            # relational
    (_STR, "true", "only string sets fit a string column"),
    (_STR, "<= n * 0.5", "only string sets fit a string column"),     # column relation
    (_BOOL, "<10", "only true/false fit a boolean column"),
    (_BOOL, '"yes"', "only true/false fit a boolean column"),
    ({"name": "d", "kind": "input", "type": "datetime"}, "<10",
     "datetime columns admit only the wildcard"),
])
def test_condition_type_admissibility(col, cell, text):
    with pytest.raises(TableValidationError, match=f"rule 0, column '[a-z]': {text}$"):
        parse_decision_table(_doc(
            [col, _OUT],
            [{"conditions": [cell], "outputs": ["x"]}],
        ))


def test_every_condition_but_the_wildcard_reads_one_value_type():
    """The one map that table validation and filter lowering both read."""
    assert set(get_args(Condition)) - set(CONDITION_VALUE_TYPES) == {Wildcard}
    assert set(CONDITION_VALUE_TYPES.values()) <= set(VALUE_TYPES)


def test_column_relation_must_reference_existing_numeric_column():
    # unknown reference
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [_NUM, _OUT],
            [{"conditions": ["<= Ghost * 0.5"], "outputs": ["x"]}],
        ))
    # reference to a string column
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [_NUM, _STR, _OUT],
            [{"conditions": ["<= s * 0.5", "-"], "outputs": ["x"]}],
        ))
    # reference to an output column
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [_NUM, {"name": "m", "kind": "output", "type": "number"}],
            [{"conditions": ["<= m * 0.5"], "outputs": [1]}],
        ))


def test_output_values_checked_against_output_type():
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [_NUM, {"name": "m", "kind": "output", "type": "number"}],
            [{"conditions": ["-"], "outputs": ["not a number"]}],
        ))


@pytest.mark.parametrize("value_type, value, problem", [
    ("string", 5, "expected a string"),
    ("boolean", "yes", "expected a boolean"),
    ("datetime", 5, "expected a datetime string"),
])
def test_each_output_type_refuses_a_value_of_another_type(value_type, value, problem):
    with pytest.raises(TableValidationError, match=f"^rule 0, output 'm': {problem}$"):
        parse_decision_table(_doc(
            [_NUM, {"name": "m", "kind": "output", "type": value_type}],
            [{"conditions": ["-"], "outputs": [value]}],
        ))


def test_unknown_column_kind_rejected():
    with pytest.raises(TableValidationError):
        parse_decision_table(_doc(
            [{"name": "n", "kind": "sideways", "type": "number"}, _OUT],
            [{"conditions": ["-"], "outputs": ["x"]}],
        ))


def test_bundled_aggregations_parse_and_round_trip():
    for doc in load_patient_aggregation_docs():
        spec = parse_aggregation_spec(doc)
        assert (spec.name, spec.target_field, spec.reducer) == (
            doc["name"], doc["targetField"], doc["reducer"],
        )
        assert len(spec.filter) == len(doc["filter"])


def test_aggregation_filters_reject_column_relations():
    with pytest.raises(TableValidationError):
        parse_aggregation_spec({
            "name": "a", "reducer": "mean", "targetField": "Age",
            "filter": [{"field": "Age", "cell": "<= Cap * 0.5"}],
        })


def test_aggregation_reducer_validated():
    with pytest.raises(TableValidationError):
        parse_aggregation_spec({
            "name": "a", "reducer": "median", "targetField": "Age", "filter": [],
        })


_AGG = {"name": "a", "reducer": "mean", "targetField": "Age",
        "filter": [{"field": "Age", "cell": ">=60"}]}
_TABLE = _doc([_NUM, _OUT], [{"conditions": ["<10"], "outputs": ["low"]}])

# per bundle document: its parser, a valid whole document, the path to the
# document within it, the prefix its refusals carry, and each key's type
_BUNDLE_DOCUMENTS = {
    "table": (parse_decision_table, _TABLE, (), "table",
              {"name": str, "columns": list, "rules": list}),
    "column": (parse_decision_table, _TABLE, ("columns", 0), "column 0",
               {"name": str, "kind": str, "type": str}),
    "rule": (parse_decision_table, _TABLE, ("rules", 0), "rule 0",
             {"conditions": list, "outputs": list}),
    "aggregation": (parse_aggregation_spec, _AGG, (), "aggregation",
                    {"name": str, "filter": list, "targetField": str, "reducer": str}),
    "atom": (parse_aggregation_spec, _AGG, ("filter", 0), "aggregation 'a', atom 0",
             {"field": str, "cell": str}),
}


_DROP = object()


def _edited(doc, path, value):
    """A deep copy of doc whose entry at path is value, or is gone and a
    SECRET key is there instead when value is _DROP."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    parent = functools.reduce(operator.getitem, parents, doc)
    if value is _DROP:
        del parent[last]
        parent["SECRET"] = "SECRET"
    else:
        parent[last] = value
    return doc


# (kind, path, a value of the right type the parser refuses, its refusal)
_REFUSED_VALUES = [
    ("column", ("columns", 0, "kind"), "SECRET", "column 0: column 'n': bad kind"),
    ("column", ("columns", 0, "type"), "SECRET", "column 0: column 'n': bad value type"),
    ("rule", ("rules", 0, "conditions", 0), "SECRET",
     "rule 0, column 'n': bad cell at offset 6: unexpected identifier"),
    ("rule", ("rules", 0, "conditions", 0), "<10 SECRET",
     "rule 0, column 'n': bad cell at offset 4: trailing characters after condition"),
    ("aggregation", ("reducer",), "SECRET", "aggregation 'a': bad reducer"),
    ("atom", ("filter", 0, "cell"), "SECRET",
     "aggregation 'a', atom 0: bad cell at offset 6: unexpected identifier"),
]


def _misshapen_documents():
    """(parser, whole document, refusal): each key of each bundle document
    absent, then holding a value of another type; then values of the right
    type that the parser refuses."""
    cases = []
    for kind, (parse, valid, path, prefix, shape) in _BUNDLE_DOCUMENTS.items():
        for key, want in shape.items():
            refusal = f"{prefix} field {key!r} must be a {want.__name__}"
            wrong = "SECRET" if want is list else ["SECRET"]
            cases += [
                pytest.param(parse, _edited(valid, (*path, key), _DROP), refusal,
                             id=f"{kind}-{key}-absent"),
                pytest.param(parse, _edited(valid, (*path, key), wrong), refusal,
                             id=f"{kind}-{key}-retyped"),
            ]
    for kind, path, value, refusal in _REFUSED_VALUES:
        parse, valid, *_ = _BUNDLE_DOCUMENTS[kind]
        cases.append(pytest.param(parse, _edited(valid, path, value), refusal,
                                  id=f"{kind}-{path[-1]}-refused-{value}"))
    return cases


@pytest.mark.parametrize("parse, doc, refusal", _misshapen_documents())
def test_a_bundle_document_of_another_shape_is_refused_without_its_values(parse, doc, refusal):
    with pytest.raises(TableValidationError) as refused:
        parse(doc)
    assert str(refused.value) == refusal
    assert "SECRET" not in str(refused.value)


@pytest.mark.parametrize("parse, doc, path, value, refusal", [
    (parse_decision_table, _TABLE, ("columns",), 5, "table field 'columns' must be a list"),
    (parse_decision_table, _TABLE, ("rules",), None, "table field 'rules' must be a list"),
    (parse_decision_table, _TABLE, ("columns", 0), 5, "column 0 field 'name' must be a str"),
    (parse_decision_table, _TABLE, ("rules", 0, "conditions"), 5,
     "rule 0 field 'conditions' must be a list"),
    (parse_decision_table, _TABLE, ("rules", 0, "outputs"), 5,
     "rule 0 field 'outputs' must be a list"),
    (parse_decision_table, _TABLE, ("rules", 0, "conditions", 0), 5,
     "rule 0, column 'n': cell must be a str"),
    (parse_decision_table, _TABLE, ("name",), "", "table name must be a non-empty string"),
    (parse_aggregation_spec, _AGG, ("filter",), 5, "aggregation field 'filter' must be a list"),
    (parse_aggregation_spec, _AGG, ("filter", 0), 5,
     "aggregation 'a', atom 0 field 'field' must be a str"),
    (parse_aggregation_spec, _AGG, ("filter", 0, "field"), 5,
     "aggregation 'a', atom 0 field 'field' must be a str"),
    (parse_aggregation_spec, _AGG, ("filter", 0, "cell"), 5,
     "aggregation 'a', atom 0 field 'cell' must be a str"),
    (parse_aggregation_spec, _AGG, ("name",), "", "aggregation name must be a non-empty string"),
    (parse_aggregation_spec, _AGG, ("targetField",), "", "aggregation 'a': bad targetField"),
], ids=["int-columns", "null-rules", "int-column", "int-conditions", "int-outputs", "int-cell",
        "empty-table-name", "int-filter", "int-atom", "int-field", "int-filter-cell",
        "empty-aggregation-name", "empty-target"])
def test_a_misshapen_bundle_document_is_refused_when_parsed(parse, doc, path, value, refusal):
    """Shapes that once escaped as TypeError, or, for a filter field of 5,
    were accepted until the table was lowered."""
    with pytest.raises(TableValidationError, match=f"^{re.escape(refusal)}$"):
        parse(_edited(doc, path, value))


def test_json_native_records_round_trip_exactly():
    rec = parse_record({
        "id": "r1",
        "fields": {
            "n": 3, "x": 2.5, "s": "word", "b": True,
            "d": "2026-01-15", "ts": "2026-01-15T10:30:00",
        },
    })
    assert rec.fields["d"] == "2026-01-15"  # wire values stay JSON-native
    assert parse_record(record_to_obj(rec)) == rec


def test_a_date_is_refused_as_an_unsupported_value_type():
    with pytest.raises(TableValidationError, match="^record field holds an unsupported value type date$"):
        parse_record({"id": "r2", "fields": {"d": date(2026, 1, 15)}})


def test_an_int_too_large_for_a_float_is_a_non_finite_number():
    with pytest.raises(TableValidationError, match="^record field holds a non-finite number$"):
        parse_record({"id": "r1", "fields": {"n": 10**400}})
    with pytest.raises(ValueError, match="^record field holds a non-finite number$"):
        Record(id="r1", fields={"n": -(10**400)})
    # the largest int that still rounds to a finite float is accepted
    assert parse_record({"id": "r1", "fields": {"n": int(1.7976931348623157e308)}})


def test_record_requires_id():
    with pytest.raises(TableValidationError):
        parse_record({"fields": {"a": 1}})
    with pytest.raises(TableValidationError):
        parse_record({"id": "", "fields": {"a": 1}})


class _Label(str):
    pass


@pytest.mark.parametrize("record_id, fields, refusal", [
    ("", {}, "record id must be non-empty"),
    (7, {}, "record id must be a string"),
    (_Label("r1"), {}, "record id must be a string"),
    ("r1", MappingProxyType({"a": 1}), "record fields must be an object"),
    ("r1", {"": 1}, "record field names must be non-empty"),
    ("r1", {"a": _Label("x")}, "record field holds an unsupported value type _Label"),
], ids=["empty-id", "int-id", "str-subclass-id", "fields-not-a-dict", "empty-name", "str-subclass"])
def test_a_record_refuses_what_a_provision_refuses(record_id, fields, refusal):
    """A `Record` runs the provision's check on its own id and fields, so
    it holds exactly what a unit stores."""
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        Record(id=record_id, fields=fields)
    with pytest.raises(TableValidationError, match=f"^{refusal}$"):
        check_record_docs([{"id": record_id, "fields": fields}])


def test_fixture_cells_survive_reprint():
    table = load_table("Restock")
    cond = table.rules[0].conditions[0]
    assert cond == ColumnRelation(op="<=", column="MaxStorageCapacity", factor=0.1)
    patient = load_table("PatientPrioritizationWithAggr")
    assert patient.rules[0].conditions[1] == TextSet(values=("Asthma", "Diabetes"))


def test_equal_tables_hash_equal_and_share_one_compiled_program():
    one, two = load_table("Restock"), load_table("Restock")
    assert one is not two and one == two
    assert hash(one) == hash(two) == hash(one)
    assert compile_table(one) is compile_table(two)
    reordered = dataclasses.replace(one, rules=one.rules[::-1])
    assert reordered != one
    assert compile_table(reordered) is not compile_table(one)


def test_a_table_pickled_after_hashing_hashes_afresh_in_another_process():
    table = load_table("Restock")
    hash(table)
    code = (
        "import pickle, sys; from confidec.fixtures import load_table; "
        "print(hash(pickle.loads(sys.stdin.buffer.read())) == hash(load_table('Restock')))"
    )
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(table),
                         capture_output=True, env=child_env(PYTHONHASHSEED=seed))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == b"True"
