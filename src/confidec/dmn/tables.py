"""JSON parsing, validation and serialization for tables and records."""

from __future__ import annotations

from typing import Any, Mapping

from confidec.dmn.cells import format_condition, parse_condition
from confidec.dmn.model import (
    CONDITION_VALUE_TYPES,
    AggregationSpec,
    ColumnRelation,
    ColumnSpec,
    Condition,
    DecisionTable,
    FilterAtom,
    Record,
    Rule,
    Wildcard,
    check_record_docs,
    is_number,
)
from confidec.errors import CellSyntaxError, TableValidationError
from confidec.util import typed_fields

# the refusal of a condition that reads another value type than its column
_MISFIT = {
    "number": "only numeric conditions fit a number column",
    "string": "only string sets fit a string column",
    "boolean": "only true/false fit a boolean column",
    "datetime": "datetime columns admit only the wildcard",
}


def _admissible(cond: Condition, column: ColumnSpec, by_name: Mapping[str, ColumnSpec]) -> str | None:
    """Return an error string if cond cannot apply to column, else None."""
    if isinstance(cond, Wildcard):
        return None
    if CONDITION_VALUE_TYPES[type(cond)] != column.value_type:
        return _MISFIT[column.value_type]
    if isinstance(cond, ColumnRelation):
        ref = by_name.get(cond.column)
        if ref is None:
            return f"references unknown column {cond.column!r}"
        if ref.kind == "output":
            return f"references output column {cond.column!r}"
        if ref.value_type != "number":
            return f"references non-numeric column {cond.column!r}"
    return None


def _condition(cell: str, where: str) -> Condition:
    """The condition a bundle cell holds; a syntax error is refused where it
    stands."""
    try:
        return parse_condition(cell)
    except CellSyntaxError as exc:
        raise TableValidationError(f"{where}: {exc}") from None


def _check_output_value(value: Any, column: ColumnSpec) -> str | None:
    vt = column.value_type
    if vt == "number" and not is_number(value):
        return "expected a number"
    if vt == "string" and not isinstance(value, str):
        return "expected a string"
    if vt == "boolean" and not isinstance(value, bool):
        return "expected a boolean"
    if vt == "datetime" and not isinstance(value, str):
        return "expected a datetime string"
    return None


def parse_decision_table(doc: Mapping[str, Any]) -> DecisionTable:
    """Build a validated DecisionTable from its JSON document."""
    name, raw_columns, raw_rules = typed_fields(
        doc, "table", TableValidationError, name=str, columns=list, rules=list
    )
    if not name:
        raise TableValidationError("table name must be a non-empty string")

    columns = []
    seen = set()
    for i, rc in enumerate(raw_columns):
        fields = typed_fields(rc, f"column {i}", TableValidationError, name=str, kind=str, type=str)
        try:
            col = ColumnSpec(*fields)
        except ValueError as exc:
            raise TableValidationError(f"column {i}: {exc}") from exc
        if col.name in seen:
            raise TableValidationError(f"duplicate column name {col.name!r}")
        seen.add(col.name)
        columns.append(col)

    cond_cols = [c for c in columns if c.kind != "output"]
    out_cols = [c for c in columns if c.kind == "output"]
    if not out_cols:
        raise TableValidationError(f"table {name!r} has no output column")
    by_name = {c.name: c for c in columns}

    rules = []
    for r, raw in enumerate(raw_rules):
        cells, outputs = typed_fields(
            raw, f"rule {r}", TableValidationError, conditions=list, outputs=list
        )
        if len(cells) != len(cond_cols):
            raise TableValidationError(
                f"rule {r}: {len(cells)} conditions for {len(cond_cols)} condition columns"
            )
        if len(outputs) != len(out_cols):
            raise TableValidationError(
                f"rule {r}: {len(outputs)} outputs for {len(out_cols)} output columns"
            )
        conds = []
        for cell, col in zip(cells, cond_cols):
            if type(cell) is not str:
                raise TableValidationError(f"rule {r}, column {col.name!r}: cell must be a str")
            cond = _condition(cell, f"rule {r}, column {col.name!r}")
            problem = _admissible(cond, col, by_name)
            if problem:
                raise TableValidationError(f"rule {r}, column {col.name!r}: {problem}")
            conds.append(cond)
        for value, col in zip(outputs, out_cols):
            problem = _check_output_value(value, col)
            if problem:
                raise TableValidationError(f"rule {r}, output {col.name!r}: {problem}")
        rules.append(Rule(conditions=tuple(conds), outputs=tuple(outputs)))

    return DecisionTable(name=name, columns=tuple(columns), rules=tuple(rules))


def table_to_obj(table: DecisionTable) -> dict:
    """Serialize back to the JSON document shape accepted by the parser."""
    return {
        "name": table.name,
        "columns": [
            {"name": c.name, "kind": c.kind, "type": c.value_type} for c in table.columns
        ],
        "rules": [
            {
                "conditions": [format_condition(c) for c in rule.conditions],
                "outputs": list(rule.outputs),
            }
            for rule in table.rules
        ],
    }


def parse_aggregation_spec(doc: Mapping[str, Any]) -> AggregationSpec:
    """Build a validated AggregationSpec from its JSON document."""
    name, raw_filter, target, reducer = typed_fields(
        doc, "aggregation", TableValidationError,
        name=str, filter=list, targetField=str, reducer=str,
    )
    if not name:
        raise TableValidationError("aggregation name must be a non-empty string")
    if not target:
        raise TableValidationError(f"aggregation {name!r}: bad targetField")
    atoms = []
    for i, raw in enumerate(raw_filter):
        where = f"aggregation {name!r}, atom {i}"
        field, cell = typed_fields(raw, where, TableValidationError, field=str, cell=str)
        atoms.append(FilterAtom(field=field, condition=_condition(cell, where)))
    try:
        return AggregationSpec(name=name, filter=tuple(atoms), target_field=target, reducer=reducer)
    except ValueError as exc:
        raise TableValidationError(str(exc)) from exc


def parse_record(doc: Mapping[str, Any]) -> Record:
    """Build a Record from {"id": ..., "fields": {...}}, checked as a
    provision checks it."""
    check_record_docs([doc])
    return Record(id=doc["id"], fields=dict(doc["fields"]))


def record_to_obj(record: Record) -> dict:
    return {"id": record.id, "fields": dict(record.fields)}
