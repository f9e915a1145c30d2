"""Condition evaluation and first-hit decisions over record batches.

`decide_record` decides one record by evaluating its conditions one at a
time with `eval_condition`; that is the reference semantics. `decide_records`
runs a batch through a table's program from `compile_table` with
`_kernel_py.run_program`; the tests hold it to the same answers.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from confidec.dmn import _kernel_py
from confidec.dmn.aggregate import evaluate_aggregate
from confidec.dmn.model import (
    AggregationSpec,
    BooleanIs,
    ColumnRelation,
    Condition,
    DecisionResult,
    DecisionTable,
    FieldValue,
    Interval,
    NumericEquals,
    Record,
    Relational,
    TextSet,
    Wildcard,
    is_number,
)
from confidec.dmn.program import (
    STATUS_ERROR,
    STATUS_NO_MATCH,
    CompiledTable,
    build_matrix,
    check_aggregates,
    compile_table,
)
from confidec.errors import MissingFieldError, TypeMismatchError

# Always None; only perfbench/tracer.py reads it.
_c_kernel = None


def kernel_backend() -> str:
    """Name of the evaluator the benchmarks report: always "py"."""
    return "py"


def eval_condition(
    cond: Condition,
    value: FieldValue,
    record: Record | Mapping[str, FieldValue] | None = None,
) -> bool:
    """Evaluate one condition against one value.

    record supplies the referenced column for ColumnRelation conditions;
    it may be a Record or a plain mapping. Raises TypeMismatchError when
    the value type does not fit the condition and MissingFieldError when a
    referenced column is absent.
    """
    if isinstance(cond, Wildcard):
        return True
    if isinstance(cond, Relational):
        _require_number(cond, value)
        return _compare(cond.op, value, cond.bound)
    if isinstance(cond, NumericEquals):
        _require_number(cond, value)
        return float(value) == cond.value
    if isinstance(cond, Interval):
        _require_number(cond, value)
        lo_ok = value > cond.lo if cond.lo_open else value >= cond.lo
        hi_ok = value < cond.hi if cond.hi_open else value <= cond.hi
        return lo_ok and hi_ok
    if isinstance(cond, TextSet):
        if not isinstance(value, str):
            raise TypeMismatchError(
                f"string condition applied to {type(value).__name__} value"
            )
        return value in cond.values
    if isinstance(cond, BooleanIs):
        if not isinstance(value, bool):
            raise TypeMismatchError(
                f"boolean condition applied to {type(value).__name__} value"
            )
        return value is cond.value
    if isinstance(cond, ColumnRelation):
        _require_number(cond, value)
        fields = record.fields if isinstance(record, Record) else (record or {})
        if cond.column not in fields:
            raise MissingFieldError(f"condition references absent field {cond.column!r}")
        ref = fields[cond.column]
        if not is_number(ref):
            raise TypeMismatchError(
                f"referenced column {cond.column!r} holds a {type(ref).__name__}"
            )
        return _compare(cond.op, value, ref * cond.factor)
    raise TypeError(f"not a condition: {cond!r}")


def _require_number(cond: Condition, value: object) -> None:
    if not is_number(value):
        raise TypeMismatchError(
            f"numeric condition applied to {type(value).__name__} value"
        )


def _compare(op: str, left: float, right: float) -> bool:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def decide_record(
    table: DecisionTable,
    record: Record,
    aggregates: Mapping[str, float] | None = None,
) -> DecisionResult:
    """Decide one record: first rule whose conditions all hold wins.

    Conditions are checked left to right; a missing field only raises if a
    non-wildcard condition actually reads it.
    """
    aggregates = aggregates or {}
    check_aggregates(table, aggregates)
    cond_cols = table.condition_columns
    overlay = dict(record.fields)
    overlay.update(aggregates)
    for r, rule in enumerate(table.rules):
        matched = True
        for cond, col in zip(rule.conditions, cond_cols):
            if isinstance(cond, Wildcard):
                continue
            if col.kind == "aggregateInput":
                value = aggregates[col.name]
            elif col.name in record.fields:
                value = record.fields[col.name]
            else:
                raise MissingFieldError(
                    f"record {record.id!r}: field {col.name!r} required by rule {r + 1}"
                )
            if not eval_condition(cond, value, overlay):
                matched = False
                break
        if matched:
            return DecisionResult(
                record_id=record.id, outcome="decided", values=rule.outputs, rule_index=r
            )
    return DecisionResult(record_id=record.id, outcome="noMatch")


def decide_records(
    program: CompiledTable,
    records: Sequence[Record],
    aggregates: Mapping[str, float] | None = None,
) -> List[DecisionResult]:
    """Decide a batch with a lowered table and precomputed aggregate values."""
    table = program.table
    aggregates = aggregates or {}
    check_aggregates(table, aggregates)
    rows, bad = build_matrix(program, records, aggregates)
    n = len(records)

    status = [0] * n
    errcol = [0] * n
    _kernel_py.run_program(rows, program, status, errcol)

    results = []
    for i, record in enumerate(records):
        st = status[i]
        if st == STATUS_ERROR:
            col = program.slots[errcol[i]]
            reason = bad.get((i, errcol[i]), "missing")
            if reason == "type":
                raise TypeMismatchError(
                    f"record {record.id!r}: field {col.name!r} has the wrong type"
                )
            raise MissingFieldError(
                f"record {record.id!r}: field {col.name!r} required by a condition"
            )
        if st == STATUS_NO_MATCH:
            results.append(DecisionResult(record_id=record.id, outcome="noMatch"))
        else:
            results.append(
                DecisionResult(
                    record_id=record.id,
                    outcome="decided",
                    values=table.rules[st].outputs,
                    rule_index=st,
                )
            )
    return results


def decide_all(
    table: DecisionTable,
    records: Sequence[Record],
    agg_specs: Sequence[AggregationSpec] = (),
) -> List[DecisionResult]:
    """Evaluate aggregations over the batch, then decide every record."""
    aggregates = {spec.name: evaluate_aggregate(spec, records) for spec in agg_specs}
    return decide_records(compile_table(table), records, aggregates)
