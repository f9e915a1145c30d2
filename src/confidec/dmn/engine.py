"""Condition evaluation and first-hit decisions over record batches.

`decide_record` decides one record by evaluating its conditions one at a
time with `eval_condition`, and `decide_all` decides a batch of `Record`s
that way after computing its aggregates over them: that is the reference
semantics, and the oracle the tests and the benchmark check answers
against. `decide_records` decides an encoded `Batch` (`encode_batch`,
`encode_records`) with a table's program from `compile_table`, through
`_kernel_py.run_program`, which returns the rule each record hit and stops
at the first record that reads a missing or mistyped field. Both raise
that field's error with the same text (`_field_error`).
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
    AbortRecord,
    Batch,
    CompiledTable,
    build_matrix,
    check_aggregates,
    compile_table,  # noqa: F401 - perfbench/tracer.py times `engine.compile_table`
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


def _field_error(name: str, value: object) -> MissingFieldError | TypeMismatchError:
    """The error of a decision that read the field `name` of a record and
    found `value`, None where the field is absent."""
    if value is None:
        return MissingFieldError(
            f"field {name!r} required by a condition is missing from a record"
        )
    return TypeMismatchError(f"field {name!r} of a record has the wrong type")


def decide_record(
    table: DecisionTable,
    record: Record,
    aggregates: Mapping[str, float] | None = None,
) -> DecisionResult:
    """Decide one record: first rule whose conditions all hold wins.

    Conditions are checked left to right; a missing or mistyped field only
    raises if a non-wildcard condition actually reads it, and the error
    names the field read first: the column's own, or the column a
    ColumnRelation references when the column's own value is a number.
    """
    aggregates = aggregates or {}
    check_aggregates(table, aggregates)
    cond_cols = table.condition_columns
    overlay = dict(record.fields)
    overlay.update(aggregates)
    for r, rule in enumerate(table.rules):
        for cond, col in zip(rule.conditions, cond_cols):
            if isinstance(cond, Wildcard):
                continue
            if col.kind == "aggregateInput":
                value = aggregates[col.name]
            else:
                value = record.fields.get(col.name)
            try:
                if not eval_condition(cond, value, overlay):
                    break
            except (MissingFieldError, TypeMismatchError):
                if isinstance(cond, ColumnRelation) and is_number(value):
                    raise _field_error(cond.column, overlay.get(cond.column)) from None
                raise _field_error(col.name, value) from None
        else:
            return DecisionResult(
                record_id=record.id, outcome="decided", values=rule.outputs, rule_index=r
            )
    return DecisionResult(record_id=record.id, outcome="noMatch")


def encode_batch(
    program: CompiledTable, ids: Sequence[str], values: Sequence[Sequence[object]]
) -> Batch:
    """Records given as one raw column per field of the program's layout,
    with their encoded columns."""
    return Batch(ids, values, build_matrix(program, values))


def encode_records(program: CompiledTable, records: Sequence[Record]) -> Batch:
    """Project records onto the program's layout and encode them."""
    fields = [record.fields for record in records]
    return encode_batch(
        program,
        [record.id for record in records],
        [[f.get(name) for f in fields] for name in program.layout],
    )


def decide_records(
    program: CompiledTable, batch: Batch, aggregates: Mapping[str, float]
) -> List[int]:
    """Decide an encoded batch with a lowered table and precomputed
    aggregate values.

    Returns per record what a response carries: the index of the rule that
    fired, or `STATUS_NO_MATCH`. The first record whose decision reads a
    missing or mistyped field raises. The batch is left as it was: the
    aggregates reach the row loop as arguments.
    """
    check_aggregates(program.table, aggregates)
    values = [float(aggregates[name]) for _, name in program.aggregate_slots]
    try:
        return _kernel_py.run_program(batch, program, values)
    except AbortRecord as abort:
        j, i = abort.args
        raise _field_error(
            program.slots[j].name, batch.values[program.positions[j]][i]
        ) from None


def decide_all(
    table: DecisionTable,
    records: Sequence[Record],
    agg_specs: Sequence[AggregationSpec] = (),
) -> List[DecisionResult]:
    """Evaluate aggregations over the batch, then decide every record, both
    by the reference semantics."""
    aggregates = {spec.name: evaluate_aggregate(spec, records) for spec in agg_specs}
    return [decide_record(table, record, aggregates) for record in records]
