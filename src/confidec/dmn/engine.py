"""Condition evaluation and first-hit decisions over record batches.

`decide_record` decides one record by evaluating its conditions one at a
time with `eval_condition`; that is the reference semantics. `decide_records`
runs a batch through a table's program from `compile_table` with
`_kernel_py.run_program`, which returns the rule each record hit and stops
at the first record that reads a missing or mistyped field; the tests hold
it to the same answers. A batch is either `Record`s, which it first
projects onto the program's layout, or the value lists a unit decrypts,
already in that layout (`encode_batch`).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, overload

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
    STATUS_NO_MATCH,
    AbortRecord,
    Batch,
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
                    f"field {col.name!r} required by rule {r + 1} is missing from a record"
                )
            if not eval_condition(cond, value, overlay):
                matched = False
                break
        if matched:
            return DecisionResult(
                record_id=record.id, outcome="decided", values=rule.outputs, rule_index=r
            )
    return DecisionResult(record_id=record.id, outcome="noMatch")


def encode_batch(
    program: CompiledTable, ids: Sequence[str], values: Sequence[Sequence[object]]
) -> Batch:
    """Records given as value lists in the program's layout, with their rows."""
    return Batch(ids, values, build_matrix(program, values))


def encode_records(program: CompiledTable, records: Sequence[Record]) -> Batch:
    """Project records onto the program's layout and encode them."""
    layout = program.layout
    return encode_batch(
        program,
        [record.id for record in records],
        [[record.fields.get(name) for name in layout] for record in records],
    )


@overload
def decide_records(
    program: CompiledTable, records: Batch, aggregates: Mapping[str, float] | None = None
) -> List[int]: ...


@overload
def decide_records(
    program: CompiledTable,
    records: Sequence[Record],
    aggregates: Mapping[str, float] | None = None,
) -> List[DecisionResult]: ...


def decide_records(program, records, aggregates=None):
    """Decide a batch with a lowered table and precomputed aggregate values.

    `Record`s are projected onto the program's layout and encoded, and the
    result is one `DecisionResult` per record. An encoded `Batch`, as on the
    decision path, gives per record only what a response carries: the index
    of the rule that fired, or STATUS_NO_MATCH. Either way the first record
    whose decision reads a missing or mistyped field raises.
    """
    table = program.table
    aggregates = aggregates or {}
    check_aggregates(table, aggregates)
    batch = records if isinstance(records, Batch) else encode_records(program, records)
    rows = batch.rows
    for j, name in program.aggregate_slots:
        value = float(aggregates[name])
        for row in rows:
            row[j] = value

    try:
        hits = _kernel_py.run_program(rows, program)
    except AbortRecord as abort:
        j, i = abort.args
        name = program.slots[j].name
        if batch.values[i][program.positions[j]] is None:
            raise MissingFieldError(
                f"field {name!r} required by a condition is missing from a record"
            ) from None
        raise TypeMismatchError(f"field {name!r} of a record has the wrong type") from None
    if records is batch:
        return hits
    rules = table.rules
    return [
        DecisionResult(record_id=record.id, outcome="noMatch") if hit == STATUS_NO_MATCH
        else DecisionResult(
            record_id=record.id, outcome="decided", values=rules[hit].outputs, rule_index=hit
        )
        for record, hit in zip(records, hits)
    ]


def decide_all(
    table: DecisionTable,
    records: Sequence[Record],
    agg_specs: Sequence[AggregationSpec] = (),
) -> List[DecisionResult]:
    """Evaluate aggregations over the batch, then decide every record."""
    aggregates = {spec.name: evaluate_aggregate(spec, records) for spec in agg_specs}
    return decide_records(compile_table(table), records, aggregates)
