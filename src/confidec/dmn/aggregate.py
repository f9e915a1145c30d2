"""Filtered reductions over record batches."""

from __future__ import annotations

import math
from typing import List, Sequence

from confidec.dmn.model import AggregationSpec, Record, Wildcard, is_number
from confidec.dmn.program import Batch, LoweredAggregation
from confidec.errors import AggregationError, TypeMismatchError


def _passes(spec: AggregationSpec, record: Record) -> bool:
    """True when the record satisfies every filter atom.

    An atom on an absent or wrongly typed field does not select the record;
    filters never raise.
    """
    from confidec.dmn.engine import eval_condition

    for atom in spec.filter:
        if isinstance(atom.condition, Wildcard):
            continue
        if atom.field not in record.fields:
            return False
        try:
            if not eval_condition(atom.condition, record.fields[atom.field], record):
                return False
        except TypeMismatchError:
            return False
    return True


def _lacks(spec: AggregationSpec) -> AggregationError:
    return AggregationError(
        f"aggregation {spec.name!r}: a selected record lacks "
        f"target field {spec.target_field!r}"
    )


def _not_numeric(spec: AggregationSpec) -> AggregationError:
    return AggregationError(
        f"aggregation {spec.name!r}: target field {spec.target_field!r} "
        f"of a selected record is not numeric"
    )


def _select_records(spec: AggregationSpec, records: Sequence[Record]) -> List[float]:
    values: List[float] = []
    for record in records:
        if not _passes(spec, record):
            continue
        if spec.target_field not in record.fields:
            raise _lacks(spec)
        value = record.fields[spec.target_field]
        if not is_number(value):
            raise _not_numeric(spec)
        values.append(float(value))
    return values


def _select_rows(agg: LoweredAggregation, batch: Batch) -> List[float]:
    target = batch.columns[agg.target]
    selected = agg.select(batch.rows(agg.reads))
    values = [target[i] for i in selected]
    total = math.fsum(values)
    if total != total:  # a NaN target: the field is missing or not a number
        i = next(i for i in selected if target[i] != target[i])
        if batch.values[agg.position][i] is None:
            raise _lacks(agg.spec)
        raise _not_numeric(agg.spec)
    return values


def evaluate_aggregate(
    spec: AggregationSpec | LoweredAggregation, records: Sequence[Record] | Batch
) -> float:
    """Reduce the target field over the records passing the filter.

    An `AggregationSpec` reads `Record`s, one filter atom at a time through
    `eval_condition`: that is the reference semantics. A `LoweredAggregation`
    from `compile_table` runs its generated filter over the rows of an
    encoded `Batch`, as a decision does; the tests hold the two to the same
    value, or to the same AggregationError naming the same first record.

    sum of an empty selection is 0; mean, max and min of an empty selection
    raise AggregationError. The result does not depend on record order
    (sums use exact accumulation).
    """
    if isinstance(spec, LoweredAggregation):
        values = _select_rows(spec, records)  # type: ignore[arg-type]
        spec = spec.spec
    else:
        values = _select_records(spec, records)  # type: ignore[arg-type]

    if spec.reducer == "sum":
        return math.fsum(values)
    if not values:
        raise AggregationError(
            f"aggregation {spec.name!r}: empty selection has no {spec.reducer}"
        )
    if spec.reducer == "mean":
        return math.fsum(values) / len(values)
    if spec.reducer == "max":
        return float(max(values))
    return float(min(values))
