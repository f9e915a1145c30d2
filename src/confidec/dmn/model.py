"""Data model for decision tables and records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Tuple, Union

FieldValue = Union[int, float, str, bool]

COLUMN_KINDS = ("input", "aggregateInput", "output")
VALUE_TYPES = ("number", "string", "boolean", "datetime")

RELATIONAL_OPS = ("<", "<=", ">", ">=")


def is_number(value: object) -> bool:
    """True for int/float but not bool (bool subclasses int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite(number: int | float) -> bool:
    """True when the number is finite as a float; an int too large for a
    float is not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def validate_field_value(value: object) -> None:
    """Reject values outside the supported scalar types.

    Numbers must be finite; NaN and infinities never enter a record. The
    texts name neither the field nor the value: both are the provider's data.
    """
    if isinstance(value, bool) or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if not is_finite(value):
            raise ValueError("field holds a non-finite number")
        return
    raise ValueError(f"field holds an unsupported value type {type(value).__name__}")


@dataclass(frozen=True)
class Record:
    """One data record: an opaque id plus a flat field mapping."""

    id: str
    fields: Mapping[str, FieldValue]

    def __post_init__(self):
        if not self.id:
            raise ValueError("id must be non-empty")
        for name, value in self.fields.items():
            if not name:
                raise ValueError("field names must be non-empty")
            validate_field_value(value)


# --- conditions ---------------------------------------------------------


@dataclass(frozen=True)
class Wildcard:
    """Matches any value, including an absent one."""


@dataclass(frozen=True)
class Relational:
    """value OP bound, for numeric values."""

    op: str
    bound: float

    def __post_init__(self):
        if self.op not in RELATIONAL_OPS:
            raise ValueError(f"bad relational op {self.op!r}")


@dataclass(frozen=True)
class NumericEquals:
    """Exact numeric equality, written as a bare number cell."""

    value: float


@dataclass(frozen=True)
class Interval:
    """Numeric range with independently open or closed endpoints."""

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool


@dataclass(frozen=True)
class TextSet:
    """Membership in a set of string literals."""

    values: Tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("text set must be non-empty")


@dataclass(frozen=True)
class BooleanIs:
    value: bool


@dataclass(frozen=True)
class ColumnRelation:
    """value OP (other column * factor), e.g. stock <= capacity * 0.25."""

    op: str
    column: str
    factor: float

    def __post_init__(self):
        if self.op not in RELATIONAL_OPS:
            raise ValueError(f"bad relational op {self.op!r}")


Condition = Union[
    Wildcard,
    Relational,
    NumericEquals,
    Interval,
    TextSet,
    BooleanIs,
    ColumnRelation,
]

# the value type each condition but the wildcard reads its column or field as
CONDITION_VALUE_TYPES = {
    Relational: "number",
    NumericEquals: "number",
    Interval: "number",
    ColumnRelation: "number",
    TextSet: "string",
    BooleanIs: "boolean",
}


# --- table structure -----------------------------------------------------


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    value_type: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"column {self.name!r}: bad kind {self.kind!r}")
        if self.value_type not in VALUE_TYPES:
            raise ValueError(f"column {self.name!r}: bad value type {self.value_type!r}")


@dataclass(frozen=True)
class Rule:
    """One table row: a condition per non-output column, a value per output."""

    conditions: Tuple[Condition, ...]
    outputs: Tuple[FieldValue, ...]


@dataclass(frozen=True)
class DecisionTable:
    """A first-hit decision table.

    Rules are evaluated in order; the first rule whose conditions all hold
    supplies the outputs. Rule order is therefore part of the table identity.
    """

    name: str
    columns: Tuple[ColumnSpec, ...]
    rules: Tuple[Rule, ...]

    @property
    def condition_columns(self) -> Tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind != "output")

    @property
    def input_columns(self) -> Tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind == "input")

    @property
    def aggregate_columns(self) -> Tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind == "aggregateInput")


# --- aggregations ---------------------------------------------------------


@dataclass(frozen=True)
class FilterAtom:
    """One conjunct of an aggregation filter: a condition on a named field."""

    field: str
    condition: Condition


@dataclass(frozen=True)
class AggregationSpec:
    """A named reduction over the records that pass every filter atom."""

    name: str
    filter: Tuple[FilterAtom, ...]
    target_field: str
    reducer: str

    def __post_init__(self):
        if self.reducer not in ("mean", "sum", "max", "min"):
            raise ValueError(f"aggregation {self.name!r}: bad reducer {self.reducer!r}")


# --- decision results ------------------------------------------------------


@dataclass(frozen=True)
class DecisionResult:
    """Outcome of deciding one record.

    outcome is "decided" when a rule fired (values holds its outputs, one per
    output column) or "noMatch" when no rule matched.
    """

    record_id: str
    outcome: str
    values: Tuple[FieldValue, ...] = field(default=())
    rule_index: int | None = None

    def __post_init__(self):
        if self.outcome not in ("decided", "noMatch"):
            raise ValueError(f"bad outcome {self.outcome!r}")
