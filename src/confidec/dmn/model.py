"""Data model for decision tables and records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Set, Tuple, Union

from confidec.errors import TableValidationError

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


def check_record_docs(docs: Sequence[Any]) -> Tuple[str, ...]:
    """Check record documents in one pass, with texts that name none of the
    caller's ids, field names or values, and refuse a repeated id; returns
    the sorted union of the records' field names.

    A record document is what `json.loads` yields, a `str` id and a `dict`
    of fields, so exact type checks suffice: a value is a str, a bool, or
    an int or float that is finite as a float.
    """
    seen: Set[str] = set()
    union: Set[str] = set()
    for doc in docs:
        try:
            record_id = doc["id"]
            fields = doc["fields"]
        except (KeyError, TypeError) as exc:
            raise TableValidationError(f"record document missing key: {exc}") from exc
        if type(record_id) is not str:
            raise TableValidationError("record id must be a string")
        if type(fields) is not dict:
            raise TableValidationError("record fields must be an object")
        if not record_id:
            raise TableValidationError("record id must be non-empty")
        for name, value in fields.items():
            if not name:
                raise TableValidationError("record field names must be non-empty")
            kind = type(value)
            if kind is str or kind is bool:
                continue
            if kind is not int and kind is not float:
                raise TableValidationError(
                    f"record field holds an unsupported value type {kind.__name__}"
                )
            if not is_finite(value):
                raise TableValidationError("record field holds a non-finite number")
        if record_id in seen:
            raise TableValidationError("duplicate record id in the dataset")
        seen.add(record_id)
        union.update(fields)
    return tuple(sorted(union))


@dataclass(frozen=True)
class Record:
    """One data record: an opaque id plus a flat field mapping, holding
    exactly what a provision accepts."""

    id: str
    fields: Mapping[str, FieldValue]

    def __post_init__(self):
        try:
            check_record_docs([{"id": self.id, "fields": self.fields}])
        except TableValidationError as exc:
            raise ValueError(str(exc)) from None


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
            raise ValueError(f"column {self.name!r}: bad kind")
        if self.value_type not in VALUE_TYPES:
            raise ValueError(f"column {self.name!r}: bad value type")


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
            raise ValueError(f"aggregation {self.name!r}: bad reducer")
        for i, atom in enumerate(self.filter):
            if isinstance(atom.condition, ColumnRelation):
                raise ValueError(
                    f"aggregation {self.name!r}, atom {i}: column references not allowed in filters"
                )


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
