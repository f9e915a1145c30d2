"""Compilation of decision tables into a flat opcode program.

The evaluator (`confidec.dmn._kernel_py.run_program`) executes the program:
per rule, a run of condition ops over a float matrix with one column slot
per non-output table column. Encoding:

    number  -> the value itself (records never contain NaN/inf)
    string  -> per-slot vocabulary code (>= 0); strings absent from the
               vocabulary encode as -1 and can never match a set
    boolean -> 1.0 / 0.0
    missing or wrongly typed -> NaN, with the reason kept aside; an op that
               reads a NaN cell aborts that record with an error status

The ops of rule r are k in rule_starts[r] .. rule_starts[r + 1] - 1, and
every op reads the cell v = row[op_col[k]]. Fields an opcode does not use
keep their defaults (op_a = op_b = 0.0, op_flags = op_len = 0, op_ref = -1).
Opcodes, with the test each one makes:

     1 OP_LT        v < op_a
     2 OP_LE        v <= op_a
     3 OP_GT        v > op_a
     4 OP_GE        v >= op_a
     5 OP_EQ        v == op_a
     6 OP_INTERVAL  op_a <= v <= op_b; op_flags & 1 makes the low end
                    strict (op_a < v), op_flags & 2 the high end (v < op_b)
     7 OP_SET       v is one of set_codes[op_ref : op_ref + op_len], the
                    vocabulary codes of the cell's strings
     8 OP_BOOL      v == op_a, with op_a 1.0 for true and 0.0 for false
     9 OP_COL_LT    v < row[op_ref] * op_a
    10 OP_COL_LE    v <= row[op_ref] * op_a
    11 OP_COL_GT    v > row[op_ref] * op_a
    12 OP_COL_GE    v >= row[op_ref] * op_a

For the OP_COL_* ops, op_ref is the referenced slot and op_a the factor; a
NaN in the referenced slot aborts the record with op_ref as its error slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

from confidec.dmn.model import (
    BooleanIs,
    ColumnRelation,
    ColumnSpec,
    DecisionTable,
    Interval,
    NumericEquals,
    Record,
    Relational,
    TextSet,
    Wildcard,
    is_number,
)
from confidec.errors import MissingAggregateError, TypeMismatchError

OP_LT = 1
OP_LE = 2
OP_GT = 3
OP_GE = 4
OP_EQ = 5
OP_INTERVAL = 6
OP_SET = 7
OP_BOOL = 8
OP_COL_LT = 9
OP_COL_LE = 10
OP_COL_GT = 11
OP_COL_GE = 12

_REL_OPS = {"<": OP_LT, "<=": OP_LE, ">": OP_GT, ">=": OP_GE}
_COL_OPS = {"<": OP_COL_LT, "<=": OP_COL_LE, ">": OP_COL_GT, ">=": OP_COL_GE}

STATUS_NO_MATCH = -1
STATUS_ERROR = -2


@dataclass
class CompiledTable:
    """A decision table lowered to flat arrays plus encoding metadata."""

    table: DecisionTable
    slots: Tuple[ColumnSpec, ...]
    slot_index: Dict[str, int]
    referenced: Tuple[bool, ...]
    vocab: Tuple[Dict[str, int] | None, ...]
    n_rules: int
    rule_starts: List[int]
    op_code: List[int]
    op_col: List[int]
    op_a: List[float]
    op_b: List[float]
    op_flags: List[int]
    op_ref: List[int]
    op_len: List[int]
    set_codes: List[float]


@lru_cache(maxsize=128)
def compile_table(table: DecisionTable) -> CompiledTable:
    slots = table.condition_columns
    slot_index = {c.name: j for j, c in enumerate(slots)}
    referenced = [False] * len(slots)
    vocab: List[Dict[str, int] | None] = [
        {} if c.value_type == "string" else None for c in slots
    ]

    op_code: List[int] = []
    op_col: List[int] = []
    op_a: List[float] = []
    op_b: List[float] = []
    op_flags: List[int] = []
    op_ref: List[int] = []
    op_len: List[int] = []
    set_codes: List[float] = []
    rule_starts = [0]

    def emit(code: int, col: int, a: float = 0.0, b: float = 0.0, flags: int = 0,
             ref: int = -1, length: int = 0) -> None:
        op_code.append(code)
        op_col.append(col)
        op_a.append(a)
        op_b.append(b)
        op_flags.append(flags)
        op_ref.append(ref)
        op_len.append(length)

    for rule in table.rules:
        for j, cond in enumerate(rule.conditions):
            if isinstance(cond, Wildcard):
                continue
            referenced[j] = True
            if isinstance(cond, Relational):
                emit(_REL_OPS[cond.op], j, a=cond.bound)
            elif isinstance(cond, NumericEquals):
                emit(OP_EQ, j, a=cond.value)
            elif isinstance(cond, Interval):
                flags = (1 if cond.lo_open else 0) | (2 if cond.hi_open else 0)
                emit(OP_INTERVAL, j, a=cond.lo, b=cond.hi, flags=flags)
            elif isinstance(cond, TextSet):
                words = vocab[j]
                assert words is not None
                offset = len(set_codes)
                for value in cond.values:
                    if value not in words:
                        words[value] = len(words)
                    set_codes.append(float(words[value]))
                emit(OP_SET, j, ref=offset, length=len(cond.values))
            elif isinstance(cond, BooleanIs):
                emit(OP_BOOL, j, a=1.0 if cond.value else 0.0)
            elif isinstance(cond, ColumnRelation):
                ref_slot = slot_index[cond.column]
                referenced[ref_slot] = True
                emit(_COL_OPS[cond.op], j, a=cond.factor, ref=ref_slot)
            else:
                raise TypeError(f"unknown condition {cond!r}")
        rule_starts.append(len(op_code))

    return CompiledTable(
        table=table,
        slots=slots,
        slot_index=slot_index,
        referenced=tuple(referenced),
        vocab=tuple(vocab),
        n_rules=len(table.rules),
        rule_starts=rule_starts,
        op_code=op_code,
        op_col=op_col,
        op_a=op_a,
        op_b=op_b,
        op_flags=op_flags,
        op_ref=op_ref,
        op_len=op_len,
        set_codes=set_codes,
    )


NAN = float("nan")


def check_aggregates(table: DecisionTable, aggregates: Mapping[str, float]) -> None:
    """Enforce that every aggregateInput column has a numeric value."""
    for col in table.aggregate_columns:
        if col.name not in aggregates:
            raise MissingAggregateError(
                f"table {table.name!r}: no value for aggregate input {col.name!r}"
            )
        if not is_number(aggregates[col.name]):
            raise TypeMismatchError(
                f"aggregate input {col.name!r}: expected a number, "
                f"got {type(aggregates[col.name]).__name__}"
            )


def build_matrix(
    ct: CompiledTable,
    records: Sequence[Record],
    aggregates: Mapping[str, float],
) -> Tuple[List[List[float]], Dict[Tuple[int, int], str]]:
    """Encode records into the float matrix consumed by the evaluators.

    Only slots actually referenced by some op are encoded; the rest stay
    NaN and are never read. Returns the matrix and a map from (row, slot)
    to the reason a cell is NaN ("missing" or "type").
    """
    slots = ct.slots
    bad: Dict[Tuple[int, int], str] = {}
    rows: List[List[float]] = []

    agg_codes: List[float | None] = []
    for j, col in enumerate(slots):
        if col.kind == "aggregateInput" and ct.referenced[j]:
            agg_codes.append(float(aggregates[col.name]))
        else:
            agg_codes.append(None)

    for i, record in enumerate(records):
        fields = record.fields
        row = [NAN] * len(slots)
        for j, col in enumerate(slots):
            if not ct.referenced[j]:
                continue
            if col.kind == "aggregateInput":
                row[j] = agg_codes[j]  # type: ignore[assignment]
                continue
            if col.name not in fields:
                bad[(i, j)] = "missing"
                continue
            value = fields[col.name]
            vt = col.value_type
            if vt == "number":
                if is_number(value):
                    row[j] = float(value)
                else:
                    bad[(i, j)] = "type"
            elif vt == "string":
                if isinstance(value, str):
                    row[j] = float(ct.vocab[j].get(value, -1))  # type: ignore[union-attr]
                else:
                    bad[(i, j)] = "type"
            elif vt == "boolean":
                if isinstance(value, bool):
                    row[j] = 1.0 if value else 0.0
                else:
                    bad[(i, j)] = "type"
            # datetime slots admit only wildcards, so they are never referenced
        rows.append(row)
    return rows, bad
