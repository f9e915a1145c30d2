"""Compilation of decision tables into Python functions.

`compile_table` lowers a table into plain Python source and compiles it; a
decision service does this once, when it is deployed, and equal tables share
one program through the cache. `confidec.dmn._kernel_py.run_program` calls
the result once per record. Records are first encoded by `build_matrix` into
rows of floats, one slot per non-output table column:

    number  -> the value itself (records never contain NaN/inf)
    string  -> per-slot vocabulary code (>= 0); strings absent from the
               vocabulary encode as -1 and can never match a set
    boolean -> 1.0 / 0.0
    missing or wrongly typed -> NaN, with the reason kept aside

Every non-wildcard condition is one op, a test on the local `vJ` that holds
slot J of the row. The tests, with `a`, `b` and `f` the `repr` of the
cell's finite numbers:

    Relational      vJ < a   (or <=, >, >=)
    NumericEquals   vJ == a
    Interval        a <= vJ <= b, with < for an open end
    TextSet         vJ in {0.0, 2.0}, the vocabulary codes of its strings
    BooleanIs       vJ == 1.0 for true, vJ == 0.0 for false
    ColumnRelation  vJ < vR * f   (or <=, >, >=), R the referenced slot

A test that fails goes on to `(vJ != vJ and _abort(J))`: every comparison
with NaN is false, so a NaN cell reaches `_abort`, which stops the record
with J as its error slot. A column relation checks its own slot first and
then the referenced one, `(vR != vR and _abort(R))`. A rule is one `if` of
its `and`-ed tests that returns the rule index, so the tests run in the
order of `decide_record`, and a NaN cell aborts only when a test reads it.
An all-wildcard rule is a bare `return`, after which nothing is emitted.

Only numbers and slot indices enter the source: no table or record string
does, and the functions see no builtins, only `_abort`. The rules are
split, whole, into functions of at most MAX_OPS_PER_FUNCTION ops (a rule
with more ops than that gets a function of its own); each function returns
the index of its first rule that holds, or None. The cap bounds what one
`compile()` holds at once: lowering `synth_table(7, 300)` into one function
raises the peak RSS by 21.6 MB, into functions of 128 ops by 1.3 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, NoReturn, Optional, Sequence, Set, Tuple

from confidec.dmn.model import (
    BooleanIs,
    ColumnRelation,
    ColumnSpec,
    Condition,
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

MAX_OPS_PER_FUNCTION = 128

STATUS_NO_MATCH = -1
STATUS_ERROR = -2


class AbortRecord(Exception):
    """Raised by the generated code when a test reads a NaN cell; args[0]
    is the slot of that cell."""


def _abort(slot: int) -> NoReturn:
    raise AbortRecord(slot)


# The generated functions see these globals and no builtins.
_GLOBALS = {"__builtins__": {}, "_abort": _abort}

RuleFunction = Callable[[Sequence[float]], Optional[int]]


@dataclass
class CompiledTable:
    """A decision table lowered to Python functions plus encoding metadata."""

    table: DecisionTable
    slots: Tuple[ColumnSpec, ...]
    slot_index: Dict[str, int]
    referenced: Tuple[bool, ...]
    vocab: Tuple[Dict[str, int] | None, ...]
    functions: Tuple[RuleFunction, ...]


def _number(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {value!r} in a condition")
    return repr(value)


def _lower(
    j: int,
    cond: Condition,
    slot_index: Dict[str, int],
    vocab: Dict[str, int] | None,
) -> Tuple[str, Tuple[int, ...]]:
    """The test of one op and the slots it reads, its own first."""
    v = f"v{j}"
    if isinstance(cond, Relational):
        return f"{v} {cond.op} {_number(cond.bound)}", (j,)
    if isinstance(cond, NumericEquals):
        return f"{v} == {_number(cond.value)}", (j,)
    if isinstance(cond, Interval):
        lo = "<" if cond.lo_open else "<="
        hi = "<" if cond.hi_open else "<="
        return f"{_number(cond.lo)} {lo} {v} {hi} {_number(cond.hi)}", (j,)
    if isinstance(cond, TextSet):
        assert vocab is not None
        for value in cond.values:
            vocab.setdefault(value, len(vocab))
        codes = ", ".join(_number(vocab[value]) for value in cond.values)
        return f"{v} in {{{codes}}}", (j,)
    if isinstance(cond, BooleanIs):
        return f"{v} == {'1.0' if cond.value else '0.0'}", (j,)
    if isinstance(cond, ColumnRelation):
        ref = slot_index[cond.column]
        return f"{v} {cond.op} v{ref} * {_number(cond.factor)}", (j, ref)
    raise TypeError(f"unknown condition {cond!r}")


def _compile_function(lines: List[str], reads: Set[int], n_slots: int) -> RuleFunction:
    source = ["def _f(row):"]
    if reads:
        targets = ", ".join(f"v{j}" if j in reads else "_" for j in range(n_slots))
        source.append(f"    {targets}, = row")
    code = compile("\n".join(source + lines) + "\n", "<decision table>", "exec")
    namespace: Dict[str, RuleFunction] = {}
    exec(code, _GLOBALS, namespace)
    return namespace["_f"]


# Units of one process deployed with equal tables share one lowering.
@lru_cache(maxsize=128)
def compile_table(table: DecisionTable) -> CompiledTable:
    slots = table.condition_columns
    slot_index = {c.name: j for j, c in enumerate(slots)}
    vocab: List[Dict[str, int] | None] = [
        {} if c.value_type == "string" else None for c in slots
    ]

    functions: List[RuleFunction] = []
    referenced: Set[int] = set()
    lines: List[str] = []  # body of the function being filled
    reads: Set[int] = set()  # the slots it reads
    n_ops = 0  # and its op count
    for r, rule in enumerate(table.rules):
        tests = []
        rule_reads: Set[int] = set()
        for j, cond in enumerate(rule.conditions):
            if isinstance(cond, Wildcard):
                continue
            test, slots_read = _lower(j, cond, slot_index, vocab[j])
            aborts = "".join(f" or (v{s} != v{s} and _abort({s}))" for s in slots_read)
            tests.append(f"({test}{aborts})")
            rule_reads.update(slots_read)
        if lines and n_ops + len(tests) > MAX_OPS_PER_FUNCTION:
            functions.append(_compile_function(lines, reads, len(slots)))
            lines, reads, n_ops = [], set(), 0
        n_ops += len(tests)
        reads |= rule_reads
        referenced |= rule_reads
        if not tests:
            lines.append(f"    return {r}")
            break  # no later rule can be reached
        lines.append(f"    if {' and '.join(tests)}:")
        lines.append(f"        return {r}")
    if lines:
        functions.append(_compile_function(lines, reads, len(slots)))

    return CompiledTable(
        table=table,
        slots=slots,
        slot_index=slot_index,
        referenced=tuple(j in referenced for j in range(len(slots))),
        vocab=tuple(vocab),
        functions=tuple(functions),
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
    """Encode records into the float rows the generated functions read.

    Only slots some op reads are encoded; the rest stay NaN and are never
    read. Returns the matrix and a map from (row, slot) to the reason a cell
    is NaN ("missing" or "type").
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
