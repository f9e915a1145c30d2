"""Compilation of decision tables and aggregation filters into Python functions.

`compile_table` lowers a table, and the aggregations a service evaluates
before it, into plain Python source and compiles it; a decision service does
this once, when it is deployed, and equal inputs share one program through
the cache.

Records reach a program in its *layout*: the sorted names of the fields the
table and the aggregations read (`fields_read`), a column at a time. A batch
is its ids plus one raw column per layout field, `None` where a record lacks
the field (`None` is never a field value). A unit stores slim datasets in
exactly this form, `[fields, ids, columns]` with the layout as the fields,
and binds the layout into the blob's AAD, so a dataset written under one
layout never decodes under another.
`build_matrix` runs the program's generated encoder over the raw columns:
one comprehension per encoded slot, over its field's column, making one
column of floats per non-output table column and then one per field the
aggregations read with another value type:

    number  -> a float: a float as it is (records never contain NaN/inf),
               an int with |x| <= 2**53 as the float of equal value; a
               larger int stays an int, so its comparisons stay exact
    string  -> per-slot vocabulary code (>= 0); strings absent from the
               vocabulary encode as -1 and can never match a set
    boolean -> 1.0 / 0.0
    missing or wrongly typed (a bool in a number slot too) -> in a table
               slot, that slot's trapping NaN; in a later slot, NaN; the
               raw value tells which of the two it was

Float cells let every comparison with a float bound take CPython's
float-float fast path, which an int or a float subclass misses. A trapping
NaN is a `float` subclass, one instance per slot, whose `<`, `<=`, `>`, `>=`,
`==` and hash raise `AbortRecord(J)`; its `!=` and its arithmetic are
float's, so `vJ != vJ` is true for it without raising, and `vR * f` is a
plain NaN. A slot no op or filter reads is not encoded at all, and an
aggregate-input slot is not encoded either: its value is the same for every
record, so the row loop takes it as an argument, `vJ` as a parameter after
`append`.

The generated code reads rows: `Batch.rows` zips the columns of just the
slots the table, or a filter, reads, in slot order (the table's aggregate
inputs aside), so a row is one tuple of those cells. A generated row loop
unpacks each row into locals, `vJ` for slot J, tests the first rule group
inline and passes each later group's function the slots it reads; a filter
unpacks its rows the same way. Every non-wildcard condition is one op, a
test on `vJ`. The tests, with `a`, `b` and `f` the `repr` of the cell's
finite numbers:

    Relational      vJ < a   (or <=, >, >=)
    NumericEquals   vJ == a; for |a| >= 2**53, vJ == a or vJ + 0.0 == a,
                    so an int beyond 2**53 equals a as float(int) does
    Interval        a <= vJ and vJ <= b, with < for an open end
    TextSet         vJ in {0.0, 2.0}, the vocabulary codes of its strings
    BooleanIs       vJ == 1.0 for true, vJ == 0.0 for false
    ColumnRelation  vJ < vR * f   (or <=, >, >=), R the referenced slot

In a table, a missing or mistyped cell J is a trapping NaN, so the first
test that reads it raises `AbortRecord(J)`, which stops the batch at that
record, with J as its error slot; a test carries no abort clause of its own. A column
relation adds one for the referenced slot, `or (vR != vR and _abort(R))`:
`vR * f` is a plain NaN that only makes the comparison false. Its own slot
traps in the comparison, so J still aborts before R. A rule is one `if` of
its `and`-ed tests whose body, in a function, returns the rule index and, in
the row loop, appends it and goes on to the next row, so the tests run in
the order of `decide_record`, and a NaN cell aborts only when a test reads
it. An all-wildcard rule is that body alone, after which nothing is
emitted.

An aggregation filter is one function over the rows of the slots it reads
that returns the indices of the rows whose filter tests all hold. It reads
the table's slots where a field has the same value type, and those cells
may trap, so each atom on a table slot runs as `(not vJ != vJ and <test>)`:
`!=` does not trap, and a NaN cell fails the atom instead. An atom on a
later slot reads a plain NaN, which fails every test. So a filter never
raises; `evaluate_aggregate` then reads the target column at the selected
records, and a NaN there, found through `math.fsum` and `!=`, which do not
trap, is the first selected record lacking a numeric target. Sums use
`math.fsum`, so the result matches the reference over `Record`s bit for bit.

Only numbers and slot indices enter the source of the row loop and of the
table and filter functions: no table or record string does, and they see no
builtins, only `_abort` and, in the row loop, the later groups' functions.
The encoder reads the vocabularies as dictionaries bound in its globals, so
their strings stay out of its source too. The rules are split, whole, into
groups of at most MAX_OPS_PER_FUNCTION ops (a rule with more ops than that
is a group of its own). The row loop tests the first group's rules inline,
so a table of one group, as each bundled table is, makes no Python call per
record; each later group is a function that returns the index of its first
rule that holds, or None, and the loop calls it only when no group before
it held. `CompiledTable.functions` holds these later groups' functions,
one per group after the first. A table without rules has no group, and its
row loop appends STATUS_NO_MATCH for each row. The cap
bounds what one `compile()` holds at once: lowering `synth_table(7, 300)`
into one function raises the peak RSS by 21.6 MB, into functions of 128 ops
by 1.3 MB.

A decision response carries each distinct output tuple that fired once,
the record ids as one list, and `k` as another, one index per record into
those outputs in first-hit order or -1 for no match
(`confidec.service.builder`); `ClientSession.open_response` expands the two
lists back into one result object per record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from confidec.dmn.model import (
    CONDITION_VALUE_TYPES,
    AggregationSpec,
    BooleanIs,
    ColumnRelation,
    ColumnSpec,
    Condition,
    DecisionTable,
    Interval,
    NumericEquals,
    Relational,
    TextSet,
    Wildcard,
    is_number,
)
from confidec.errors import MissingAggregateError, TypeMismatchError

MAX_OPS_PER_FUNCTION = 128

STATUS_NO_MATCH = -1

NAN = float("nan")

# ints up to this magnitude encode as the float of equal value
EXACT_INT_LIMIT = 2 ** 53


class AbortRecord(Exception):
    """Raised when a table test reads a missing or mistyped cell; args[0]
    is the slot of that cell, and `run_program` adds the row as args[1]."""


def _abort(slot: int) -> NoReturn:
    raise AbortRecord(slot)


class _TrappingNaN(float):
    """A NaN whose ordering, equality and hash raise AbortRecord(slot).

    `!=` and arithmetic stay those of float, so `v != v` tells it apart
    from a number without raising, and `v * f` is a plain NaN.
    """

    __slots__ = ("slot",)

    def __new__(cls, slot: int) -> "_TrappingNaN":
        self = float.__new__(cls, NAN)
        self.slot = slot
        return self

    def _trap(self, other: object) -> NoReturn:
        raise AbortRecord(self.slot)

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _trap  # type: ignore[assignment]

    def __hash__(self) -> NoReturn:  # type: ignore[override]
        raise AbortRecord(self.slot)


# The generated table and filter functions see these globals and no builtins.
_GLOBALS = {"__builtins__": {}, "_abort": _abort}

RuleFunction = Callable[..., Optional[int]]
RowLoop = Callable[..., None]  # (rows, append, *aggregate input values)
Rule = Tuple[str, int]  # a rule's `and`-ed tests, "" for none, and its index
FilterFunction = Callable[[Iterable[Sequence[float]]], List[int]]
Encoder = Callable[[Sequence[Sequence[object]]], List[Optional[List[float]]]]


class Batch(NamedTuple):
    """Records in a program's layout, a column at a time.

    `values` holds one raw column per layout field, None where a record
    lacks the field; `columns` holds per slot the float column
    `build_matrix` made of it, or None for a slot that is not encoded.
    """

    ids: Sequence[str]
    values: Sequence[Sequence[object]]
    columns: List[Optional[List[float]]]

    def rows(self, slots: Sequence[int]) -> Iterable[tuple]:
        """Per record, the tuple of its cells in the given slots; an empty
        tuple per record when there are none."""
        if not slots:
            return repeat((), len(self.ids))
        columns = self.columns
        return zip(*[columns[j] for j in slots])


@dataclass
class LoweredAggregation:
    """An aggregation whose filter reads the rows of its slots."""

    spec: AggregationSpec
    select: FilterFunction
    reads: Tuple[int, ...]  # the slots the filter reads, in slot order
    target: int  # the slot of the target field, encoded as a number
    position: int  # the target field's index in the layout

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class CompiledTable:
    """A decision table and its aggregations lowered to Python functions."""

    table: DecisionTable
    layout: Tuple[str, ...]
    slots: Tuple[ColumnSpec, ...]  # the table's condition columns
    positions: Tuple[int, ...]  # layout index of each input slot, -1 otherwise
    reads: Tuple[int, ...]  # the slots of the rows the row loop reads, in slot order
    aggregate_slots: Tuple[Tuple[int, str], ...]  # read aggregate inputs: run's arguments
    encode: Encoder
    functions: Tuple[RuleFunction, ...]  # one per rule group after the first
    run: RowLoop  # appends each row's hit: the first group inline, then the functions
    aggregations: Tuple[LoweredAggregation, ...]


def fields_read(table: DecisionTable, aggregations: Sequence[AggregationSpec]) -> Set[str]:
    """The record fields a decision over the table, after the aggregations,
    can read."""
    fields = {c.name for c in table.input_columns}
    for agg in aggregations:
        fields.add(agg.target_field)
        fields.update(atom.field for atom in agg.filter)
    return fields


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
        a = _number(cond.value)
        if abs(cond.value) < EXACT_INT_LIMIT:
            return f"{v} == {a}", (j,)
        # an int cell beyond EXACT_INT_LIMIT equals a as float(int) does
        return f"{v} == {a} or {v} + 0.0 == {a}", (j,)
    if isinstance(cond, Interval):
        lo = "<" if cond.lo_open else "<="
        hi = "<" if cond.hi_open else "<="
        return f"{_number(cond.lo)} {lo} {v} and {v} {hi} {_number(cond.hi)}", (j,)
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


def _params(slots: Sequence[int]) -> str:
    """The locals of these slots, as parameters or arguments."""
    return ", ".join(f"v{j}" for j in slots)


def _targets(slots: Sequence[int]) -> str:
    """Assignment targets that unpack a row of these slots."""
    return f"{_params(slots)}," if slots else "_"


def _define(source: List[str], name: str, globals_: dict, filename: str) -> Callable:
    code = compile("\n".join(source) + "\n", filename, "exec")
    namespace: Dict[str, Callable] = {}
    exec(code, globals_, namespace)
    return namespace[name]


def _rule_lines(rules: Sequence[Rule], indent: str, hit: Callable[[int], List[str]]) -> List[str]:
    """Each rule as one `if` of its tests whose body is hit(rule index); an
    all-wildcard rule, which ends the table, as that body alone."""
    lines: List[str] = []
    for test, r in rules:
        if test:
            lines.append(f"{indent}if {test}:")
            lines += [f"{indent}    {line}" for line in hit(r)]
        else:
            lines += [indent + line for line in hit(r)]
    return lines


def _compile_function(rules: Sequence[Rule], reads: Set[int]) -> Tuple[RuleFunction, List[int]]:
    """A function of the slots it reads that returns the index of its first
    rule that holds, or None, and those slots in slot order."""
    params = sorted(reads)
    source = [f"def _f({_params(params)}):"]
    source += _rule_lines(rules, "    ", lambda r: [f"return {r}"])
    return _define(source, "_f", _GLOBALS, "<decision table>"), params


def _compile_loop(
    first: Sequence[Rule],
    later: Sequence[Tuple[RuleFunction, Sequence[int]]],
    reads: Sequence[int],
    arguments: Sequence[int],
) -> RowLoop:
    """The loop that unpacks each row of the slots in reads, tests the first
    group's rules inline and, if none holds, calls the later groups'
    functions, given the slots each reads, until one returns a hit; it passes
    append each row's hit, or STATUS_NO_MATCH. The slots in arguments, the
    aggregate inputs, are its parameters after append."""
    globals_ = dict(_GLOBALS)
    source = [
        f"def _run(rows, append{''.join(f', v{j}' for j in arguments)}):",
        f"    for {_targets(reads)} in rows:",
    ]
    source += _rule_lines(first, "        ", lambda r: [f"append({r})", "continue"])
    for k, (function, function_reads) in enumerate(later, start=1):
        globals_[f"_f{k}"] = function
        call = f"hit = _f{k}({_params(function_reads)})"
        if k == 1:
            source.append(f"        {call}")
        else:
            source += ["        if hit is None:", f"            {call}"]
    if later:
        source.append(f"        append({STATUS_NO_MATCH} if hit is None else hit)")
    elif not first or first[-1][0]:  # unless an all-wildcard rule ended the table
        source.append(f"        append({STATUS_NO_MATCH})")
    return _define(source, "_run", globals_, "<row loop>")


def _compile_filter(tests: List[str], reads: Sequence[int]) -> FilterFunction:
    source = [
        "def _f(rows):",
        "    out = []",
        "    i = -1",
        f"    for {_targets(reads)} in rows:",
        "        i += 1",
    ]
    if tests:
        source.append(f"        if {' and '.join(tests)}:")
        source.append("            out += (i,)")
    else:
        source.append("        out += (i,)")
    source.append("    return out")
    return _define(source, "_f", _GLOBALS, "<aggregation filter>")


def _compile_encoder(
    cells: Dict[int, Tuple[int, str, Dict[str, int] | None]],
    n_slots: int,
    n_trapping: int,
) -> Encoder:
    """The function that maps raw columns to float columns, one per slot;
    cells maps each encoded slot to its layout position, value type and
    vocabulary, and every other slot's column is None. A missing or mistyped
    cell in one of the first n_trapping slots, the table's, is that slot's
    _TrappingNaN; in a later slot it is NaN."""
    globals_: dict = {"__builtins__": {}, "_int": int, "_float": float, "_str": str, "_nan": NAN}
    exprs = []
    for j in range(n_slots):
        if j not in cells:
            exprs.append("None")
            continue
        p, value_type, vocab = cells[j]
        nan = "_nan"
        if j < n_trapping:
            nan = f"_t{j}"
            globals_[nan] = _TrappingNaN(j)
        if value_type == "number":
            cell = (
                f"x + 0.0 if x.__class__ is _int and {-EXACT_INT_LIMIT} <= x <= "
                f"{EXACT_INT_LIMIT} else x if x.__class__ is _float or x.__class__ is _int"
                f" else {nan}"
            )
        elif value_type == "string":
            globals_[f"_d{j}"] = {s: float(code) for s, code in vocab.items()}  # type: ignore[union-attr]
            cell = f"_d{j}.get(x, -1.0) if x.__class__ is _str else {nan}"
        else:
            cell = f"1.0 if x is True else 0.0 if x is False else {nan}"
        exprs.append(f"[{cell} for x in values[{p}]]")
    source = ["def _e(values):", f"    return [{', '.join(exprs)}]"]
    return _define(source, "_e", globals_, "<column encoder>")


def compile_table(
    table: DecisionTable,
    aggregations: Tuple[AggregationSpec, ...] = (),
    layout: Tuple[str, ...] | None = None,
) -> CompiledTable:
    """Lower a table and the aggregations evaluated before it.

    layout defaults to the sorted fields the two read; a given one must hold
    them all.
    """
    if layout is None:
        layout = tuple(sorted(fields_read(table, aggregations)))
    return _compile(table, tuple(aggregations), tuple(layout))


# Units of one process deployed with equal tables, aggregations and layouts
# share one lowering, whether or not the layout was given.
@lru_cache(maxsize=128)
def _compile(
    table: DecisionTable,
    aggregations: Tuple[AggregationSpec, ...],
    layout: Tuple[str, ...],
) -> CompiledTable:
    position = {name: p for p, name in enumerate(layout)}
    missing = fields_read(table, aggregations) - position.keys()
    if missing:
        raise ValueError(f"layout lacks fields {sorted(missing)}")

    slots = table.condition_columns
    slot_index = {c.name: j for j, c in enumerate(slots)}
    # every slot after the table's is a field an aggregation reads with a
    # value type no table column gives it
    value_types: List[str] = [c.value_type for c in slots]
    field_slot = {
        (c.name, c.value_type): j for j, c in enumerate(slots) if c.kind == "input"
    }
    slot_position = [position[c.name] if c.kind == "input" else -1 for c in slots]

    def slot_of(field: str, value_type: str) -> int:
        j = field_slot.get((field, value_type))
        if j is None:
            j = field_slot[(field, value_type)] = len(value_types)
            value_types.append(value_type)
            slot_position.append(position[field])
        return j

    filters = []
    for agg in aggregations:
        atoms = [
            (slot_of(atom.field, CONDITION_VALUE_TYPES[type(atom.condition)]), atom.condition)
            for atom in agg.filter
            if not isinstance(atom.condition, Wildcard)
        ]
        filters.append((agg, atoms, slot_of(agg.target_field, "number")))
    n_slots = len(value_types)
    vocab: List[Dict[str, int] | None] = [
        {} if vt == "string" else None for vt in value_types
    ]

    groups: List[Tuple[List[Rule], Set[int]]] = []  # and the slots each reads
    read: Set[int] = set()  # every slot some op or filter reads
    rules: List[Rule] = []  # the group being filled
    reads: Set[int] = set()  # the slots it reads
    n_ops = 0  # and its op count
    for r, rule in enumerate(table.rules):
        tests = []
        rule_reads: Set[int] = set()
        for j, cond in enumerate(rule.conditions):
            if isinstance(cond, Wildcard):
                continue
            test, slots_read = _lower(j, cond, slot_index, vocab[j])
            # slot j traps in the test; a referenced slot's NaN only fails it
            aborts = "".join(f" or (v{s} != v{s} and _abort({s}))" for s in slots_read[1:])
            tests.append(f"({test}{aborts})")
            rule_reads.update(slots_read)
        if rules and n_ops + len(tests) > MAX_OPS_PER_FUNCTION:
            groups.append((rules, reads))
            rules, reads, n_ops = [], set(), 0
        n_ops += len(tests)
        reads |= rule_reads
        read |= rule_reads
        rules.append((" and ".join(tests), r))
        if not tests:
            break  # no later rule can be reached
    if rules:
        groups.append((rules, reads))
    later = [_compile_function(group, group_reads) for group, group_reads in groups[1:]]
    # aggregate inputs are the row loop's arguments; the other slots, its rows
    arguments = tuple(j for j in sorted(read) if slots[j].kind == "aggregateInput")
    row_reads = tuple(j for j in sorted(read) if j not in arguments)

    lowered = []
    for agg, atoms, target in filters:
        tests = []
        for j, cond in atoms:
            test = f"({_lower(j, cond, slot_index, vocab[j])[0]})"
            # a table slot's NaN traps and `!=` does not, so check that first
            tests.append(f"(not v{j} != v{j} and {test})" if j < len(slots) else test)
        filter_reads = tuple(sorted({j for j, _ in atoms}))
        read.update(filter_reads, (target,))
        lowered.append(LoweredAggregation(
            spec=agg,
            select=_compile_filter(tests, filter_reads),
            reads=filter_reads,
            target=target,
            position=slot_position[target],
        ))

    cells = {
        j: (slot_position[j], value_types[j], vocab[j])
        for j in sorted(read)
        if slot_position[j] >= 0
    }
    return CompiledTable(
        table=table,
        layout=layout,
        slots=slots,
        positions=tuple(slot_position[: len(slots)]),
        reads=row_reads,
        aggregate_slots=tuple((j, slots[j].name) for j in arguments),
        encode=_compile_encoder(cells, n_slots, len(slots)),
        functions=tuple(function for function, _ in later),
        run=_compile_loop(groups[0][0] if groups else [], later, row_reads, arguments),
        aggregations=tuple(lowered),
    )


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
    ct: CompiledTable, values: Sequence[Sequence[object]]
) -> List[Optional[List[float]]]:
    """Encode the raw columns of the program's layout into the float columns
    the generated functions read, one per slot.

    Only slots some op or filter reads are encoded; the rest, and the
    aggregate inputs, are None. A NaN or trapping NaN cell's raw value tells
    why: None for a missing field, anything else for a value of the wrong
    type.
    """
    return ct.encode(values)
