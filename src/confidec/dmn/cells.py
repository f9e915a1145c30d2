"""Parser and printer for condition cells.

Cell grammar (whitespace between tokens is ignored):

    cell       := "-" | boolean | textset | interval | relational
                | columnrel | number
    boolean    := "true" | "false"
    textset    := string ("," string)*            e.g. "Asthma","Diabetes"
    interval   := bracket number ".." number bracket
                  where a leading "[" / trailing "]" closes the endpoint
                  and a leading "]" / trailing "[" opens it
    relational := op number                        e.g. >=60
    columnrel  := op ident ("*" number)?           e.g. <= MaxStorageCapacity * 0.1
    op         := "<=" | ">=" | "<" | ">"
    number     := ["-"] digits ["." digits]        bare number means equality
                  (an exponent is allowed; a number too large for a float
                  is a syntax error, so every bound and factor is finite)

String literals are double-quoted and contain no quote characters.
"""

from __future__ import annotations

import math
import re

from confidec.dmn.model import (
    BooleanIs,
    ColumnRelation,
    Condition,
    Interval,
    NumericEquals,
    Relational,
    TextSet,
    Wildcard,
)
from confidec.errors import CellSyntaxError

# a dot is only part of the number when digits follow, so "18.." scans as 18
_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STRING_RE = re.compile(r'"([^"]*)"')


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def match(self, pattern: re.Pattern) -> re.Match | None:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def fail(self, reason: str):
        raise CellSyntaxError(self.text, self.pos, reason)

    def number(self) -> float | None:
        """Scan a number, or return None if none starts here."""
        m = self.match(_NUMBER_RE)
        if not m:
            return None
        value = float(m.group())
        if not math.isfinite(value):
            self.pos = m.start()
            self.fail("number out of range")
        return value


def parse_condition(text: str) -> Condition:
    """Parse one cell into a condition value.

    Raises CellSyntaxError with the failing offset on malformed input.
    """
    sc = _Scanner(text)
    if sc.eof():
        sc.fail("empty cell")
    cond = _parse_cell(sc)
    if not sc.eof():
        sc.fail("trailing characters after condition")
    return cond


def _parse_cell(sc: _Scanner) -> Condition:
    ch = sc.peek()
    if ch == "-" and not _NUMBER_RE.match(sc.text, sc.pos):
        sc.pos += 1
        return Wildcard()
    if ch == '"':
        return _parse_textset(sc)
    if ch in ("[", "]"):
        return _parse_interval(sc)
    if ch in ("<", ">"):
        return _parse_relational(sc)
    value = sc.number()
    if value is not None:
        return NumericEquals(value)
    m = sc.match(_IDENT_RE)
    if m:
        word = m.group()
        if word == "true":
            return BooleanIs(True)
        if word == "false":
            return BooleanIs(False)
        sc.fail("unexpected identifier")
    sc.fail("unrecognized cell")


def _parse_textset(sc: _Scanner) -> TextSet:
    values = []
    while True:
        m = sc.match(_STRING_RE)
        if not m:
            sc.fail("expected string literal")
        values.append(m.group(1))
        if not sc.take(","):
            break
    return TextSet(tuple(values))


def _parse_interval(sc: _Scanner) -> Interval:
    opener = sc.peek()
    sc.pos += 1
    lo_open = opener == "]"
    lo = sc.number()
    if lo is None:
        sc.fail("expected interval lower bound")
    if not sc.take(".."):
        sc.fail("expected '..' in interval")
    hi = sc.number()
    if hi is None:
        sc.fail("expected interval upper bound")
    closer = sc.peek()
    if closer not in ("[", "]"):
        sc.fail("expected interval closing bracket")
    sc.pos += 1
    hi_open = closer == "["
    if lo > hi:
        sc.fail("interval lower bound exceeds upper bound")
    return Interval(lo, hi, lo_open, hi_open)


def _parse_relational(sc: _Scanner) -> Condition:
    # the caller saw "<" or ">", so one operator is taken
    op = next(op for op in ("<=", ">=", "<", ">") if sc.take(op))
    bound = sc.number()
    if bound is not None:
        return Relational(op, bound)
    m = sc.match(_IDENT_RE)
    if not m:
        sc.fail("expected number or column name after operator")
    column = m.group()
    factor = 1.0
    if sc.take("*"):
        factor = sc.number()
        if factor is None:
            sc.fail("expected numeric factor after '*'")
    return ColumnRelation(op, column, factor)


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def format_condition(cond: Condition) -> str:
    """Print a condition back to canonical cell text.

    parse_condition(format_condition(c)) == c for every condition value.
    """
    if isinstance(cond, Wildcard):
        return "-"
    if isinstance(cond, Relational):
        return f"{cond.op}{_format_number(cond.bound)}"
    if isinstance(cond, NumericEquals):
        return _format_number(cond.value)
    if isinstance(cond, Interval):
        lo_br = "]" if cond.lo_open else "["
        hi_br = "[" if cond.hi_open else "]"
        return f"{lo_br}{_format_number(cond.lo)}..{_format_number(cond.hi)}{hi_br}"
    if isinstance(cond, TextSet):
        for value in cond.values:
            if '"' in value:
                raise ValueError(f"string literal may not contain a quote: {value!r}")
        return ",".join(f'"{v}"' for v in cond.values)
    if isinstance(cond, BooleanIs):
        return "true" if cond.value else "false"
    if isinstance(cond, ColumnRelation):
        if cond.factor == 1.0:
            return f"{cond.op} {cond.column}"
        return f"{cond.op} {cond.column} * {_format_number(cond.factor)}"
    raise TypeError(f"not a condition: {cond!r}")
