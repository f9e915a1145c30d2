"""Cell grammar: parsing, printing and their round-trip."""

import pytest
from hypothesis import given, strategies as st

from confidec.dmn.cells import format_condition, parse_condition
from confidec.dmn.model import (
    BooleanIs,
    ColumnRelation,
    Interval,
    NumericEquals,
    Relational,
    TextSet,
    Wildcard,
)
from confidec.errors import CellSyntaxError


def test_wildcard():
    assert parse_condition("-") == Wildcard()
    assert parse_condition("  -  ") == Wildcard()


@pytest.mark.parametrize("text,op,bound", [
    ("<18", "<", 18.0),
    ("<=0.25", "<=", 0.25),
    (">250", ">", 250.0),
    (">=  60", ">=", 60.0),
    ("> -1e9", ">", -1e9),
    ("<+.5", "<", 0.5),
])
def test_relational(text, op, bound):
    assert parse_condition(text) == Relational(op=op, bound=bound)


@pytest.mark.parametrize("text,value", [
    ("0", 0.0),
    ("1", 1.0),
    ("-3.5", -3.5),
    ("2e3", 2000.0),
])
def test_bare_number_is_numeric_equality(text, value):
    assert parse_condition(text) == NumericEquals(value=value)


@pytest.mark.parametrize("text,lo,hi,lo_open,hi_open", [
    ("[18..60[", 18.0, 60.0, False, True),
    ("[18..60]", 18.0, 60.0, False, False),
    ("]18..60[", 18.0, 60.0, True, True),
    ("]18..60]", 18.0, 60.0, True, False),
    ("[ 5000 .. 30000 ]", 5000.0, 30000.0, False, False),
    ("[1..2[", 1.0, 2.0, False, True),
])
def test_intervals(text, lo, hi, lo_open, hi_open):
    assert parse_condition(text) == Interval(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open)


def test_interval_bounds_with_decimals():
    # the '..' must not be eaten by the number scanner
    assert parse_condition("[1.5..2.5]") == Interval(lo=1.5, hi=2.5, lo_open=False, hi_open=False)


@pytest.mark.parametrize("text,values", [
    ('"Asthma"', ("Asthma",)),
    ('"Asthma","Diabetes"', ("Asthma", "Diabetes")),
    ('"COVID-19" , "Influenza"', ("COVID-19", "Influenza")),
])
def test_text_sets(text, values):
    assert parse_condition(text) == TextSet(values=values)


def test_empty_quoted_string_is_a_valid_member():
    assert parse_condition('""') == TextSet(values=("",))


def test_booleans():
    assert parse_condition("true") == BooleanIs(value=True)
    assert parse_condition("false") == BooleanIs(value=False)


@pytest.mark.parametrize("text,op,column,factor", [
    ("<= MaxStorageCapacity * 0.1", "<=", "MaxStorageCapacity", 0.1),
    ("< Cap * 2", "<", "Cap", 2.0),
    (">= Base*1", ">=", "Base", 1.0),
    ("> Other * 0.5", ">", "Other", 0.5),
])
def test_column_relations(text, op, column, factor):
    assert parse_condition(text) == ColumnRelation(op=op, column=column, factor=factor)


@pytest.mark.parametrize("bad", [
    "",
    "  ",
    "[18..60",
    "18..60[",
    "[60..18]",
    '"unterminated',
    "<",
    "<= Col *",
    "<= Col * x",
    "maybe",
    "truethy",
    "1 2",
    '"a",',
    "[18..]",
    "@",
    "[..60]",
    "[18 60]",
])
def test_rejects_malformed_cells(bad):
    with pytest.raises(CellSyntaxError):
        parse_condition(bad)


def test_syntax_error_carries_position():
    err = None
    try:
        parse_condition("[18..60")
    except CellSyntaxError as exc:
        err = exc
    assert err is not None
    assert err.position >= 0
    assert "[18..60" in str(err) or err.text == "[18..60"


@pytest.mark.parametrize("text,offset", [
    ("< 1e400", 2),  # relational
    (">= -1e400", 3),
    ("1e400", 0),  # equality
    ("-1e999", 0),
    ("[0..1e400]", 4),  # interval
    ("]-1e400..0]", 1),
    ("<= Cap * 1e400", 9),  # column-relation factor
])
def test_numbers_beyond_float_range_are_syntax_errors(text, offset):
    with pytest.raises(CellSyntaxError) as info:
        parse_condition(text)
    assert info.value.position == offset
    assert info.value.reason == "number out of range"


@pytest.mark.parametrize("text", [
    "-", "<18", "<=0.25", ">250", ">=60", "0", "1", "-3.5",
    "[18..60[", "]18..60]", '"Asthma"', '"Asthma","Diabetes"',
    "true", "false", "<= MaxStorageCapacity * 0.1",
])
def test_format_parse_round_trip(text):
    cond = parse_condition(text)
    assert parse_condition(format_condition(cond)) == cond


_numbers = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@given(op=st.sampled_from(["<", "<=", ">", ">="]), bound=_numbers)
def test_relational_round_trip_any_number(op, bound):
    cond = Relational(op=op, bound=bound)
    assert parse_condition(format_condition(cond)) == cond


@given(
    lo=_numbers, width=st.floats(min_value=0.001, max_value=1e5),
    lo_open=st.booleans(), hi_open=st.booleans(),
)
def test_interval_round_trip_any_bounds(lo, width, lo_open, hi_open):
    cond = Interval(lo=lo, hi=lo + width, lo_open=lo_open, hi_open=hi_open)
    assert parse_condition(format_condition(cond)) == cond


@given(values=st.lists(
    st.text(alphabet=st.characters(blacklist_characters='"', min_codepoint=32, max_codepoint=126), min_size=1, max_size=12),
    min_size=1, max_size=4, unique=True,
))
def test_text_set_round_trip_any_values(values):
    cond = TextSet(values=tuple(values))
    assert parse_condition(format_condition(cond)) == cond
