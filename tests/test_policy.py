"""Access policy language: parsing, printing, and condition evaluation."""

import pytest
from hypothesis import given, strategies as st

from confidec.errors import PolicySyntaxError, PolicyValidationError
from confidec.fixtures import load_policy_text
from confidec.policy.alfa import (
    format_expr,
    parse_policy_descriptor,
)
from confidec.policy.model import (
    AndExpr,
    AttrEquals,
    NotExpr,
    OrExpr,
    check_access,
)


def _single(text):
    specs = parse_policy_descriptor(text)
    assert len(specs) == 1
    return specs[0]


def _policy(condition, args="Data"):
    return (
        f"policy F({args}) {{\n"
        '    target clause Action == "decide"\n'
        "    rule accessDecision {\n"
        "        permit\n"
        f"        condition {condition}\n"
        "    }\n"
        "}\n"
    )


def test_parses_bundled_policies():
    specs = parse_policy_descriptor(load_policy_text())
    assert [s.func_name for s in specs] == [
        "PatientPrioritizationWithAggr", "Restock", "ChooseCarrier",
    ]
    patient = specs[0]
    assert patient.data_name == "Patient"
    assert patient.agg_names == ("meanAge", "sumAge")
    assert patient.condition == AndExpr(items=(
        AttrEquals("Role", "MedicalHub"), AttrEquals("Country", "Italy"),
    ))


def test_conjunction_flattens_syntactically():
    spec = _single(_policy('A == "1" && B == "2" && C == "3"'))
    assert spec.condition == AndExpr(items=(
        AttrEquals("A", "1"), AttrEquals("B", "2"), AttrEquals("C", "3"),
    ))


def test_parenthesized_groups_do_not_flatten():
    spec = _single(_policy('A == "1" && (B == "2" && C == "3")'))
    assert spec.condition == AndExpr(items=(
        AttrEquals("A", "1"),
        AndExpr(items=(AttrEquals("B", "2"), AttrEquals("C", "3"))),
    ))


def test_precedence_and_binds_tighter_than_or():
    spec = _single(_policy('A == "1" || B == "2" && C == "3"'))
    assert spec.condition == OrExpr(items=(
        AttrEquals("A", "1"),
        AndExpr(items=(AttrEquals("B", "2"), AttrEquals("C", "3"))),
    ))


def test_negation():
    spec = _single(_policy('!(A == "1" || B == "2")'))
    assert spec.condition == NotExpr(item=OrExpr(items=(
        AttrEquals("A", "1"), AttrEquals("B", "2"),
    )))


def test_format_round_trip_bundled():
    for spec in parse_policy_descriptor(load_policy_text()):
        again = _single(_policy(format_expr(spec.condition)))
        assert again.condition == spec.condition


@pytest.mark.parametrize("cond", [
    'A == "1"',
    'A == "1" && B == "2"',
    'A == "1" || B == "2" && C == "3"',
    '(A == "1" || B == "2") && C == "3"',
    '!(A == "1") && B == "2"',
    '!(A == "1" && (B == "2" || C == "3"))',
])
def test_expression_print_parse_fixpoint(cond):
    spec = _single(_policy(cond))
    again = _single(_policy(format_expr(spec.condition)))
    assert again.condition == spec.condition
    assert format_expr(again.condition) == format_expr(spec.condition)


@pytest.mark.parametrize("bad", [
    "policy F() { }",
    _policy('A == "1"').replace("accessDecision", "denyDecision"),
    _policy('A == "1"').replace("Action", "Motion"),
    _policy('A == "1"').replace("permit", "allow"),
    _policy('A == "1" &&'),
    _policy('A == '),
    _policy('A == 1'),
    "policy F(Data) {",
    "policy F Data",
    _policy('A == "1"', args="rule"),
    "",
])
def test_malformed_policies_rejected(bad):
    with pytest.raises((PolicySyntaxError, PolicyValidationError)):
        parse_policy_descriptor(bad)


def test_duplicate_function_names_rejected():
    text = _policy('A == "1"') + "\n" + _policy('B == "2"')
    with pytest.raises(PolicyValidationError):
        parse_policy_descriptor(text)


def test_check_access_basics():
    cond = AndExpr(items=(AttrEquals("Role", "MedicalHub"), AttrEquals("Country", "Italy")))
    assert check_access(cond, {"Role": "MedicalHub", "Country": "Italy"}) is True
    assert check_access(cond, {"Role": "MedicalHub", "Country": "France"}) is False
    assert check_access(cond, {"Role": "MedicalHub"}) is False  # absent attr is False
    assert check_access(cond, {}) is False
    assert check_access(NotExpr(item=cond), {}) is True


# -- property: evaluation respects boolean algebra ------------------------------

_ATTRS = ("Role", "Country", "Level")
_VALUES = ("a", "b")


def _exprs(depth=2):
    leaf = st.builds(AttrEquals, st.sampled_from(_ATTRS), st.sampled_from(_VALUES))
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(NotExpr, sub),
        st.builds(lambda a, b: AndExpr(items=(a, b)), sub, sub),
        st.builds(lambda a, b: OrExpr(items=(a, b)), sub, sub),
    )


_attr_sets = st.dictionaries(st.sampled_from(_ATTRS), st.sampled_from(_VALUES), max_size=3)


@given(a=_exprs(), b=_exprs(), attrs=_attr_sets)
def test_de_morgan(a, b, attrs):
    lhs = check_access(NotExpr(item=AndExpr(items=(a, b))), attrs)
    rhs = check_access(OrExpr(items=(NotExpr(item=a), NotExpr(item=b))), attrs)
    assert lhs == rhs


@given(e=_exprs(), attrs=_attr_sets)
def test_double_negation(e, attrs):
    assert check_access(NotExpr(item=NotExpr(item=e)), attrs) == check_access(e, attrs)


@given(e=_exprs(), attrs=_attr_sets)
def test_printed_expression_evaluates_identically(e, attrs):
    spec = _single(_policy(format_expr(e)))
    assert check_access(spec.condition, attrs) == check_access(e, attrs)
