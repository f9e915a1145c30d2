"""Parser and printer for the policy description language.

A descriptor file holds one or more policy blocks:

    policy PatientPrioritizationWithAggr(Patient, meanAge, sumAge) {
        target clause Action == "decide"
        rule accessDecision {
            permit
            condition Role == "MedicalHub" && Country == "Italy"
        }
    }

Conditions combine attribute/string equality atoms with &&, || and !,
with parentheses for grouping; && binds tighter than ||.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from confidec.errors import PolicySyntaxError, PolicyValidationError
from confidec.policy.model import (
    AndExpr,
    AttrEquals,
    NotExpr,
    OrExpr,
    PolicyExpr,
    PolicySpec,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"[^"\n]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>==|&&|\|\||[(){},!])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"policy", "target", "clause", "rule", "permit", "condition"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "string" | "ident" | "punct" | "eof"
    value: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise PolicySyntaxError(pos, f"unexpected character {text[pos]!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect_punct(self, value: str) -> None:
        if self.cur.kind != "punct" or self.cur.value != value:
            raise PolicySyntaxError(self.cur.pos, f"expected {value!r}")
        self.advance()

    def expect_keyword(self, word: str) -> None:
        if self.cur.kind != "ident" or self.cur.value != word:
            raise PolicySyntaxError(self.cur.pos, f"expected keyword {word!r}")
        self.advance()

    def expect_name(self) -> str:
        if self.cur.kind != "ident":
            raise PolicySyntaxError(self.cur.pos, "expected an identifier")
        if self.cur.value in _KEYWORDS:
            raise PolicySyntaxError(self.cur.pos, f"keyword {self.cur.value!r} not allowed here")
        return self.advance().value

    def expect_string(self) -> str:
        if self.cur.kind != "string":
            raise PolicySyntaxError(self.cur.pos, "expected a string literal")
        return self.advance().value[1:-1]

    # --- grammar ---------------------------------------------------------

    def parse_descriptor(self) -> List[PolicySpec]:
        specs = []
        while self.cur.kind != "eof":
            specs.append(self.parse_policy())
        if not specs:
            raise PolicySyntaxError(0, "descriptor holds no policy")
        return specs

    def parse_policy(self) -> PolicySpec:
        self.expect_keyword("policy")
        func_name = self.expect_name()
        self.expect_punct("(")
        data_name = self.expect_name()
        agg_names = []
        while self.cur.kind == "punct" and self.cur.value == ",":
            self.advance()
            agg_names.append(self.expect_name())
        self.expect_punct(")")
        self.expect_punct("{")
        self.expect_keyword("target")
        self.expect_keyword("clause")
        attr = self.expect_name()
        if attr != "Action":
            raise PolicySyntaxError(self.cur.pos, "target clause must test Action")
        self.expect_punct("==")
        pos = self.cur.pos
        if self.expect_string() != "decide":
            raise PolicySyntaxError(pos, "policy action must be decide")
        self.expect_keyword("rule")
        rule_name = self.expect_name()
        if rule_name != "accessDecision":
            raise PolicySyntaxError(self.cur.pos, "rule must be named accessDecision")
        self.expect_punct("{")
        self.expect_keyword("permit")
        self.expect_keyword("condition")
        condition = self.parse_or()
        self.expect_punct("}")
        self.expect_punct("}")
        return PolicySpec(
            func_name=func_name,
            data_name=data_name,
            agg_names=tuple(agg_names),
            condition=condition,
        )

    def parse_or(self) -> PolicyExpr:
        items = [self.parse_and()]
        while self.cur.kind == "punct" and self.cur.value == "||":
            self.advance()
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else OrExpr(tuple(items))

    def parse_and(self) -> PolicyExpr:
        items = [self.parse_unary()]
        while self.cur.kind == "punct" and self.cur.value == "&&":
            self.advance()
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else AndExpr(tuple(items))

    def parse_unary(self) -> PolicyExpr:
        if self.cur.kind == "punct" and self.cur.value == "!":
            self.advance()
            return NotExpr(self.parse_unary())
        if self.cur.kind == "punct" and self.cur.value == "(":
            self.advance()
            expr = self.parse_or()
            self.expect_punct(")")
            return expr
        attribute = self.expect_name()
        self.expect_punct("==")
        literal = self.expect_string()
        return AttrEquals(attribute, literal)


def parse_policy_descriptor(text: str) -> List[PolicySpec]:
    """Parse a descriptor into its policies, rejecting duplicate names."""
    specs = _Parser(text).parse_descriptor()
    seen = set()
    for spec in specs:
        if spec.func_name in seen:
            raise PolicyValidationError(f"duplicate policy for {spec.func_name!r}")
        seen.add(spec.func_name)
    return specs


# --- printing ----------------------------------------------------------


def format_expr(expr: PolicyExpr) -> str:
    if isinstance(expr, AttrEquals):
        return f'{expr.attribute} == "{expr.literal}"'
    if isinstance(expr, AndExpr):
        return " && ".join(_format_operand(item, in_and=True) for item in expr.items)
    if isinstance(expr, OrExpr):
        return " || ".join(_format_operand(item, in_and=False) for item in expr.items)
    if isinstance(expr, NotExpr):
        return "!" + _format_operand(expr.item, in_not=True)
    raise TypeError(f"not a policy expression: {expr!r}")


def _format_operand(expr: PolicyExpr, in_and: bool = False, in_not: bool = False) -> str:
    # parenthesize whenever precedence would reassociate on reparse
    needs_parens = (
        isinstance(expr, OrExpr)
        or (isinstance(expr, AndExpr) and (in_and or in_not))
    )
    text = format_expr(expr)
    return f"({text})" if needs_parens else text
