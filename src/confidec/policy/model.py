"""Access-policy AST and evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple, Union

PolicyExpr = Union["AttrEquals", "AndExpr", "OrExpr", "NotExpr"]


@dataclass(frozen=True)
class AttrEquals:
    """attribute == "literal"; false when the attribute is absent."""

    attribute: str
    literal: str


@dataclass(frozen=True)
class AndExpr:
    items: Tuple[PolicyExpr, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("conjunction needs at least two operands")


@dataclass(frozen=True)
class OrExpr:
    items: Tuple[PolicyExpr, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("disjunction needs at least two operands")


@dataclass(frozen=True)
class NotExpr:
    item: PolicyExpr


@dataclass(frozen=True)
class PolicySpec:
    """One parsed policy: the guarded function and its access condition.

    data_name is the record structure the function reads; agg_names lists
    the aggregations it may call, in declaration order.
    """

    func_name: str
    data_name: str
    agg_names: Tuple[str, ...]
    condition: PolicyExpr


def check_access(condition: PolicyExpr, attributes: Mapping[str, str]) -> bool:
    """Evaluate an access condition over an attribute set.

    Total: any attribute set yields True or False, never an error. A
    comparison against an absent attribute is False.
    """
    if isinstance(condition, AttrEquals):
        return attributes.get(condition.attribute) == condition.literal
    if isinstance(condition, AndExpr):
        return all(check_access(item, attributes) for item in condition.items)
    if isinstance(condition, OrExpr):
        return any(check_access(item, attributes) for item in condition.items)
    if isinstance(condition, NotExpr):
        return not check_access(condition.item, attributes)
    raise TypeError(f"not a policy expression: {condition!r}")
