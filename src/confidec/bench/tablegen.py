"""Synthetic decision tables of arbitrary width and depth.

Used by the scaling experiments: tables with a chosen number of input
columns and rules, plus record and aggregation generators that fit them.
Rule conditions are kept narrow on purpose so a typical record walks the
whole rule list, which is the regime where evaluation cost actually tracks
the table size.
"""

from __future__ import annotations

import random

from confidec.dmn.model import Record
from confidec.dmn.tables import parse_aggregation_spec, parse_decision_table

_STRING_POOL = [
    "amber", "basalt", "cobalt", "dune", "ember", "fjord", "garnet",
    "heath", "indigo", "jasper", "krill", "lichen", "moraine", "nacre",
    "ochre", "pumice", "quartz", "rust", "slate", "tarn",
]

# Column type cycle: mostly numeric with some categorical and boolean mixed
# in, roughly the shape of the bundled tables.
_TYPE_CYCLE = ("number", "number", "string", "number", "boolean", "number", "string")

_NUM_LO = 0
_NUM_HI = 1000


def _col_type(i: int) -> str:
    return _TYPE_CYCLE[i % len(_TYPE_CYCLE)]


def synth_table(columns: int, rules: int, seed: int = 0, agg_columns: int = 0):
    """Build a parsed synthetic table with the given shape.

    `columns` counts plain inputs; `agg_columns` adds aggregate-input
    columns named agg0..agg{k-1} whose conditions are broad so aggregate
    wiring costs show up without changing which rule fires.
    """

    if columns < 1 or rules < 1 or agg_columns < 0:
        raise ValueError("table shape out of range")
    rng = random.Random(f"synthtable/{columns}/{rules}/{agg_columns}/{seed}")
    cols = [{"name": f"c{i}", "kind": "input", "type": _col_type(i)} for i in range(columns)]
    cols += [{"name": f"agg{i}", "kind": "aggregateInput", "type": "number"} for i in range(agg_columns)]
    cols.append({"name": "verdict", "kind": "output", "type": "string"})
    rule_docs = []
    for r in range(rules):
        conditions = [_narrow_cell(_col_type(i), rng) for i in range(columns)]
        conditions += ["> -1e9"] * agg_columns
        rule_docs.append({"conditions": conditions, "outputs": [f"out{r}"]})
    doc = {"name": f"Synth{columns}x{rules}", "columns": cols, "rules": rule_docs}
    return parse_decision_table(doc)


def _narrow_cell(col_type: str, rng: random.Random) -> str:
    if col_type == "number":
        lo = rng.randint(_NUM_LO, _NUM_HI - 20)
        return f"[{lo}..{lo + 20}]"
    if col_type == "string":
        word = rng.choice(_STRING_POOL)
        return f'"{word}"'
    return rng.choice(["true", "false"])


def synth_records(columns: int, count: int, seed: int = 0) -> list[Record]:
    """Records whose fields span the value ranges the table conditions draw
    from; for one width and seed, fewer records are a prefix of more."""

    rng = random.Random(f"synthrecords/{columns}/{seed}")
    out = []
    for i in range(count):
        fields = {}
        for c in range(columns):
            kind = _col_type(c)
            if kind == "number":
                fields[f"c{c}"] = rng.randint(_NUM_LO, _NUM_HI)
            elif kind == "string":
                fields[f"c{c}"] = rng.choice(_STRING_POOL)
            else:
                fields[f"c{c}"] = rng.random() < 0.5
        out.append(Record(id=f"syn-{i:07d}", fields=fields))
    return out


def synth_aggregations(agg_columns: int, columns: int):
    """One aggregation spec per aggregate column, filtering on real fields.

    Each spec does a full filtered pass over the dataset, so the cost of k
    specs scales with k; the filters select about half the records.
    """

    first_numeric = next((i for i in range(columns) if _col_type(i) == "number"), None)
    if agg_columns and first_numeric is None:
        raise ValueError("need at least one numeric column for aggregation filters")
    specs = []
    for i in range(agg_columns):
        doc = {
            "name": f"agg{i}",
            "reducer": "mean",
            "targetField": f"c{first_numeric}",
            "filter": [{"field": f"c{first_numeric}", "cell": f">= {(_NUM_HI // 2)}"}],
        }
        specs.append(parse_aggregation_spec(doc))
    return specs
