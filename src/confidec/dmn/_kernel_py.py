"""The row loop over the functions `confidec.dmn.program` generates.

`run_program` passes every row of the matrix to the table's functions in
order and returns, per row, the index of the first rule whose tests all
hold, or STATUS_NO_MATCH. A missing or mistyped cell stops the batch: it is
its slot's trapping NaN, whose comparisons raise `AbortRecord(slot)` from
inside the test that reads it, or, for a column relation's referenced slot,
a NaN the test passes to `_abort`; either way the loop catches one exception
type, raises `AbortRecord(slot, row)` for the first such row, and every test
that reads a number runs as a float comparison.
`confidec.dmn.engine.decide_record` states the same semantics one condition
at a time; the tests hold the two to the same answers.
"""

from __future__ import annotations

from typing import List, Sequence

from confidec.dmn.program import STATUS_NO_MATCH, AbortRecord, CompiledTable


def run_program(rows: Sequence[Sequence[float]], ct: CompiledTable) -> List[int]:
    functions = ct.functions
    hits = []
    for i, row in enumerate(rows):
        try:
            for function in functions:
                hit = function(row)
                if hit is not None:
                    break
            else:
                hit = STATUS_NO_MATCH
        except AbortRecord as abort:
            raise AbortRecord(abort.args[0], i) from None
        hits.append(hit)
    return hits
