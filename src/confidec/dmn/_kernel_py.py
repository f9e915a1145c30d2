"""The row loop over the functions `confidec.dmn.program` generates.

`run_program` passes every row of the matrix to the table's functions in
order and records, per record, the index of the first rule whose tests all
hold, or STATUS_NO_MATCH, or STATUS_ERROR with the slot of the missing or
mistyped cell that aborted it. Such a cell is its slot's trapping NaN,
whose comparisons raise `AbortRecord` from inside the test that reads it,
or, for a column relation's referenced slot, a NaN the test passes to
`_abort`; either way the loop catches one exception type and every test
that reads a number runs as a float comparison.
`confidec.dmn.engine.decide_record` states the same semantics one condition
at a time; the tests hold the two to the same answers.
"""

from __future__ import annotations

from typing import List, Sequence

from confidec.dmn.program import (
    STATUS_ERROR,
    STATUS_NO_MATCH,
    AbortRecord,
    CompiledTable,
)


def run_program(
    rows: Sequence[Sequence[float]],
    ct: CompiledTable,
    out_status: List[int],
    out_errcol: List[int],
) -> None:
    functions = ct.functions
    for i, row in enumerate(rows):
        status = STATUS_NO_MATCH
        errcol = -1
        try:
            for function in functions:
                hit = function(row)
                if hit is not None:
                    status = hit
                    break
        except AbortRecord as abort:
            status = STATUS_ERROR
            errcol = abort.args[0]
        out_status[i] = status
        out_errcol[i] = errcol
