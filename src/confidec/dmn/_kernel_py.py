"""The kernel: a table's generated row loop over an encoded batch.

`run_program` runs the row loop `confidec.dmn.program` generates for a table
over the rows of the slots it reads (`Batch.rows`), given the values of the
table's aggregate inputs, and returns, per row, the index of the first rule
whose tests all hold, or STATUS_NO_MATCH. A missing
or mistyped cell stops the batch: it is its slot's trapping NaN, whose
comparisons raise `AbortRecord(slot)` from inside the test that reads it,
or, for a column relation's referenced slot, a NaN the test passes to
`_abort`; either way the loop stops at one exception type, `run_program`
raises `AbortRecord(slot, row)` for that first row, and every test that
reads a number runs as a float comparison.
`confidec.dmn.engine.decide_record` states the same semantics one condition
at a time; the tests hold the two to the same answers.
"""

from __future__ import annotations

from typing import List, Sequence

from confidec.dmn.program import AbortRecord, Batch, CompiledTable


def run_program(batch: Batch, ct: CompiledTable, aggregates: Sequence[float] = ()) -> List[int]:
    """aggregates holds the value of each aggregate input the table reads,
    in the order of `ct.aggregate_slots`."""
    hits: List[int] = []
    try:
        ct.run(batch.rows(ct.reads), hits.append, *aggregates)
    except AbortRecord as abort:
        # the rows before it each appended their hit
        raise AbortRecord(abort.args[0], len(hits)) from None
    return hits
