"""The evaluator of the opcode program built by `confidec.dmn.program`.

`run_program` walks every record through the rules in order and records,
per record, the index of the first rule whose ops all hold, or
STATUS_NO_MATCH, or STATUS_ERROR with the slot of the NaN cell that
stopped it. `confidec.dmn.engine.decide_record` states the same semantics
one condition at a time; the tests hold the two to the same answers.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from confidec.dmn.program import (
    OP_BOOL,
    OP_COL_GE,
    OP_COL_GT,
    OP_COL_LE,
    OP_COL_LT,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_INTERVAL,
    OP_LE,
    OP_LT,
    OP_SET,
    STATUS_ERROR,
    STATUS_NO_MATCH,
    CompiledTable,
)

isnan = math.isnan


def run_program(
    rows: Sequence[Sequence[float]],
    ct: CompiledTable,
    out_status: List[int],
    out_errcol: List[int],
) -> None:
    n_rules = ct.n_rules
    rule_starts = ct.rule_starts
    op_code = ct.op_code
    op_col = ct.op_col
    op_a = ct.op_a
    op_b = ct.op_b
    op_flags = ct.op_flags
    op_ref = ct.op_ref
    op_len = ct.op_len
    set_codes = ct.set_codes
    for i, row in enumerate(rows):
        out_status[i] = STATUS_NO_MATCH
        out_errcol[i] = -1
        err = False
        ok = True
        for r in range(n_rules):
            ok = True
            for k in range(rule_starts[r], rule_starts[r + 1]):
                col = op_col[k]
                v = row[col]
                if isnan(v):
                    out_status[i] = STATUS_ERROR
                    out_errcol[i] = col
                    err = True
                    break
                code = op_code[k]
                a = op_a[k]
                if code == OP_LT:
                    ok = v < a
                elif code == OP_LE:
                    ok = v <= a
                elif code == OP_GT:
                    ok = v > a
                elif code == OP_GE:
                    ok = v >= a
                elif code == OP_EQ:
                    ok = v == a
                elif code == OP_INTERVAL:
                    fl = op_flags[k]
                    b = op_b[k]
                    ok = (v > a if fl & 1 else v >= a) and (v < b if fl & 2 else v <= b)
                elif code == OP_SET:
                    ok = False
                    for s in range(op_ref[k], op_ref[k] + op_len[k]):
                        if set_codes[s] == v:
                            ok = True
                            break
                elif code == OP_BOOL:
                    ok = v == a
                else:
                    ref = row[op_ref[k]]
                    if isnan(ref):
                        out_status[i] = STATUS_ERROR
                        out_errcol[i] = op_ref[k]
                        err = True
                        break
                    ref *= a
                    if code == OP_COL_LT:
                        ok = v < ref
                    elif code == OP_COL_LE:
                        ok = v <= ref
                    elif code == OP_COL_GT:
                        ok = v > ref
                    else:
                        ok = v >= ref
                if not ok:
                    break
            if err:
                break
            if ok:
                out_status[i] = r
                break
