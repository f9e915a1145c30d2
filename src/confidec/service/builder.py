"""Build decision services from a policy, a table and aggregation specs.

A service couples one guarded function with everything needed to run it:
the access condition, the decision table lowered once when the service is
built, and the aggregations it may evaluate, in policy declaration order.
handle_decision executes the fixed handler skeleton; emit_audit_script prints
that skeleton for review.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Protocol, Sequence, Tuple

from confidec.dmn.aggregate import evaluate_aggregate
from confidec.dmn.engine import decide_records, encode_batch
from confidec.dmn.model import AggregationSpec, DecisionTable
from confidec.dmn.program import STATUS_NO_MATCH, CompiledTable, compile_table
from confidec.errors import DecisionRejected, ServiceBuildError
from confidec.policy.alfa import format_expr
from confidec.policy.model import PolicySpec, check_access
from confidec.util import canonical_json

REJECT_CERTIFICATE = "Invalid certificate"
REJECT_POLICY = "Access policy not satisfied"


@dataclass(frozen=True)
class DecisionService:
    spec: PolicySpec
    program: CompiledTable

    @property
    def func_name(self) -> str:
        return self.spec.func_name

    @property
    def data_name(self) -> str:
        return self.spec.data_name


@dataclass
class OpenedRecords:
    """Records a unit opened: their ids and, per field of a structure's
    layout, the column of their values (None for an absent field).

    `bodies` holds, per function that decided over the records, its
    decision body. A unit that keeps the records for later decisions keeps
    these with them: a body depends only on the function's program and the
    records, so each function decides over a kept version once.
    """

    ids: Sequence[str]
    columns: Sequence[Sequence[object]]
    bodies: Dict[str, bytes] = field(default_factory=dict)


class HandlerEnv(Protocol):
    """Capabilities the enclosing unit grants to a decision handler."""

    def decrypt_data(self, data_name: str, structure: str) -> OpenedRecords:
        """Fetch and decrypt the records published under data_name, in the
        structure's layout."""

    def trace(self, step: str) -> None:
        """Record that a handler step ran."""


def build_desobj(
    policy: PolicySpec,
    table: DecisionTable,
    agg_specs: Sequence[AggregationSpec],
    layout: Tuple[str, ...] | None = None,
) -> DecisionService:
    """Validate that policy, table and aggregations fit, lower the table and
    the aggregations over records in the given layout, and bind them.

    layout defaults to the sorted fields the table and aggregations read; a
    unit passes the one its structure's stored records use.
    """
    if policy.func_name != table.name:
        raise ServiceBuildError(
            f"policy guards {policy.func_name!r} but the table is {table.name!r}"
        )

    by_name: Dict[str, AggregationSpec] = {}
    for spec in agg_specs:
        if spec.name in by_name:
            raise ServiceBuildError(f"aggregation {spec.name!r} defined twice")
        by_name[spec.name] = spec

    ordered: List[AggregationSpec] = []
    for name in policy.agg_names:
        if name not in by_name:
            raise ServiceBuildError(f"policy names unknown aggregation {name!r}")
        ordered.append(by_name[name])

    table_aggs = {c.name for c in table.aggregate_columns}
    declared = set(policy.agg_names)
    if table_aggs != declared:
        missing = sorted(table_aggs - declared)
        extra = sorted(declared - table_aggs)
        raise ServiceBuildError(
            f"table {table.name!r} aggregate inputs do not match the policy "
            f"(missing {missing}, extra {extra})"
        )

    try:
        program = compile_table(table, tuple(ordered), layout)
    except ValueError as exc:
        raise ServiceBuildError(f"table {table.name!r}: {exc}") from exc
    return DecisionService(spec=policy, program=program)


def handle_decision(
    service: DecisionService,
    attributes: Mapping[str, str] | None,
    data_name: str,
    env: HandlerEnv,
) -> bytes:
    """Run a service's guarded handler for a caller with the given
    certificate attributes (None if its certificate failed), over the records
    published under data_name; returns the decision body (`decision_body`).

    Steps run in a fixed order; certificate and policy failures raise
    DecisionRejected with the canonical message before any data is read.
    """
    env.trace("ParseDecisionReq")

    env.trace("CheckCertificate")
    if attributes is None:
        raise DecisionRejected(REJECT_CERTIFICATE)

    env.trace("CheckCallability")
    if not check_access(service.spec.condition, attributes):
        raise DecisionRejected(REJECT_POLICY)

    env.trace("DecryptData")
    program = service.program
    records = env.decrypt_data(data_name, service.data_name)

    # records the unit kept may hold this function's body already, from a
    # decision that ran every step; the steps are traced alike either way
    body = records.bodies.get(service.func_name)
    if body is None:
        batch = encode_batch(program, records.ids, records.columns)
        aggregates: Dict[str, float] = {}
        for agg in program.aggregations:
            env.trace(f"Aggregate {agg.name}")
            aggregates[agg.name] = evaluate_aggregate(agg, batch)
        env.trace("Decide")
        hits = decide_records(program, batch, aggregates)
        env.trace("Return")
        body = decision_body(service.func_name, program, canonical_json(records.ids), hits)
        records.bodies[service.func_name] = body
    else:
        for agg in program.aggregations:
            env.trace(f"Aggregate {agg.name}")
        env.trace("Decide")
        env.trace("Return")
    return body


def _outputs_and_k(program: CompiledTable, hits: Sequence[int]) -> Tuple[List[list], List[int]]:
    """Each distinct output tuple that fired, once, in first-hit order, and
    per hit its index into them, or -1 for no match."""
    rules = program.table.rules
    outputs: List[list] = []
    index_of: Dict[bytes, int] = {}
    k_of_hit = {STATUS_NO_MATCH: -1}
    for hit in dict.fromkeys(hits):
        if hit not in k_of_hit:
            values = list(rules[hit].outputs)
            key = canonical_json(values)  # 1, 1.0 and true stay apart
            if key not in index_of:
                index_of[key] = len(outputs)
                outputs.append(values)
            k_of_hit[hit] = index_of[key]
    return outputs, [k_of_hit[hit] for hit in hits]


def compact_results(
    func_name: str, program: CompiledTable, ids: Sequence[str], hits: Sequence[int]
) -> dict:
    """The response body of a decision.

    `outputs` holds each distinct output tuple that fired, once, in first-hit
    order; `ids` holds the record ids and `k`, in the same order, one index
    per record into `outputs`, or -1 for no match. Rules with equal outputs
    share an index, so the body says nothing about the table beyond the
    answers.
    """
    outputs, k = _outputs_and_k(program, hits)
    return {"funcName": func_name, "outputs": outputs, "ids": ids, "k": k}


def decision_body(
    func_name: str, program: CompiledTable, ids_json: bytes, hits: Sequence[int]
) -> bytes:
    """`canonical_json(compact_results(func_name, program, ids, hits))`, byte
    for byte, given ids_json = `canonical_json(ids)`: the keys in sorted
    order around each value's own canonical JSON, which is the same inside
    the object as alone."""
    outputs, k = _outputs_and_k(program, hits)
    return b"".join((
        b'{"funcName":', canonical_json(func_name),
        b',"ids":', ids_json,
        b',"k":', canonical_json(k),
        b',"outputs":', canonical_json(outputs),
        b"}",
    ))


def emit_audit_script(policy: PolicySpec) -> str:
    """Render the handler a policy compiles to, for offline review.

    Deterministic: equal policies always print the same script.
    """
    name = policy.func_name
    lines = [
        f"func {name}Handler(payload) {{",
        "    (cert, func, dataName) <- DecisionLib.ParseDecisionReq(payload)",
        "    (certVal, attr) <- DecisionLib.CheckCertificate(cert)",
        "    if certVal == true {",
        f"        calVal <- DecisionLib.CheckCallability({format_expr(policy.condition)}, attr)",
        "        if calVal == true {",
        f"            data <- DecisionLib.DecryptData(dataName, {policy.data_name})",
        "            aggrInputs <- []",
    ]
    for agg_name in policy.agg_names:
        lines.append(f"            aggrVar <- DecisionLib.Aggregate({agg_name}, data)")
        lines.append("            aggrInputs <- Append(aggrInputs, aggrVar)")
    lines += [
        f"            decision <- {name}(data, aggrInputs)",
        "            return decision",
        "        } else {",
        f'            except "{REJECT_POLICY}"',
        "        }",
        "    } else {",
        f'        except "{REJECT_CERTIFICATE}"',
        "    }",
        "}",
    ]
    return "\n".join(lines) + "\n"
