"""Code measurement for deployable bundles.

A bundle is everything that defines a unit's behaviour: the policy
descriptor, the decision tables, the aggregation specs and the engine
version tag. Its measurement is the SHA-256 of the length-prefixed parts,
so any change to any part yields a different identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from confidec import ENGINE_TAG
from confidec.util import canonical_json, length_prefixed


@dataclass(frozen=True)
class CodeBundle:
    policy_text: str
    tables_json: str
    aggregations_json: str
    engine_tag: str = ENGINE_TAG

    @classmethod
    def assemble(
        cls,
        policy_text: str,
        table_docs: Sequence[Mapping],
        aggregation_docs: Sequence[Mapping] = (),
    ) -> "CodeBundle":
        """Pack documents into canonical JSON so equal content measures equal."""
        return cls(
            policy_text=policy_text,
            tables_json=canonical_json(list(table_docs)).decode("utf-8"),
            aggregations_json=canonical_json(list(aggregation_docs)).decode("utf-8"),
        )

    def table_docs(self) -> list:
        return json.loads(self.tables_json)

    def aggregation_docs(self) -> list:
        return json.loads(self.aggregations_json)

    def canonical_bytes(self) -> bytes:
        return length_prefixed(
            self.policy_text.encode("utf-8"),
            self.tables_json.encode("utf-8"),
            self.aggregations_json.encode("utf-8"),
            self.engine_tag.encode("utf-8"),
        )


def compute_measurement(bundle: CodeBundle) -> bytes:
    return hashlib.sha256(bundle.canonical_bytes()).digest()
