"""Names pointing at immutable blob addresses, indexed from the chain."""

from __future__ import annotations

from typing import Dict

from confidec.errors import NameNotFoundError, StorageError


class NameRegistry:
    """In-memory index over a notarization chain: each name's latest address.

    The chain is the only persisted record of name bindings; a node rebuilds
    this index from its chain's entries, in order, when it is built.
    """

    def __init__(self):
        self._latest: Dict[str, str] = {}

    def publish(self, name: str, address: str) -> None:
        """Bind name to address, replacing any earlier binding."""
        if not name:
            raise StorageError("name must be non-empty")
        self._latest[name] = address

    def resolve(self, name: str) -> str:
        """Address currently bound to name."""
        try:
            return self._latest[name]
        except KeyError:
            raise NameNotFoundError("name was never published") from None
