"""Mutable names pointing at immutable blob addresses."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from confidec.errors import NameNotFoundError, StorageError
from confidec.storage.store import load_jsonl


@dataclass(frozen=True)
class NameRecord:
    name: str
    address: str
    version: int


def _record_from_obj(obj) -> NameRecord:
    """A registry line's record; KeyError or TypeError when malformed."""
    record = NameRecord(obj["name"], obj["address"], obj["version"])
    if (type(record.name), type(record.address), type(record.version)) != (str, str, int):
        raise TypeError("record field of the wrong type")
    return record


class NameRegistry:
    """Append-only name registry; the latest version of a name wins.

    Backed by a JSONL file when a path is given, otherwise in memory.
    Single-writer: concurrent publishers are outside the contract.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._latest: Dict[str, NameRecord] = {}
        self._records: List[NameRecord] = []
        if self._path is not None and self._path.exists():
            for record in load_jsonl(self._path, "name registry", _record_from_obj):
                self._append(record)

    def _append(self, record: NameRecord) -> None:
        self._records.append(record)
        self._latest[record.name] = record

    def publish(self, name: str, address: str) -> NameRecord:
        """Bind name to address; versions of one name increase from 1."""
        if not name:
            raise StorageError("name must be non-empty")
        prior = self._latest.get(name)
        record = NameRecord(name, address, (prior.version if prior else 0) + 1)
        self._append(record)
        if self._path is not None:
            with self._path.open("a") as fh:
                fh.write(json.dumps({
                    "name": record.name,
                    "address": record.address,
                    "version": record.version,
                }) + "\n")
                fh.flush()
        return record

    def resolve(self, name: str) -> str:
        """Address currently bound to name."""
        record = self._latest.get(name)
        if record is None:
            raise NameNotFoundError("name was never published")
        return record.address

    def latest(self, name: str) -> NameRecord:
        record = self._latest.get(name)
        if record is None:
            raise NameNotFoundError("name was never published")
        return record

    def known_names(self) -> List[str]:
        return sorted(self._latest)

    def history(self) -> List[NameRecord]:
        return list(self._records)
