"""Hash-chained notarization log for name publications.

Every entry commits to the previous one, so editing any historical entry
breaks the chain at the first modified sequence number.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from confidec.storage.store import load_jsonl
from confidec.util import length_prefixed

GENESIS_PREV = b"\x00" * 32


@dataclass(frozen=True)
class NotarizationEntry:
    seq: int
    name: str
    address: str
    prev_hash: bytes
    entry_hash: bytes


def entry_digest(seq: int, name: str, address: str, prev_hash: bytes) -> bytes:
    payload = seq.to_bytes(8, "big") + length_prefixed(
        name.encode("utf-8"), address.encode("utf-8")
    ) + prev_hash
    return hashlib.sha256(payload).digest()


def _entry_from_obj(obj) -> NotarizationEntry:
    """A log line's entry; KeyError, TypeError or ValueError when malformed."""
    entry = NotarizationEntry(
        seq=obj["seq"],
        name=obj["name"],
        address=obj["address"],
        prev_hash=bytes.fromhex(obj["prevHash"]),
        entry_hash=bytes.fromhex(obj["entryHash"]),
    )
    if (type(entry.seq), type(entry.name), type(entry.address)) != (int, str, str):
        raise TypeError("entry field of the wrong type")
    return entry


def verify_entries(entries: Sequence[NotarizationEntry]) -> int | None:
    """Return the first bad sequence number, or None when the chain holds."""
    prev = GENESIS_PREV
    for position, entry in enumerate(entries):
        if (
            entry.seq != position
            or entry.prev_hash != prev
            or entry.entry_hash != entry_digest(entry.seq, entry.name, entry.address, entry.prev_hash)
        ):
            return entry.seq
        prev = entry.entry_hash
    return None


class NotarizationLog:
    """Append-only chained log; file-backed when a path is given."""

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: List[NotarizationEntry] = []
        if self._path is not None and self._path.exists():
            self._entries = load_jsonl(self._path, "notarization log", _entry_from_obj)

    def notarize(self, name: str, address: str) -> NotarizationEntry:
        seq = len(self._entries)
        prev = self._entries[-1].entry_hash if self._entries else GENESIS_PREV
        entry = NotarizationEntry(
            seq=seq,
            name=name,
            address=address,
            prev_hash=prev,
            entry_hash=entry_digest(seq, name, address, prev),
        )
        self._entries.append(entry)
        if self._path is not None:
            with self._path.open("a") as fh:
                fh.write(json.dumps({
                    "seq": entry.seq,
                    "name": entry.name,
                    "address": entry.address,
                    "prevHash": entry.prev_hash.hex(),
                    "entryHash": entry.entry_hash.hex(),
                }) + "\n")
                fh.flush()
        return entry

    def entries(self) -> List[NotarizationEntry]:
        return list(self._entries)

    def verify_chain(self) -> int | None:
        """Re-read the backing file when present, then verify; a malformed
        line raises StorageError."""
        if self._path is not None:
            return verify_entries(NotarizationLog(self._path).entries())
        return verify_entries(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
