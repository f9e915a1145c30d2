"""Hash-chained notarization log for name publications.

Every entry commits to the previous one, so editing any historical entry
breaks the chain at the first modified sequence number.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from confidec.errors import StorageError
from confidec.util import length_prefixed, typed_fields

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
    """A log line's entry; ValueError when malformed."""
    seq, name, address, prev_hash, entry_hash = typed_fields(
        obj, "entry", ValueError, seq=int, name=str, address=str, prevHash=str, entryHash=str
    )
    if not name:
        # a node indexes names from its chain, and publishes none empty
        raise ValueError("entry with an empty name")
    return NotarizationEntry(seq, name, address, bytes.fromhex(prev_hash), bytes.fromhex(entry_hash))


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


def _append(path: Path, data: bytes) -> None:
    """Append data to the file, or leave the file as it was and raise
    StorageError.

    The write is unbuffered, so a write that fails part-way has written
    only what the file shows; it is cut back to the length noted before it,
    and no fragment of a line stays for a reopened log to read.
    """
    try:
        with path.open("ab", buffering=0) as fh:
            end = fh.seek(0, os.SEEK_END)
            try:
                written = 0
                while written < len(data):
                    written += fh.write(data[written:])
            except OSError:
                fh.truncate(end)
                raise
    except OSError:
        raise StorageError("storage write failed") from None


class NotarizationLog:
    """Append-only chained log; file-backed when a path is given."""

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: List[NotarizationEntry] = []
        if self._path is not None and self._path.exists():
            try:
                lines = self._path.read_bytes().splitlines()
            except OSError:
                raise StorageError("storage read failed") from None
            for number, line in enumerate(lines, start=1):
                if line.strip():
                    try:
                        self._entries.append(_entry_from_obj(json.loads(line)))
                    except (RecursionError, ValueError):
                        raise StorageError(f"notarization log line {number} is malformed") from None

    def notarize(self, name: str, address: str) -> NotarizationEntry:
        if not name:
            raise StorageError("name must be non-empty")
        seq = len(self._entries)
        prev = self._entries[-1].entry_hash if self._entries else GENESIS_PREV
        entry = NotarizationEntry(
            seq=seq,
            name=name,
            address=address,
            prev_hash=prev,
            entry_hash=entry_digest(seq, name, address, prev),
        )
        if self._path is not None:
            # the line first: an entry the file lacks is never in memory
            line = json.dumps({
                "seq": entry.seq,
                "name": entry.name,
                "address": entry.address,
                "prevHash": entry.prev_hash.hex(),
                "entryHash": entry.entry_hash.hex(),
            }) + "\n"
            _append(self._path, line.encode("utf-8"))
        self._entries.append(entry)
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
