"""Content-addressed blob stores, and the reader of the JSONL files a node
keeps beside them.

An address is the lowercase hex SHA-256 of the content, so equal payloads
share one blob and any corruption is detectable on read.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Iterator, List, TypeVar

from confidec.errors import BlobNotFoundError, StorageError

T = TypeVar("T")


def blob_address(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_jsonl(path: Path, what: str, parse: Callable[[object], T]) -> List[T]:
    """Each non-blank line of path, decoded as JSON and given to parse.

    A line that is not JSON, or that parse refuses with KeyError, TypeError
    or ValueError, raises StorageError naming the line's position in what,
    and nothing the line holds.
    """
    parsed = []
    for number, line in enumerate(path.read_bytes().splitlines(), start=1):
        if line.strip():
            try:
                parsed.append(parse(json.loads(line)))
            except (KeyError, RecursionError, TypeError, ValueError):
                raise StorageError(f"{what} line {number} is malformed") from None
    return parsed


class BlobStore:
    """Interface shared by the memory and directory stores."""

    def put(self, data: bytes) -> str:
        raise NotImplementedError

    def get(self, address: str) -> bytes:
        raise NotImplementedError

    def has(self, address: str) -> bool:
        raise NotImplementedError

    def size(self, address: str) -> int:
        return len(self.get(address))

    def addresses(self) -> Iterator[str]:
        raise NotImplementedError

    def total_bytes(self) -> int:
        return sum(self.size(a) for a in self.addresses())

    def _check(self, address: str, data: bytes) -> bytes:
        if blob_address(data) != address:
            raise StorageError("blob failed its content check")
        return data


class MemoryBlobStore(BlobStore):
    def __init__(self):
        self._blobs: Dict[str, bytes] = {}

    def put(self, data: bytes) -> str:
        address = blob_address(data)
        self._blobs.setdefault(address, bytes(data))
        return address

    def get(self, address: str) -> bytes:
        try:
            data = self._blobs[address]
        except KeyError:
            raise BlobNotFoundError("no blob at the address") from None
        # _check inlined: this runs once per record on every decision
        if hashlib.sha256(data).hexdigest() != address:
            raise StorageError("blob failed its content check")
        return data

    def has(self, address: str) -> bool:
        return address in self._blobs

    def addresses(self) -> Iterator[str]:
        return iter(list(self._blobs))


class DirectoryBlobStore(BlobStore):
    """One file per blob under <root>, named by its address."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, address: str) -> Path:
        if len(address) != 64 or any(c not in "0123456789abcdef" for c in address):
            raise StorageError("not a blob address")
        return self.root / address

    def put(self, data: bytes) -> str:
        address = blob_address(data)
        path = self._path(address)
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        return address

    def get(self, address: str) -> bytes:
        path = self._path(address)
        if not path.exists():
            raise BlobNotFoundError("no blob at the address")
        return self._check(address, path.read_bytes())

    def has(self, address: str) -> bool:
        return self._path(address).exists()

    def size(self, address: str) -> int:
        path = self._path(address)
        if not path.exists():
            raise BlobNotFoundError("no blob at the address")
        return path.stat().st_size

    def addresses(self) -> Iterator[str]:
        return (p.name for p in sorted(self.root.iterdir()) if len(p.name) == 64)
