"""Content-addressed blob stores.

An address is the lowercase hex SHA-256 of the content, so equal payloads
share one blob and any corruption is detectable on read.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Iterator

from confidec.errors import BlobNotFoundError, StorageError


def blob_address(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """Interface shared by the memory and directory stores."""

    def put(self, data: bytes) -> str:
        raise NotImplementedError

    def get(self, address: str) -> bytes:
        raise NotImplementedError

    def addresses(self) -> Iterator[str]:
        raise NotImplementedError

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
        return self._check(address, data)

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
            try:
                tmp.write_bytes(data)
                os.replace(tmp, path)
            except OSError:
                raise StorageError("storage write failed") from None
        return address

    def get(self, address: str) -> bytes:
        try:
            data = self._path(address).read_bytes()
        except FileNotFoundError:
            raise BlobNotFoundError("no blob at the address") from None
        except OSError:
            raise StorageError("storage read failed") from None
        return self._check(address, data)

    def addresses(self) -> Iterator[str]:
        return (p.name for p in sorted(self.root.iterdir()) if len(p.name) == 64)
