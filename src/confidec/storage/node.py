"""A storage node bundles blobs, the notarization chain and its name index.

This is the untrusted persistence layer: everything it holds is either
ciphertext or a chain entry. The chain is the only record of which address
a name is bound to; the name index is rebuilt from it.
"""

from __future__ import annotations

from pathlib import Path

from confidec.storage.chain import NotarizationLog
from confidec.storage.names import NameRegistry
from confidec.storage.store import BlobStore, DirectoryBlobStore, MemoryBlobStore


class StorageNode:
    def __init__(self, blobs: BlobStore, names: NameRegistry, chain: NotarizationLog):
        self.blobs = blobs
        self.names = names
        self.chain = chain
        for entry in chain.entries():
            names.publish(entry.name, entry.address)

    @classmethod
    def in_memory(cls) -> "StorageNode":
        return cls(MemoryBlobStore(), NameRegistry(), NotarizationLog())

    @classmethod
    def at_directory(cls, root: str | Path) -> "StorageNode":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        return cls(
            DirectoryBlobStore(root / "blobs"),
            NameRegistry(),
            NotarizationLog(root / "chain.jsonl"),
        )

    def publish(self, name: str, data: bytes) -> str:
        """Store a blob, notarize the name's binding to it, then bind the
        name: a failed write leaves the name where the chain has it."""
        address = self.blobs.put(data)
        self.chain.notarize(name, address)
        self.names.publish(name, address)
        return address

    def fetch(self, name: str) -> bytes:
        return self.blobs.get(self.names.resolve(name))
