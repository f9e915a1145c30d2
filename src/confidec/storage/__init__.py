"""Content-addressed blobs, mutable names, and a notarization chain."""

from confidec.storage.store import BlobStore, DirectoryBlobStore, MemoryBlobStore, blob_address
from confidec.storage.names import NameRegistry
from confidec.storage.chain import NotarizationEntry, NotarizationLog, verify_entries
from confidec.storage.node import StorageNode

__all__ = [
    "BlobStore",
    "DirectoryBlobStore",
    "MemoryBlobStore",
    "blob_address",
    "NameRegistry",
    "NotarizationEntry",
    "NotarizationLog",
    "verify_entries",
    "StorageNode",
]
