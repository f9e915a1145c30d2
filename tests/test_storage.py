"""Content-addressed blobs, mutable names, and the notarization chain."""

import dataclasses
import errno
import hashlib
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from conftest import disk_full
from confidec.errors import BlobNotFoundError, NameNotFoundError, StorageError
from confidec.storage.chain import (
    GENESIS_PREV,
    NotarizationLog,
    entry_digest,
    verify_entries,
)
from confidec.storage.names import NameRegistry
from confidec.storage.node import StorageNode
from confidec.storage.store import DirectoryBlobStore, MemoryBlobStore, blob_address


def test_blob_address_is_sha256_hex():
    assert blob_address(b"records") == hashlib.sha256(b"records").hexdigest()
    assert blob_address(b"") == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("make_store", [MemoryBlobStore, lambda: None], ids=["memory", "directory"])
def test_store_put_get_round_trip(make_store, tmp_path):
    store = make_store() or DirectoryBlobStore(tmp_path)
    address = store.put(b"alpha")
    assert store.get(address) == b"alpha"


@pytest.mark.parametrize("make_store", [MemoryBlobStore, lambda: None], ids=["memory", "directory"])
def test_equal_payloads_share_one_blob(make_store, tmp_path):
    store = make_store() or DirectoryBlobStore(tmp_path)
    first = store.put(b"dup")
    second = store.put(b"dup")
    third = store.put(b"other")
    assert first == second != third
    assert sorted(store.addresses()) == sorted({first, third})


@pytest.mark.parametrize("make_store", [MemoryBlobStore, lambda: None], ids=["memory", "directory"])
def test_missing_blob_raises(make_store, tmp_path):
    store = make_store() or DirectoryBlobStore(tmp_path)
    with pytest.raises(BlobNotFoundError):
        store.get(blob_address(b"never stored"))


def test_directory_store_rejects_non_addresses(tmp_path):
    store = DirectoryBlobStore(tmp_path)
    with pytest.raises(StorageError):
        store.get("../../etc/passwd")
    with pytest.raises(StorageError):
        store.get("abc")


def test_memory_store_detects_corrupted_blob():
    store = MemoryBlobStore()
    address = store.put(b"pristine")
    store._blobs[address] = b"tampered"
    with pytest.raises(StorageError, match="failed its content check") as raised:
        store.get(address)
    assert address not in str(raised.value)


def test_directory_store_detects_corrupted_blob(tmp_path):
    store = DirectoryBlobStore(tmp_path)
    address = store.put(b"pristine")
    (tmp_path / address).write_bytes(b"tampered")
    with pytest.raises(StorageError, match="content check"):
        store.get(address)


def test_directory_store_persists_across_instances(tmp_path):
    address = DirectoryBlobStore(tmp_path).put(b"durable")
    reopened = DirectoryBlobStore(tmp_path)
    assert reopened.get(address) == b"durable"
    assert list(reopened.addresses()) == [address]


def test_the_latest_binding_of_a_name_wins():
    names = NameRegistry()
    names.publish("vax/patients", "a" * 64)
    names.publish("vax/patients", "b" * 64)
    names.publish("vax/centers", "c" * 64)
    assert names.resolve("vax/patients") == "b" * 64
    assert names.resolve("vax/centers") == "c" * 64


def test_unpublished_name_raises():
    with pytest.raises(NameNotFoundError):
        NameRegistry().resolve("ghost")


def test_empty_name_rejected():
    with pytest.raises(StorageError):
        NameRegistry().publish("", "a" * 64)
    node = StorageNode.in_memory()
    with pytest.raises(StorageError):
        node.publish("", b"data")
    assert len(node.chain) == 0


LINE_DAMAGE = {
    "missing-key": lambda obj, key: json.dumps({k: v for k, v in obj.items() if k != key}),
    "wrong-type": lambda obj, key: json.dumps(dict(obj, **{key: [obj[key]]})),
    "bad-hex": lambda obj, key: json.dumps(dict(obj, **{key: "zz"})),
    "empty": lambda obj, key: json.dumps(dict(obj, **{key: ""})),
    "not-an-object": lambda obj, key: json.dumps(list(obj.values())),
    "truncated": lambda obj, key: json.dumps(obj)[:20],
}


def _line_damage(keys, hex_keys=()):
    """(damage, key) cases: each key dropped or retyped, each hex key not hex,
    and two that spoil the whole line."""
    return (
        [(damage, key) for damage in ("missing-key", "wrong-type") for key in keys]
        + [("bad-hex", key) for key in hex_keys]
        + [("not-an-object", None), ("truncated", None)]
    )


def _damage_second_line(path, damage, key):
    lines = path.read_text().splitlines()
    lines[1] = LINE_DAMAGE[damage](json.loads(lines[1]), key)
    path.write_text("\n".join(lines) + "\n")


def test_chain_links_from_genesis():
    log = NotarizationLog()
    e0 = log.notarize("n0", "a" * 64)
    e1 = log.notarize("n1", "b" * 64)
    assert (e0.seq, e1.seq) == (0, 1)
    assert e0.prev_hash == GENESIS_PREV
    assert e1.prev_hash == e0.entry_hash
    assert e0.entry_hash == entry_digest(0, "n0", "a" * 64, GENESIS_PREV)
    assert log.verify_chain() is None
    assert verify_entries([]) is None


@pytest.mark.parametrize("field,value", [
    ("name", "evil"),
    ("address", "f" * 64),
    ("prev_hash", b"\x01" * 32),
    ("entry_hash", b"\x02" * 32),
])
def test_single_field_tampering_detected_at_that_entry(field, value):
    log = NotarizationLog()
    for i in range(6):
        log.notarize(f"n{i}", blob_address(str(i).encode()))
    entries = log.entries()
    entries[3] = dataclasses.replace(entries[3], **{field: value})
    assert verify_entries(entries) == 3


def test_reordered_entries_detected_at_first_displacement():
    log = NotarizationLog()
    for i in range(4):
        log.notarize(f"n{i}", blob_address(str(i).encode()))
    entries = log.entries()
    entries[1], entries[2] = entries[2], entries[1]
    assert verify_entries(entries) == 2  # entry with seq 2 sits at position 1


def test_truncated_head_detected():
    log = NotarizationLog()
    for i in range(4):
        log.notarize(f"n{i}", blob_address(str(i).encode()))
    assert verify_entries(log.entries()[1:]) == 1


def test_chain_file_round_trip_and_reverification(tmp_path):
    path = tmp_path / "chain.jsonl"
    log = NotarizationLog(path)
    log.notarize("a", "1" * 64)
    log.notarize("b", "2" * 64)
    assert NotarizationLog(path).entries() == log.entries()
    assert log.verify_chain() is None

    # verify_chain re-reads the file, so edits behind our back are caught
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[0]["address"] = "9" * 64
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    assert log.verify_chain() == 0


def test_a_notarization_log_skips_blank_lines_and_keeps_line_order(tmp_path):
    path = tmp_path / "chain.jsonl"
    log = NotarizationLog(path)
    for i in range(3):
        log.notarize(f"n{i}", blob_address(str(i).encode()))
    first, second, third = path.read_bytes().splitlines()
    path.write_bytes(first + b"\n\n  \n" + second + b"\r\n" + third)
    assert NotarizationLog(path).entries() == log.entries()
    assert log.verify_chain() is None


@pytest.mark.parametrize("line", [
    b'{"secret": 1',
    b"secret",
    b'"\xff\xfe secret"',
    b"[" * 100_000,
], ids=["truncated", "bare-word", "not-utf8", "too-deep"])
def test_a_notarization_log_line_that_is_not_json_is_a_storage_error(tmp_path, line):
    """Blank lines count toward the position; the error holds nothing of
    the line."""
    path = tmp_path / "chain.jsonl"
    log = NotarizationLog(path)
    log.notarize("n0", "1" * 64)
    log.notarize("n1", "2" * 64)
    first, second = path.read_bytes().splitlines()
    path.write_bytes(first + b"\n\n" + line + b"\n" + second + b"\n")
    with pytest.raises(StorageError) as refused:
        NotarizationLog(path)
    assert str(refused.value) == "notarization log line 3 is malformed"
    assert refused.value.__cause__ is None and refused.value.__suppress_context__


@pytest.mark.parametrize("damage, key", _line_damage(
    ["seq", "name", "address", "prevHash", "entryHash"], hex_keys=["prevHash", "entryHash"]
) + [("empty", "name")])
def test_a_malformed_notarization_log_line_is_a_storage_error(tmp_path, damage, key):
    path = tmp_path / "chain.jsonl"
    log = NotarizationLog(path)
    log.notarize("secret-name", "1" * 64)
    log.notarize("secret-name", "2" * 64)
    _damage_second_line(path, damage, key)
    for load in (lambda: NotarizationLog(path), log.verify_chain):
        with pytest.raises(StorageError) as refused:
            load()
        assert str(refused.value) == "notarization log line 2 is malformed"


def test_a_notarization_log_line_whose_seq_is_a_boolean_is_malformed(tmp_path):
    """JSON `true` loads as a bool, which equals 1 and hashes as 1; a line
    takes exact types, so it does not pass as sequence number 1."""
    path = tmp_path / "chain.jsonl"
    log = NotarizationLog(path)
    log.notarize("secret-name", "1" * 64)
    log.notarize("secret-name", "2" * 64)
    first, second = path.read_text().splitlines()
    path.write_text(first + "\n" + json.dumps(dict(json.loads(second), seq=True)) + "\n")
    with pytest.raises(StorageError, match="^notarization log line 2 is malformed$"):
        NotarizationLog(path)


def test_node_publish_binds_and_notarizes():
    node = StorageNode.in_memory()
    address = node.publish("dataset", b"ciphertext-1")
    assert node.fetch("dataset") == b"ciphertext-1"
    assert node.names.resolve("dataset") == address == blob_address(b"ciphertext-1")

    node.publish("dataset", b"ciphertext-2")
    assert node.fetch("dataset") == b"ciphertext-2"
    assert [e.name for e in node.chain.entries()] == ["dataset", "dataset"]
    assert node.chain.verify_chain() is None
    # the first blob stays put: addresses are immutable, names move
    assert node.blobs.get(address) == b"ciphertext-1"


def test_node_directory_layout_round_trip(tmp_path):
    node = StorageNode.at_directory(tmp_path)
    node.publish("dataset", b"payload")
    again = StorageNode.at_directory(tmp_path)
    assert again.fetch("dataset") == b"payload"
    assert again.chain.verify_chain() is None
    assert len(again.chain) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs", "chain.jsonl"]


def test_a_reopened_node_resolves_each_name_to_its_latest_chain_entry(tmp_path):
    node = StorageNode.at_directory(tmp_path)
    names = ("vax/patients", "vax/centers", "vax/patients.full")
    for version in range(3):
        for name in names:
            node.publish(name, f"{name} v{version}".encode())
    again = StorageNode.at_directory(tmp_path)
    latest = {entry.name: entry.address for entry in again.chain.entries()}
    assert len(again.chain) == 9 and sorted(latest) == sorted(names)
    for name, address in latest.items():
        assert again.names.resolve(name) == address
        assert again.fetch(name) == f"{name} v2".encode()


@pytest.mark.parametrize("leftover", ["stale", "malformed"])
def test_a_leftover_name_registry_file_is_neither_read_nor_written(tmp_path, leftover):
    """Names were once also kept in `names.jsonl`; the chain alone binds them."""
    node = StorageNode.at_directory(tmp_path)
    first = node.publish("dataset", b"v1")
    node.publish("dataset", b"v2")
    line = {
        "stale": json.dumps({"name": "dataset", "address": first, "version": 3}),
        "malformed": '{"name": "dataset", "addr',
    }[leftover]
    leftover_path = tmp_path / "names.jsonl"
    leftover_path.write_text(line + "\n")
    again = StorageNode.at_directory(tmp_path)
    assert again.fetch("dataset") == b"v2"
    again.publish("dataset", b"v3")
    assert StorageNode.at_directory(tmp_path).fetch("dataset") == b"v3"
    assert leftover_path.read_text() == line + "\n"


# --- storage faults -------------------------------------------------------------


def test_a_failed_chain_write_leaves_the_node_and_its_file_in_step(tmp_path):
    """The line is written first, then the entry kept, then the name bound:
    after one failed write the live node still answers the notarized v1, and
    the next publication takes the sequence number the file expects."""
    node = StorageNode.at_directory(tmp_path)
    node.publish("dataset", b"v1")
    with disk_full(where=lambda path: path.name == "chain.jsonl"):
        with pytest.raises(StorageError, match="^storage write failed$"):
            node.publish("dataset", b"v2")
    assert node.fetch("dataset") == b"v1" and len(node.chain) == 1
    node.publish("other", b"w1")

    again = StorageNode.at_directory(tmp_path)
    assert again.chain.verify_chain() is None
    assert again.fetch("dataset") == b"v1"
    assert [entry.name for entry in again.chain.entries()] == ["dataset", "other"]


class _HalfWriter:
    """A file whose first write puts half its bytes on disk and then fails
    as on a full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._failed = False

    def write(self, data):
        if self._failed:
            return self._fh.write(data)
        self._failed = True
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_a_chain_write_that_fails_part_way_leaves_no_fragment(tmp_path):
    node = StorageNode.at_directory(tmp_path)
    node.publish("dataset", b"v1")
    chain_file = tmp_path / "chain.jsonl"
    before = chain_file.read_bytes()
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return _HalfWriter(fh) if path == chain_file and "a" in mode else fh

    with mock.patch.object(Path, "open", open_):
        with pytest.raises(StorageError, match="^storage write failed$"):
            node.publish("dataset", b"v2")
    assert chain_file.read_bytes() == before
    assert node.chain.verify_chain() is None and len(node.chain) == 1
    again = StorageNode.at_directory(tmp_path)
    assert again.chain.verify_chain() is None and len(again.chain) == 1
    assert again.fetch("dataset") == node.fetch("dataset") == b"v1"


def test_a_failed_blob_write_is_a_storage_error_naming_no_path(tmp_path):
    store = DirectoryBlobStore(tmp_path / "SECRET-store")
    with disk_full():
        with pytest.raises(StorageError) as failed:
            store.put(b"data")
    assert str(failed.value) == "storage write failed"
    assert list(store.addresses()) == []


def test_unreadable_storage_files_are_storage_errors_naming_no_path(tmp_path):
    """A directory where a blob or the chain file should be cannot be read."""
    store = DirectoryBlobStore(tmp_path / "SECRET-blobs")
    address = blob_address(b"data")
    (store.root / address).mkdir()
    with pytest.raises(StorageError) as failed:
        store.get(address)
    assert str(failed.value) == "storage read failed"

    (tmp_path / "SECRET-chain").mkdir()
    with pytest.raises(StorageError) as failed:
        NotarizationLog(tmp_path / "SECRET-chain")
    assert str(failed.value) == "storage read failed"
