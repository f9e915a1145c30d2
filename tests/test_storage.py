"""Content-addressed blobs, mutable names, and the notarization chain."""

import dataclasses
import hashlib
import json

import pytest

from confidec.errors import BlobNotFoundError, NameNotFoundError, StorageError
from confidec.storage.chain import (
    GENESIS_PREV,
    NotarizationLog,
    entry_digest,
    verify_entries,
)
from confidec.storage.names import NameRegistry
from confidec.storage.node import StorageNode
from confidec.storage.store import (
    DirectoryBlobStore,
    MemoryBlobStore,
    blob_address,
    load_jsonl,
)


def test_blob_address_is_sha256_hex():
    assert blob_address(b"records") == hashlib.sha256(b"records").hexdigest()
    assert blob_address(b"") == hashlib.sha256(b"").hexdigest()


@pytest.mark.parametrize("make_store", [MemoryBlobStore, lambda: None], ids=["memory", "directory"])
def test_store_put_get_round_trip(make_store, tmp_path):
    store = make_store() or DirectoryBlobStore(tmp_path)
    address = store.put(b"alpha")
    assert store.get(address) == b"alpha"
    assert store.has(address)
    assert store.size(address) == 5
    assert not store.has(blob_address(b"beta"))


@pytest.mark.parametrize("make_store", [MemoryBlobStore, lambda: None], ids=["memory", "directory"])
def test_equal_payloads_share_one_blob(make_store, tmp_path):
    store = make_store() or DirectoryBlobStore(tmp_path)
    first = store.put(b"dup")
    second = store.put(b"dup")
    third = store.put(b"other")
    assert first == second != third
    assert sorted(store.addresses()) == sorted({first, third})
    assert store.total_bytes() == len(b"dup") + len(b"other")


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


def test_name_versions_increase_from_one():
    names = NameRegistry()
    assert names.publish("vax/patients", "a" * 64).version == 1
    assert names.publish("vax/patients", "b" * 64).version == 2
    assert names.publish("vax/centers", "c" * 64).version == 1
    assert names.resolve("vax/patients") == "b" * 64
    assert names.latest("vax/patients").version == 2
    assert names.known_names() == ["vax/centers", "vax/patients"]
    assert [(r.name, r.version) for r in names.history()] == [
        ("vax/patients", 1), ("vax/patients", 2), ("vax/centers", 1),
    ]


def test_unpublished_name_raises():
    names = NameRegistry()
    with pytest.raises(NameNotFoundError):
        names.resolve("ghost")
    with pytest.raises(NameNotFoundError):
        names.latest("ghost")


def test_empty_name_rejected():
    with pytest.raises(StorageError):
        NameRegistry().publish("", "a" * 64)


def test_load_jsonl_parses_each_line_in_order_and_skips_blank_ones(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 1}\n\n  \n{"n": 2}\r\n{"n": 3}')
    assert load_jsonl(path, "log", lambda obj: obj["n"]) == [1, 2, 3]


@pytest.mark.parametrize("line", [
    b'{"secret": 1',
    b"secret",
    b'"\xff\xfe secret"',
    b"[" * 100_000,
], ids=["truncated", "bare-word", "not-utf8", "too-deep"])
def test_load_jsonl_refuses_a_line_that_is_not_json(tmp_path, line):
    """Blank lines count toward the position; the error holds nothing of
    the line."""
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 1}\n\n' + line + b'\n{"n": 2}\n')
    with pytest.raises(StorageError) as refused:
        load_jsonl(path, "log", lambda obj: obj)
    assert str(refused.value) == "log line 3 is malformed"
    assert refused.value.__cause__ is None and refused.value.__suppress_context__


@pytest.mark.parametrize("error", [KeyError, TypeError, ValueError])
def test_load_jsonl_turns_what_parse_refuses_into_a_storage_error(tmp_path, error):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1}\n{"n": 2}\n')

    def parse(obj):
        if obj["n"] == 2:
            raise error("secret")
        return obj["n"]

    with pytest.raises(StorageError) as refused:
        load_jsonl(path, "log", parse)
    assert str(refused.value) == "log line 2 is malformed"


LINE_DAMAGE = {
    "missing-key": lambda obj, key: json.dumps({k: v for k, v in obj.items() if k != key}),
    "wrong-type": lambda obj, key: json.dumps(dict(obj, **{key: [obj[key]]})),
    "bad-hex": lambda obj, key: json.dumps(dict(obj, **{key: "zz"})),
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


@pytest.mark.parametrize("damage, key", _line_damage(["name", "address", "version"]))
def test_a_malformed_name_registry_line_is_a_storage_error(tmp_path, damage, key):
    path = tmp_path / "names.jsonl"
    registry = NameRegistry(path)
    registry.publish("secret-name", "a" * 64)
    registry.publish("secret-name", "b" * 64)
    _damage_second_line(path, damage, key)
    with pytest.raises(StorageError) as refused:
        NameRegistry(path)
    assert str(refused.value) == "name registry line 2 is malformed"


def test_name_registry_file_round_trip(tmp_path):
    path = tmp_path / "names.jsonl"
    first = NameRegistry(path)
    first.publish("data", "a" * 64)
    first.publish("data", "b" * 64)
    reopened = NameRegistry(path)
    assert reopened.resolve("data") == "b" * 64
    assert reopened.publish("data", "c" * 64).version == 3


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


@pytest.mark.parametrize("damage, key", _line_damage(
    ["seq", "name", "address", "prevHash", "entryHash"], hex_keys=["prevHash", "entryHash"]
))
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
