"""Small helpers used across subpackages."""

from __future__ import annotations

import base64
import binascii
import json
import sys
from datetime import datetime, timezone
from typing import Any


def canonical_json(obj: Any) -> bytes:
    """Serialize to the canonical form used for hashing and signing.

    Keys sorted, no whitespace, UTF-8. Two structurally equal documents
    always map to the same byte string.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


if sys.version_info >= (3, 11):
    def unb64(text: str) -> bytes:
        # what b64decode(validate=True) runs from 3.11 on, minus its wrapping
        return binascii.a2b_base64(text, strict_mode=True)
else:  # pragma: no cover - strict_mode is new in 3.11
    def unb64(text: str) -> bytes:
        return base64.b64decode(text.encode("ascii"), validate=True)


def utcnow() -> datetime:
    return datetime.now(timezone.utc)


def parse_rfc3339(text: str) -> datetime:
    """Parse an ISO-8601 / RFC 3339 timestamp into an aware datetime."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def format_rfc3339(dt: datetime) -> str:
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def length_prefixed(*parts: bytes) -> bytes:
    """Concatenate byte strings, each preceded by a 4-byte big-endian length."""
    out = bytearray()
    for part in parts:
        out += len(part).to_bytes(4, "big")
        out += part
    return bytes(out)
