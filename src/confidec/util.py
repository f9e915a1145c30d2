"""Small helpers used across subpackages."""

from __future__ import annotations

import base64
import json
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


def unb64(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


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
