"""Small helpers used across subpackages."""

from __future__ import annotations

import base64
import json
from datetime import datetime, timezone
from typing import Any, Callable, List


# what json.dumps would build on every call with these arguments
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj: Any) -> bytes:
    """Serialize to the canonical form used for hashing and signing.

    Keys sorted, no whitespace, UTF-8. Two structurally equal documents
    always map to the same byte string.
    """
    return _CANONICAL.encode(obj).encode("utf-8")


def typed_fields(doc: Any, prefix: str, error: Callable[[str], Exception], **shape: type) -> List[Any]:
    """The values of the JSON object doc under the keys shape names, each of
    exactly the type shape gives its key.

    The first key absent or of another type (the first key, when doc is no
    object) raises error("<prefix> field '<key>' must be a <type>"); no text
    holds a value of doc.
    """
    get = doc.get if type(doc) is dict else {}.get
    values = []
    for key, kind in shape.items():
        value = get(key)
        if type(value) is not kind:
            raise error(f"{prefix} field {key!r} must be a {kind.__name__}")
        values.append(value)
    return values


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
