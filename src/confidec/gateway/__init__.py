"""Untrusted request gateway: wire envelopes, client channel, FIFO queue."""

from confidec.gateway.wire import (
    RequestEnvelope,
    ResponseEnvelope,
    envelope_signing_bytes,
    request_to_obj,
    response_to_obj,
)
from confidec.gateway.client import ClientSession
from confidec.gateway.queue import Gateway

__all__ = [
    "RequestEnvelope",
    "ResponseEnvelope",
    "envelope_signing_bytes",
    "request_to_obj",
    "response_to_obj",
    "ClientSession",
    "Gateway",
]
