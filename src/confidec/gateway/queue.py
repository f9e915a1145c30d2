"""Bounded FIFO gateway in front of a single processing unit.

The gateway accepts opaque envelopes, hands them to the unit one at a
time in submission order, and parks responses until callers collect them.
It never opens a payload; its state holds only ciphertext and tickets.
"""

from __future__ import annotations

import logging
import queue
import secrets
import threading
from typing import Callable, Dict

from confidec.errors import GatewayTimeoutError, QueueFullError, UnknownTicketError
from confidec.gateway.wire import RequestEnvelope, ResponseEnvelope, request_to_obj, response_to_obj
from confidec.util import canonical_json

logger = logging.getLogger(__name__)

Handler = Callable[[str, RequestEnvelope], ResponseEnvelope]

_STOP = object()


class Gateway:
    def __init__(self, handler: Handler, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._handler = handler
        self._queue: "queue.Queue" = queue.Queue(maxsize=capacity)
        self._lock = threading.Lock()
        self._events: Dict[str, threading.Event] = {}
        self._results: Dict[str, ResponseEnvelope] = {}
        self._closed = False
        self._worker = threading.Thread(target=self._run, name="gateway-worker", daemon=True)
        self._worker.start()

    def submit(self, envelope: RequestEnvelope) -> str:
        """Queue an envelope; returns the ticket for collecting the response.

        Raises QueueFullError instead of blocking when the queue is at
        capacity.
        """
        ticket = secrets.token_hex(16)
        event = threading.Event()
        with self._lock:
            if self._closed:
                raise QueueFullError("gateway is closed")
            self._events[ticket] = event
        try:
            self._queue.put_nowait((ticket, envelope))
        except queue.Full:
            with self._lock:
                self._events.pop(ticket, None)
            raise QueueFullError("gateway queue is full") from None
        logger.debug("queued %s request under ticket %s", envelope.request_type, ticket)
        return ticket

    def await_response(self, ticket: str, timeout: float | None = None) -> ResponseEnvelope:
        """Block until the response for ticket arrives, then hand it over."""
        with self._lock:
            event = self._events.get(ticket)
        if event is None:
            raise UnknownTicketError(f"no request under ticket {ticket!r}")
        if not event.wait(timeout):
            raise GatewayTimeoutError(f"no response for ticket {ticket!r} in time")
        with self._lock:
            self._events.pop(ticket, None)
            return self._results.pop(ticket)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put((None, _STOP))
        self._worker.join()

    def _run(self) -> None:
        while True:
            ticket, envelope = self._queue.get()
            if envelope is _STOP:
                return
            try:
                response = self._handler(ticket, envelope)
            except Exception as exc:  # the unit must not kill the gateway
                logger.warning("handler failed for ticket %s: %s", ticket, type(exc).__name__)
                response = ResponseEnvelope(
                    correlation_id=ticket, status="error", error="unit failure"
                )
            with self._lock:
                event = self._events.get(ticket)
                if event is not None:
                    self._results[ticket] = response
                    event.set()

    def debug_snapshot(self) -> bytes:
        """Serialize everything the gateway currently holds.

        Diagnostic hook: lets tests assert that no payload plaintext ever
        rests in gateway state.
        """
        with self._lock:
            pending = [(t, request_to_obj(e)) for t, e in list(self._queue.queue) if e is not _STOP]
            results = {t: response_to_obj(r) for t, r in self._results.items()}
            tickets = sorted(self._events)
        return canonical_json({"pending": pending, "results": results, "tickets": tickets})
