"""Spans recorded from outside the program, for the benchmark's traced run.

The tracer wraps public functions of the confidec layers at the module or
class attributes their callers look up, so nothing under src/ changes. A
request is the span around `Ccu.handle`; every wrapped call made while it is
open, in the same thread, becomes a child span. Spans stay in memory as
(name, start_ns, end_ns, parent) per request id and are folded into per-layer
self times after the request; whole requests of each kind are kept verbatim
and written out when the benchmark ends.

Layer names follow the decision-path steps of ROADMAP aim 1, so the spans the
program will record itself can be checked against these.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

ROOT_SPAN = "enclave.handle"
SPAN_FIELDS = 4
VERBATIM_PER_KIND = 1


def _targets() -> list:
    """(owner, attribute, span name) for every call the tracer times."""
    from confidec.dmn import _kernel_py, engine
    from confidec.enclave import ccu
    from confidec.service import builder
    from confidec.storage.chain import NotarizationLog
    from confidec.storage.names import NameRegistry
    from confidec.storage.node import StorageNode
    from confidec.storage.store import MemoryBlobStore

    targets = [
        (ccu, "derive_channel_key", "crypto.channel_key"),
        (ccu, "verify_certificate", "crypto.cert_verify"),
        (ccu, "verify", "crypto.cert_verify"),
        (ccu, "ae_decrypt", "crypto.aead_decrypt"),
        (ccu, "ae_encrypt", "crypto.aead_encrypt"),
        (ccu, "derive_record_key", "crypto.record_key"),
        (ccu, "parse_record", "dmn.parse_record"),
        (ccu, "run_decision_handler", "service.handler"),
        (ccu.Ccu, "decrypt_data", "enclave.decrypt_data"),
        (builder, "check_access", "policy.check"),
        (builder, "evaluate_aggregate", "dmn.aggregate"),
        (builder, "decide_records", "dmn.decide"),
        (engine, "compile_table", "dmn.compile"),
        (engine, "build_matrix", "dmn.build_matrix"),
        (_kernel_py, "run_program", "dmn.kernel"),
        (StorageNode, "fetch", "storage.manifest_fetch"),
        (MemoryBlobStore, "get", "storage.blob_get"),
        (MemoryBlobStore, "put", "storage.blob_put"),
        (NameRegistry, "publish", "storage.publish"),
        (NotarizationLog, "notarize", "storage.publish"),
    ]
    if engine._c_kernel is not None:
        targets.append((engine._c_kernel, "run_program", "dmn.kernel"))
    return targets


class RequestSpans:
    """The folded spans of one request."""

    def __init__(self, request_id: str, kind: str, names: List[str], spans: array):
        self.request_id = request_id
        self.kind = kind
        self.start_ns = spans[1]
        self.end_ns = spans[2]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        n = len(spans) // SPAN_FIELDS
        child_ns = [0] * n
        for i in range(1, n):
            _, start, end, parent = spans[i * SPAN_FIELDS:(i + 1) * SPAN_FIELDS]
            child_ns[parent] += end - start
        for i in range(n):
            code, start, end, _ = spans[i * SPAN_FIELDS:(i + 1) * SPAN_FIELDS]
            name = names[code]
            self.self_ns[name] += end - start - child_ns[i]
            self.total_ns[name] += end - start
            self.calls[name] += 1

    @property
    def handle_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Installs the wrappers, collects spans and folds them per request.

    A request's spans live in one flat integer array, SPAN_FIELDS slots per
    span (name code, start, end, parent), so tracing adds no objects for the
    garbage collector to scan.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self._pending: list = []
        self.names: List[str] = [ROOT_SPAN]
        self.requests: Dict[str, RequestSpans] = {}
        self.verbatim: list = []

    def install(self) -> None:
        from confidec.enclave.ccu import Ccu

        self._patch(Ccu, "handle", self._root(Ccu.handle))
        for owner, attr, name in _targets():
            self._patch(owner, attr, self._child(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _root(self, handle: Callable) -> Callable:
        local = self._local
        clock = time.perf_counter_ns

        def traced_handle(unit, correlation_id, envelope):
            spans = array("q", (0, 0, 0, -1))
            local.spans = spans
            local.top = 0
            spans[1] = clock()
            try:
                return handle(unit, correlation_id, envelope)
            finally:
                spans[2] = clock()
                local.spans = None
                with self._lock:
                    self._pending.append((correlation_id, envelope.request_type, spans))

        return traced_handle

    def _child(self, name: str, fn: Callable) -> Callable:
        local = self._local
        clock = time.perf_counter_ns
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)

        def traced(*args, **kwargs):
            spans = getattr(local, "spans", None)
            if spans is None:
                return fn(*args, **kwargs)
            parent = local.top
            at = len(spans)
            local.top = at // SPAN_FIELDS
            spans.extend((code, 0, 0, parent))
            spans[at + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[at + 2] = clock()
                local.top = parent

        return traced

    def fold(self) -> None:
        """Turn finished requests' spans into per-layer sums.

        Called by the load threads between requests, so the gateway worker
        never spends the request's time on it.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        for request_id, kind, spans in pending:
            self.requests[request_id] = RequestSpans(request_id, kind, self.names, spans)
            if sum(1 for v in self.verbatim if v["kind"] == kind) < VERBATIM_PER_KIND:
                rows = [spans[i:i + SPAN_FIELDS] for i in range(0, len(spans), SPAN_FIELDS)]
                self.verbatim.append({
                    "requestId": request_id,
                    "kind": kind,
                    "spans": [[self.names[c], s, e, p] for c, s, e, p in rows],
                })

    def write(self, path: Path) -> None:
        """Write the verbatim requests and every request's per-layer sums."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spanFields": ["name", "startNs", "endNs", "parent"],
            "verbatim": self.verbatim,
            "requests": [
                {
                    "requestId": r.request_id,
                    "kind": r.kind,
                    "handleNs": r.handle_ns,
                    "selfNs": dict(r.self_ns),
                    "calls": dict(r.calls),
                }
                for r in self.requests.values()
            ],
        }
        path.write_text(json.dumps(doc))


class GcMeter:
    """Collector pauses and collections, counted through gc.callbacks."""

    def __init__(self):
        self.pause_ns = 0
        self.collections = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._started
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
