"""In-memory spans around the calls into each layer, installed by rebinding
module attributes from the benchmark process — no edits under ``src/``.

A span is ``(name, start, end, parent, request_id)``.  The client opens one
top span per request; every wrapped entry point opens a child of whatever
span is open on its thread.  The server executes on its own threads, where
no client span is open: the first span on such a thread adopts the oldest
request still in flight as its parent.  With one caller that attribution is
exact; with two callers or an open loop it is the request most likely being
served, which is why no per-layer metric depends on it — medians are taken
over a layer's spans, and ``unattributed_frac`` measures the part of each
request's interval that *no* layer span covers.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

#: span name -> entry points, as (module, attribute) or (module, "Class.method").
TRACE_POINTS = {
    "precision.quantize": [("repro.precision.types", "quantize")],
    "formats.cache_lookup": [("repro.formats.cache", "cached_mebcrs")],
    "kernels.spmm_execute": [("repro.kernels.spmm_flash", "spmm_flash_execute")],
    "kernels.sddmm_execute": [("repro.kernels.sddmm_flash", "sddmm_flash_execute")],
    "kernels.engine_spmm": [
        ("repro.kernels.engine", "spmm_batched"),
        ("repro.kernels.engine", "spmm_shard_rows"),
    ],
    "kernels.engine_sddmm": [
        ("repro.kernels.engine", "sddmm_batched"),
        ("repro.kernels.engine", "sddmm_shard_values"),
    ],
    "kernels.layer_shard": [("repro.kernels.engine", "layer_shard_rows")],
    "kernels.cost_pass": [
        ("repro.kernels.spmm_flash", "spmm_flash_cost"),
        ("repro.kernels.sddmm_flash", "sddmm_flash_cost"),
    ],
    "ops.segment_sum": [("repro.ops.segment", "segment_sum")],
    "ops.segment_softmax": [("repro.ops.segment", "segment_softmax")],
    "perfmodel.estimate": [("repro.perfmodel.model", "estimate_time")],
    "serve.planner.plan": [
        ("repro.serve.planner", "plan_spmm"),
        ("repro.serve.planner", "plan_sddmm"),
    ],
    "serve.scheduler.run": [
        ("repro.serve.scheduler", "ShardScheduler.run_spmm"),
        ("repro.serve.scheduler", "ShardScheduler.run_sddmm"),
        ("repro.serve.scheduler", "ShardScheduler.run_layer"),
    ],
    "cluster.head.run": [
        ("repro.cluster.head", "ClusterScheduler.run_spmm"),
        ("repro.cluster.head", "ClusterScheduler.run_sddmm"),
        ("repro.cluster.head", "ClusterScheduler.run_layer"),
    ],
    "cluster.transport.send": [("repro.cluster.transport", "send_message")],
    "cluster.transport.recv": [("repro.cluster.transport", "recv_message")],
    "cluster.assembly.assemble": [
        ("repro.cluster.assembly", "SpmmAssembly.add"),
        ("repro.cluster.assembly", "SpmmAssembly.result"),
    ],
}

CLIENT_SPAN = "client.request"


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent, request_id] per span; the index is its id.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: dict[object, int] = {}  # request id -> its client span
        self._restore: list[tuple[object, str, object]] = []
        #: Entry points named in TRACE_POINTS that this commit does not have.
        self.missing: list[str] = []

    # ----------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, request_id=None) -> int | None:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif name == CLIENT_SPAN:
                parent = None
            elif self._open:
                parent = next(iter(self._open.values()))
            else:
                # No request in flight: this is the benchmark checking an
                # answer with the program's own one-shot calls, not a layer
                # serving a request.
                return None
            if request_id is None:
                request_id = self.spans[parent][4]
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, request_id])
        stack.append(index)
        return index

    def _end(self, index: int | None) -> None:
        if index is not None:
            self.spans[index][2] = time.perf_counter()
            self._stack().pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def request(self, request_id):
        """The client's top span around one closed-loop request."""
        index = self._begin(CLIENT_SPAN, request_id)
        with self._lock:
            self._open[request_id] = index
        try:
            yield
        finally:
            self._end(index)
            with self._lock:
                del self._open[request_id]

    def open_request(self, request_id, submit):
        """Open-loop form: the span opens around ``submit()`` and stays open
        until :meth:`close_request` — the caller has moved on by then."""
        index = self._begin(CLIENT_SPAN, request_id)
        with self._lock:
            self._open[request_id] = index
        try:
            return submit()
        except BaseException:
            self.spans[index][2] = time.perf_counter()
            with self._lock:
                del self._open[request_id]
            raise
        finally:
            self._stack().pop()

    def close_request(self, request_id, end: float) -> None:
        with self._lock:
            index = self._open.pop(request_id)
        self.spans[index][2] = end

    # -------------------------------------------------------------- rebinding
    def install(self) -> None:
        for name, points in TRACE_POINTS.items():
            for module_name, attr in points:
                try:
                    module = importlib.import_module(module_name)
                    owner = module
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapped = self.wrap(name, original)
                if owner is not module:
                    self._rebind(owner, leaf, original, wrapped)
                    continue
                # ``from module import fn`` copies the binding: rebind it in
                # every loaded repro module that holds the same object.
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and (
                        getattr(other, leaf, None) is original
                    ):
                        self._rebind(other, leaf, original, wrapped)

    def _rebind(self, owner, leaf: str, original, wrapped) -> None:
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    # ---------------------------------------------------------------- reading
    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def unattributed_fracs(self) -> list[float]:
        """Per request: the share of its interval no layer span covers."""
        layer = sorted(
            (s[1], s[2]) for s in self.spans if s[0] != CLIENT_SPAN and s[2] is not None
        )
        merged: list[list[float]] = []
        for lo, hi in layer:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out = []
        for name, start, end, _, _ in self.spans:
            if name != CLIENT_SPAN or end is None or end <= start:
                continue
            covered = sum(
                max(0.0, min(hi, end) - max(lo, start)) for lo, hi in merged if hi > start and lo < end
            )
            out.append(1.0 - covered / (end - start))
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request_id")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span), id=i) for i, span in enumerate(self.spans)], handle)
