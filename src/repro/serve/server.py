"""Serving frontend: concurrent requests, same-matrix batching, futures.

The :class:`Server` is the request path of the serving subsystem (the shape
follows DGL's graph-serving frontends: clients submit into a queue and get
futures; a dispatch loop drains the queue, groups compatible requests and
executes them on the shared backend):

* clients call :meth:`Server.submit_spmm` / :meth:`Server.submit_sddmm`
  from any thread and receive a :class:`concurrent.futures.Future`;
* one dispatch thread takes requests in arrival order: each pass runs the
  oldest waiting request together with the later ones that share its
  operation and :meth:`~repro.formats.csr.CSRMatrix.content_key` — same-matrix
  SpMM requests are concatenated column-wise and run as **one** engine pass, so
  they share one plan and one walk over the sparse entries.  No request
  translates: the plan and the cost pass read the pattern
  (:func:`~repro.formats.cache.pattern_format`, shared by fresh values),
  and the shards slice the request's own CSR.
  The concatenation is numerically invisible: the engine accumulates every
  output column from its own column of the dense operand, whatever its
  neighbours or the operand's width, so the split results are bit-identical
  to running each request alone;
* execution honours a :class:`~repro.serve.planner.ServePlan` — derived per
  (pattern, width) from the server's device budget and memoised on the
  pattern's window partition — and runs its shards one after another in
  the server process on the :class:`~repro.serve.scheduler.ShardScheduler`;
* every SpMM / SDDMM request resolves with the result type a direct
  :func:`repro.spmm` / :func:`repro.sddmm` call returns
  (:class:`~repro.kernels.common.SpmmResult` /
  :class:`~repro.kernels.common.SddmmResult`), carrying the same
  ``values`` / ``counter`` / ``useful_flops`` and the same ``kernel``
  name: cost counters come from the closed-form cost pass, which is
  exactly independent of batching and sharding.  The result types and
  the matrix wrapper come from :mod:`repro.kernels.common` and
  :mod:`repro.formats.matrix`, below the server: it imports nothing from
  the API facade above it.

Overload behaviour
------------------
The server is designed to stay well-behaved when offered load exceeds
capacity (the open-loop regime ``benchmarks/bench_serve_openloop.py``
measures):

* **Bounded admission** — ``max_queue_depth`` caps the number of queued
  (not-yet-dispatched) requests.  The per-server ``admission`` policy picks
  what happens at the cap: ``"block"`` parks the submitting thread until a
  slot frees (closed-loop clients self-throttle), ``"reject"`` fails fast
  with :class:`~repro.serve.errors.ServerOverloadedError` (open-loop
  traffic is turned away at the door instead of growing the queue without
  bound).
* **Request deadlines** — ``submit_*(..., timeout=s)`` attaches a deadline.
  A request whose deadline has passed when the dispatcher picks it up (or
  when its group finally reaches execution) is failed with
  :class:`~repro.serve.errors.ServeTimeoutError` *before* the engine runs:
  under overload the server sheds queued work whose client has given up
  rather than burning capacity on dead results.
* **Crash containment** — the dispatch loop is guarded end to end.  If it
  dies outside the per-group execution guard, every queued and in-batch
  future is failed with
  :class:`~repro.serve.errors.DispatcherCrashedError` (original error as
  ``__cause__``), :attr:`Server.healthy` flips to ``False`` and later
  submits fail fast — no future is ever silently stranded.
* **Drain-aware shutdown** — the dispatcher owns the scheduler teardown:
  the scheduler is closed only after the dispatch loop has drained (or
  crashed), never out from under an in-flight batch.  ``close(wait=True)``
  joins the dispatcher; give it a ``timeout`` to bound the wait, and the
  expiry is surfaced as :class:`~repro.serve.errors.ServeTimeoutError`
  (the drain keeps running — call ``close`` again to keep waiting).

Cluster backend
---------------
``backend="cluster"`` swaps the in-process
:class:`~repro.serve.scheduler.ShardScheduler` for the multi-host
:class:`~repro.cluster.head.ClusterScheduler` (``hosts`` loopback worker
subprocesses; real deployments pass addresses through
``cluster_options``).  Admission, deadlines, the crash guard and
:class:`~repro.serve.metrics.ServeMetrics` apply unchanged; groups
execute on a small thread pool (one thread per host) so independent
matrices keep every host busy, and host death below the scheduler is
recovered by shard failover — the server stays ``healthy`` through it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.cache import pattern_format
from repro.formats.matrix import _as_input
from repro.gpu.device import GPUSpec, get_device
from repro.kernels.common import FlashSparseConfig, SddmmResult, SpmmResult
from repro.kernels.engine import SHARD_OPS, shard_params
from repro.kernels.sddmm_flash import (
    VECTORS_PER_OUTPUT_BLOCK,
    sddmm_flash_cost,
)
from repro.kernels.spmm_flash import spmm_flash_cost
from repro.perfmodel.model import sddmm_useful_flops, spmm_useful_flops
from repro.precision.types import Precision
from repro.serve.errors import (
    DispatcherCrashedError,
    ServeTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve.metrics import MetricsSnapshot, ServeMetrics
from repro.serve.planner import ServePlan, plan_sddmm, plan_spmm
from repro.serve.program import LayerResult, composed_intermediate_bytes
from repro.serve.scheduler import ShardScheduler
from repro.utils.digest import digest16
from repro.utils.validation import check_dense_matrix

#: Most requests coalesced into one engine pass.  Bounds both the
#: concatenated dense width and how long an early request waits for the
#: batch to fill (the dispatch loop never waits — it batches whatever is
#: already queued — so this is a width cap, not a time window).
DEFAULT_MAX_BATCH = 8

#: Admission policies for a full queue (see :class:`Server`).
ADMISSION_POLICIES = ("block", "reject")

#: Execution backends (see :class:`Server`).
BACKENDS = ("local", "cluster")


def _edge_softmax_useful_flops(nnz: int) -> int:
    """Per-edge softmax work: max, subtract, exp, sum, divide — ~5/edge."""
    return 5 * int(nnz)


@dataclass
class ServeRequest:
    """One queued operation (internal to the server)."""

    op: str
    csr: object  # CSRMatrix
    key: str  # content key — the batching and routing handle
    #: Dense operands in the order the op runs them; a concatenating op's
    #: last operand is the panel coalesced requests join column-wise.
    operands: tuple = ()
    #: The caller's array objects the operands were made from, in operand
    #: order: the cluster head content-keys a panel only when it has seen
    #: its source before (a repeated operand), so one-shot panels skip the
    #: digest.
    sources: tuple = ()
    #: Scalar settings of the request, reported in its result's ``meta``
    #: (and passed to the scheduler run of the ops that take settings).
    params: dict = field(default_factory=dict)
    #: Coalescing handle: requests of a concatenating op share one pass
    #: exactly when their (op, key, token) match — a layer's token covers
    #: everything but its ``x`` panel (:func:`_layer_token`), and is only
    #: computed once another request could join (:meth:`Server._group`).
    token: str = ""
    future: Future | None = None
    submitted_at: float = 0.0
    #: Absolute ``perf_counter`` deadline; ``None`` means wait forever.
    deadline: float | None = None
    dequeued_at: float = 0.0
    #: Useful FLOPs (``2·nnz·width`` for an SpMM): the result's
    #: ``useful_flops``.
    cost: int = 0
    #: Whether dequeue accounting already ran for this request (crash-path
    #: bookkeeping: stranded requests must be dequeue-accounted exactly once).
    dequeued: bool = False
    #: Whether the cancellation counter already saw this request (several
    #: drop sites can observe the same cancelled future).
    cancel_accounted: bool = False


@dataclass(frozen=True)
class _ServedOp:
    """How the server executes one op: a row of :data:`_SERVED_OPS`.

    How an op is cut and coalesced is the engine's
    (:data:`~repro.kernels.engine.SHARD_OPS`): the op whose output is the
    sparse pattern (``sddmm``) is planned on the SDDMM grouping and runs
    alone; the dense-row ops are planned on the SpMM grouping, and
    same-(matrix, token) requests concatenate their last operand
    column-wise into one pass — numerically invisible, since every output
    column accumulates from its own operand column only.  A row holds the
    rest: the scheduler call and the result type, which live above the
    engine.

    Rows reach the scheduler as ``server.scheduler.run_*`` and every other
    helper (pattern, planner, cost pass) through this module's global
    names, both looked up per call: a row never holds a
    function object captured at import, so rebinding a module name — as the
    benchmark's tracer does — reaches every served request.
    """

    #: ``run(server, fmt, operands, lead, kwargs)`` →
    #: ``(output, stage_seconds or None)``.
    run: Callable
    #: ``result(server, fmt, values, req, meta)`` → one request's result.
    result: Callable


def _run_spmm(server, fmt, operands, lead, kwargs):
    return server.scheduler.run_spmm(fmt, *operands, server.precision, **kwargs), None


def _run_sddmm(server, fmt, operands, lead, kwargs):
    out = server.scheduler.run_sddmm(
        fmt, *operands, server.precision, VECTORS_PER_OUTPUT_BLOCK, **lead.params, **kwargs
    )
    return out, None


def _run_layer(server, fmt, operands, lead, kwargs):
    out, stages = server.scheduler.run_layer(
        fmt, *operands, server.precision, **lead.params, **kwargs
    )
    server.metrics.record_stages(stages)
    return out, stages


def _spmm_result(server, fmt, values, req, meta):
    counter = spmm_flash_cost(
        fmt, values.shape[1], FlashSparseConfig(precision=server.precision)
    )
    return SpmmResult(
        values=values, counter=counter, kernel="flashsparse_spmm", useful_flops=req.cost, meta=meta
    )


def _sddmm_result(server, fmt, values, req, meta):
    output = BlockedVectorFormat(
        partition=fmt.partition,
        vector_values=values,
        k=fmt.k,
        precision=Precision.FP32,
        format_name=f"{fmt.format_name}-sddmm-out",
    )
    counter = sddmm_flash_cost(
        fmt, req.operands[0].shape[1], FlashSparseConfig(precision=server.precision)
    )
    return SddmmResult(
        output=output, counter=counter, kernel="flashsparse_sddmm", useful_flops=req.cost, meta=meta
    )


def _layer_result(server, fmt, values, req, meta):
    return LayerResult(values=values, useful_flops=req.cost, meta=meta)


#: The served ops, by :attr:`ServeRequest.op`: exactly the engine's
#: :data:`~repro.kernels.engine.SHARD_OPS`.
_SERVED_OPS = {
    "spmm": _ServedOp(_run_spmm, _spmm_result),
    "sddmm": _ServedOp(_run_sddmm, _sddmm_result),
    "layer": _ServedOp(_run_layer, _layer_result),
}


def _layer_token(req: ServeRequest) -> str:
    """A layer request's coalescing token: a digest of everything its pass
    reads but the ``x`` panel.  The dtypes are part of it: the same bytes
    read at another width are other operands."""
    a, b, _ = req.operands
    scale, scale_by_mask = req.params["scale"], req.params["scale_by_mask"]
    return digest16(
        repr((a.dtype.str, a.shape, b.dtype.str, b.shape, scale, scale_by_mask)).encode(),
        np.ascontiguousarray(a),
        np.ascontiguousarray(b),
    )


@dataclass
class _Stop:
    """Queue sentinel that wakes the dispatch loop for shutdown."""


class Server:
    """Sharded SpMM / SDDMM / fused-layer server: futures, same-matrix
    batching, memory-budget plans, overload control.

    Parameters
    ----------
    device:
        Device name or :class:`GPUSpec`; its memory capacity drives the
        planner.  ``None`` serves without a memory budget (one-shot plans).
    precision:
        Kernel precision for every request (``"fp16"`` or ``"tf32"``).
    workers:
        The parallelism the planner divides the device workspace by: more
        workers cut a request into smaller shards.  ``None`` lets the
        planner choose (``min(cpu_count, 8)``).  Shards always run one at a
        time; on the local backend ``meta["workers"]`` reads 1.
    max_queue_depth:
        Cap on queued (not-yet-dispatched) requests.  ``None`` (default)
        leaves admission unbounded — the pre-overload-hardening behaviour,
        only sensible for trusted closed-loop clients.
    admission:
        Policy at the queue cap: ``"block"`` parks the submitter until a
        slot frees, ``"reject"`` raises
        :class:`~repro.serve.errors.ServerOverloadedError` immediately.
    backend:
        ``"local"`` (default): the in-process
        :class:`~repro.serve.scheduler.ShardScheduler`.  ``"cluster"``:
        the multi-host :class:`~repro.cluster.head.ClusterScheduler`
        with ``hosts`` loopback worker subprocesses.
    hosts:
        Worker-host count for ``backend="cluster"`` (default 1; ``0``
        degrades to in-parent execution).  The planner divides the device
        memory budget across hosts.
    cluster_options:
        Extra keyword arguments for the
        :class:`~repro.cluster.head.ClusterScheduler` (heartbeat knobs,
        explicit worker ``addresses=[(host, port), ...]``).

    Attributes
    ----------
    healthy:
        ``False`` once the dispatch thread has died; every pending future
        has then been failed with
        :class:`~repro.serve.errors.DispatcherCrashedError` and new
        submits raise the same.
    """

    def __init__(
        self,
        device: str | GPUSpec | None = None,
        precision: Precision | str = Precision.FP16,
        workers: int | None = None,
        max_queue_depth: int | None = None,
        admission: str = "block",
        backend: str = "local",
        hosts: int | None = None,
        cluster_options: dict | None = None,
    ):
        self.device = device if (device is None or isinstance(device, GPUSpec)) else get_device(device)
        self.precision = Precision(precision)
        self.requested_workers = workers
        #: Most same-matrix requests coalesced into one engine pass.
        self.max_batch = DEFAULT_MAX_BATCH
        if admission not in ADMISSION_POLICIES:
            raise ValueError(f"admission must be one of {ADMISSION_POLICIES}, got {admission!r}")
        if max_queue_depth is not None and int(max_queue_depth) < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None for unbounded)")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.max_queue_depth = None if max_queue_depth is None else int(max_queue_depth)
        self.admission = admission
        self.backend = backend
        self.metrics = ServeMetrics()
        if backend == "cluster":
            from repro.cluster.head import ClusterScheduler

            self.hosts = 1 if hosts is None else int(hosts)
            if self.hosts < 0:
                raise ValueError("hosts must be >= 0")
            self.scheduler = ClusterScheduler(hosts=self.hosts, **(cluster_options or {}))
            # Explicit addresses in cluster_options override the spawn
            # count: budget division and group concurrency must follow the
            # hosts actually registered, not the requested spawn count.
            self.hosts = len(self.scheduler.hosts)
        else:
            if hosts is not None:
                raise ValueError('hosts applies to backend="cluster" only')
            if cluster_options is not None:
                raise ValueError('cluster_options applies to backend="cluster" only')
            self.hosts = 1
            self.scheduler = ShardScheduler()
        #: Request groups executed concurrently (a thread pool inside the
        #: dispatcher): one per host — so 1 on the local backend, the strict
        #: sequential order the latency accounting assumes, while on the
        #: cluster independent matrices route to different hosts and would
        #: otherwise idle them.
        self.group_concurrency = max(1, self.hosts)
        self._queue: "queue.SimpleQueue[ServeRequest | _Stop]" = queue.SimpleQueue()
        # Serialises submit vs close vs crash: nothing can enter the queue
        # after the _Stop sentinel (or after the crash handler drained it),
        # so no future can be stranded by a shutdown race.  The condition
        # doubles as the admission gate "block" submitters wait on.
        self._submit_lock = threading.Lock()
        self._admission = threading.Condition(self._submit_lock)
        self._queued = 0  # authoritative queue depth for admission
        self._closed = False
        self.healthy = True
        self._crash_cause: BaseException | None = None
        #: Requests drained from the queue but not yet picked for execution,
        #: in arrival order (the queue is filled under ``_submit_lock``).
        #: Dispatcher-thread private; the crash handler runs on the same
        #: thread.
        self._pending: list[ServeRequest] = []
        #: Requests picked into groups that are executing right now —
        #: visible to the crash handler so a fault between pick and
        #: execution cannot strand them.  Guarded by ``_dispatch_lock``
        #: (group threads remove entries when concurrency > 1).
        self._in_dispatch: list[ServeRequest] = []
        self._dispatch_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ----------------------------------------------------------- client API
    def submit_spmm(
        self,
        matrix,
        b: np.ndarray,
        timeout: float | None = None,
    ):
        """Enqueue ``matrix @ b``; returns a Future of :class:`SpmmResult`.

        ``timeout`` (seconds) is a queueing deadline: if the request is
        still waiting for dispatch when it expires, the server sheds it and
        the future raises :class:`~repro.serve.errors.ServeTimeoutError`.
        """
        inp = _as_input(matrix)
        sources = (b,)
        b = check_dense_matrix(np.asarray(b), "b", n_rows=inp.shape[1])
        return self._enqueue(
            ServeRequest(
                op="spmm",
                csr=inp.csr,
                key=inp.csr.content_key(),
                operands=(b,),
                sources=sources,
                cost=spmm_useful_flops(inp.csr.nnz, b.shape[1]),
            ),
            timeout,
        )

    def submit_sddmm(
        self,
        mask,
        a: np.ndarray,
        b: np.ndarray,
        scale_by_mask: bool = False,
        timeout: float | None = None,
    ):
        """Enqueue a sampled dense×dense; returns a Future of
        :class:`SddmmResult`.  ``timeout`` as for :meth:`submit_spmm`."""
        inp = _as_input(mask)
        sources = (a, b)
        a = check_dense_matrix(np.asarray(a), "a", n_rows=inp.shape[0])
        b = check_dense_matrix(np.asarray(b), "b", n_rows=inp.shape[1])
        if a.shape[1] != b.shape[1]:
            raise ValueError("a and b must share the inner dimension K")
        params = shard_params(self.precision, scale_by_mask=scale_by_mask)
        return self._enqueue(
            ServeRequest(
                op="sddmm",
                csr=inp.csr,
                key=inp.csr.content_key(),
                operands=(a, b),
                sources=sources,
                params={"scale_by_mask": params["scale_by_mask"]},
                cost=sddmm_useful_flops(inp.csr.nnz, a.shape[1]),
            ),
            timeout,
        )

    def submit_layer(
        self,
        matrix,
        a: np.ndarray,
        b: np.ndarray,
        x: np.ndarray,
        scale: float | None = None,
        scale_by_mask: bool = False,
        timeout: float | None = None,
    ):
        """Enqueue one whole attention layer —
        ``spmm(edge_softmax(scale · sddmm(a, b)), x)`` — as a single
        request; returns a Future of :class:`LayerResult`.

        The layer executes as one fused pass per shard (one scheduler
        round trip — and on the cluster backend one wire round trip —
        instead of three), bit-identical to submitting the three kernels
        separately.  ``timeout`` as for :meth:`submit_spmm`.
        Layer requests over the same matrix, logits panels and scale
        coalesce like SpMM requests: their ``x`` panels concatenate into
        one engine pass.
        """
        inp = _as_input(matrix)
        sources = (a, b, x)
        a = check_dense_matrix(np.asarray(a), "a", n_rows=inp.shape[0])
        b = check_dense_matrix(np.asarray(b), "b", n_rows=inp.shape[1])
        x = check_dense_matrix(np.asarray(x), "x", n_rows=inp.shape[1])
        if a.shape[1] != b.shape[1]:
            raise ValueError("a and b must share the inner dimension K")
        # The same check every shard of the layer repeats: a bad setting
        # fails here, not in a worker.
        params = shard_params(self.precision, scale, scale_by_mask)
        scale, scale_by_mask = params["scale"], params["scale_by_mask"]
        nnz = inp.csr.nnz
        return self._enqueue(
            ServeRequest(
                op="layer",
                csr=inp.csr,
                key=inp.csr.content_key(),
                operands=(a, b, x),
                sources=sources,
                params={"scale": scale, "scale_by_mask": scale_by_mask},
                cost=(
                    sddmm_useful_flops(nnz, a.shape[1])
                    + _edge_softmax_useful_flops(nnz)
                    + spmm_useful_flops(nnz, x.shape[1])
                ),
            ),
            timeout,
        )

    def _check_open(self) -> None:
        """Raise if the server cannot take this request (lock held)."""
        if self._closed:
            raise ServerClosedError("server is closed")
        if not self.healthy:
            err = DispatcherCrashedError("serve dispatcher has crashed; server is unhealthy")
            err.__cause__ = self._crash_cause
            raise err

    def _enqueue(self, req: ServeRequest, timeout: float | None) -> Future:
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None for no deadline)")
        req.future = Future()
        req.submitted_at = time.perf_counter()
        if timeout is not None:
            req.deadline = req.submitted_at + timeout
        with self._admission:
            self._check_open()
            if self.max_queue_depth is not None and self._queued >= self.max_queue_depth:
                if self.admission == "reject":
                    self.metrics.record_rejected()
                    raise ServerOverloadedError(
                        f"queue full ({self._queued}/{self.max_queue_depth} requests queued)"
                    )
                while self._queued >= self.max_queue_depth:
                    self._admission.wait()
                    self._check_open()
            self._queued += 1
            self.metrics.record_submitted()
            self._queue.put(req)
        return req.future

    def snapshot(self) -> MetricsSnapshot:
        """Current metrics (see :mod:`repro.serve.metrics`)."""
        return self.metrics.snapshot(
            scheduler=self.scheduler.stats_snapshot(),
            workers=self.scheduler.workers,
            healthy=self.healthy,
        )

    @property
    def cluster(self):
        """The :class:`~repro.cluster.head.ClusterScheduler` behind a
        ``backend="cluster"`` server — the live-membership surface
        (``server.cluster.add_host(...)`` / ``server.cluster.remove_host(...)``).

        Raises :class:`ValueError` on other backends, where no cluster
        exists to administer.
        """
        if self.backend != "cluster":
            raise ValueError('cluster administration requires backend="cluster"')
        return self.scheduler

    def close(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting requests and drain the queue.

        The dispatch thread closes the scheduler itself once the drain
        finishes, so an in-flight batch never loses its scheduler.  With ``wait=True`` (default) this call joins the dispatcher:
        ``timeout=None`` waits for the full drain; a numeric timeout bounds
        the wait and raises :class:`~repro.serve.errors.ServeTimeoutError`
        if the drain is still running when it expires (the drain continues
        in the background — call ``close`` again to keep waiting).
        """
        with self._admission:
            if not self._closed:
                self._closed = True
                self._queue.put(_Stop())
            # Wake "block"-policy submitters parked at the admission gate so
            # they observe the close and raise instead of waiting forever.
            self._admission.notify_all()
        if wait:
            self._dispatcher.join(timeout)
            if self._dispatcher.is_alive():
                raise ServeTimeoutError(
                    f"serve dispatcher still draining after {timeout}s; "
                    "the scheduler stays up until the drain completes — "
                    "call close() again to keep waiting"
                )

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------- dispatch loop
    def _dispatch_loop(self) -> None:
        try:
            self._run_dispatch()
        except BaseException as exc:  # crash guard: never strand a future
            self._handle_crash(exc)
        finally:
            # The dispatcher owns scheduler teardown: this runs only after the
            # loop has drained (or crashed), never under a running batch.
            self.scheduler.close()

    def _run_dispatch(self) -> None:
        pool: ThreadPoolExecutor | None = None
        slots: threading.Semaphore | None = None
        if self.group_concurrency > 1:
            pool = ThreadPoolExecutor(
                max_workers=self.group_concurrency, thread_name_prefix="repro-serve-exec"
            )
            slots = threading.Semaphore(self.group_concurrency)
        try:
            stopping = False
            while True:
                # Top up the pending buffer.  Block only when idle: with
                # work pending the drain is a peek, so a same-matrix request
                # that arrived meanwhile can still join the next pass.
                stopping = self._drain_queue(block=not self._pending and not stopping) or stopping
                if not self._pending:
                    if stopping:
                        break
                    continue
                submitted = False
                if slots is not None:
                    # Reserve execution capacity *before* choosing a group:
                    # the pick below then sees every request that arrived
                    # while capacity was busy, so later same-matrix arrivals
                    # can still join the head's group — and requests stay
                    # admission-accounted as queued while they are
                    # genuinely waiting, not executing.
                    slots.acquire()
                    stopping = self._drain_queue(block=False) or stopping
                try:
                    self._pending = self._live(self._pending, time.perf_counter(), dequeue=True)
                    if not self._pending:
                        continue
                    group = self._group(self._pending)
                    chosen = {id(req) for req in group}
                    with self._dispatch_lock:
                        self._in_dispatch.extend(group)
                    self._pending = [req for req in self._pending if id(req) not in chosen]
                    self._mark_dequeued(group)
                    if pool is None:
                        try:
                            self._execute_group(group)
                        finally:
                            self._forget_dispatched(group)
                    else:
                        pool.submit(self._execute_group_tracked, group, slots)
                        submitted = True
                finally:
                    if slots is not None and not submitted:
                        slots.release()
        finally:
            # Runs before the crash handler (and before scheduler teardown):
            # in-flight groups finish against a live scheduler and resolve
            # their own futures; only then is anything stranded failed.
            if pool is not None:
                pool.shutdown(wait=True)

    def _drain_queue(self, block: bool) -> bool:
        """Move queued requests into the pending buffer; True on ``_Stop``."""
        stop_seen = False
        if block:
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                return False
            if isinstance(first, _Stop):
                stop_seen = True
            else:
                self._pending.append(first)
        while True:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(nxt, _Stop):
                stop_seen = True
            else:
                self._pending.append(nxt)
        return stop_seen

    def _record_cancelled(self, req: ServeRequest) -> None:
        """Count a client-cancelled request exactly once (any drop site may
        observe it first); keeps the in-flight identity exact."""
        if req.cancel_accounted:
            return
        req.cancel_accounted = True
        try:
            self.metrics.record_cancelled()
        except Exception:  # accounting must never break execution paths
            pass

    def _mark_dequeued(self, group: list[ServeRequest]) -> None:
        """Dequeue accounting for a group picked for execution."""
        now = time.perf_counter()
        for req in group:
            req.dequeued_at = now
        self.metrics.record_dequeued(len(group))
        for req in group:
            req.dequeued = True
        with self._admission:
            self._queued -= len(group)
            self._admission.notify_all()

    def _forget_dispatched(self, group: list[ServeRequest]) -> None:
        done = {id(req) for req in group}
        with self._dispatch_lock:
            self._in_dispatch = [req for req in self._in_dispatch if id(req) not in done]

    def _execute_group_tracked(self, group: list[ServeRequest], slots) -> None:
        """Pool-thread wrapper: :meth:`_execute_group` already contains the
        per-group failure guard; this adds last-resort stranding protection
        and releases the concurrency slot."""
        try:
            self._execute_group(group)
        except BaseException as exc:  # pragma: no cover - belt and braces
            for req in group:
                if not req.future.done():
                    try:
                        req.future.set_exception(exc)
                    except Exception:
                        pass
        finally:
            self._forget_dispatched(group)
            slots.release()

    def _live(
        self, requests: list[ServeRequest], now: float, dequeue: bool = False
    ) -> list[ServeRequest]:
        """Drop client-cancelled requests and fail deadline-expired ones;
        return the rest.  ``dequeue`` marks requests leaving the pending
        buffer unexecuted (their admission slots free up)."""
        live: list[ServeRequest] = []
        for req in requests:
            # A queued future is only ever resolved by a client cancel:
            # executing it would set_result on a done future.
            cancelled = req.future.done()
            if not cancelled and (req.deadline is None or now <= req.deadline):
                live.append(req)
                continue
            if dequeue:  # leaving the buffer unexecuted: free its slot
                self.metrics.record_dequeued(1)
                req.dequeued = True
                with self._admission:
                    self._queued -= 1
                    self._admission.notify_all()
            if cancelled:
                self._record_cancelled(req)
            else:
                waited = now - req.submitted_at
                req.future.set_exception(
                    ServeTimeoutError(
                        f"request shed: deadline exceeded after {waited:.3f}s in queue"
                    )
                )
                self.metrics.record_timed_out(waited)
        return live

    def _handle_crash(self, exc: BaseException) -> None:
        """Fail every pending future and flip :attr:`healthy` (crash path)."""
        with self._admission:
            self.healthy = False
            self._crash_cause = exc
            with self._dispatch_lock:
                stranded = list(self._in_dispatch)
                self._in_dispatch = []
            stranded.extend(self._pending)
            self._pending = []
            while True:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if not isinstance(nxt, _Stop):
                    stranded.append(nxt)
            self._queued = 0
            # Wake blocked submitters: they re-check and see the crash.
            self._admission.notify_all()
        now = time.perf_counter()
        failed: list[ServeRequest] = []
        not_dequeued = 0
        seen: set[int] = set()
        for req in stranded:
            if id(req) in seen:  # pick-time crash window: listed twice
                continue
            seen.add(id(req))
            if not req.dequeued:
                not_dequeued += 1
            if req.future.done():
                # Already resolved (completed or shed) before the crash —
                # its terminal outcome is counted; don't double-count.
                # Client-cancelled futures are the exception: no other site
                # ever accounted them.
                if req.future.cancelled():
                    self._record_cancelled(req)
                continue
            err = DispatcherCrashedError("serve dispatcher crashed; request abandoned")
            err.__cause__ = exc
            try:
                req.future.set_exception(err)
            except Exception:
                # Lost the race against an in-flight group resolving it.
                continue
            failed.append(req)
        # Metrics last, and guarded: the crash may *be* a metrics fault, and
        # accounting must never keep a future from resolving.
        try:
            if not_dequeued:
                self.metrics.record_dequeued(not_dequeued)
            for req in failed:
                self.metrics.record_failed(now - req.submitted_at)
        except Exception:
            pass

    def _group(self, pending: list[ServeRequest]) -> list[ServeRequest]:
        """The next pass: the oldest pending request, then the later ones
        with its (op, matrix content, operand height), capped at
        ``max_batch``.

        The sparse-output op may share a pattern but not a pass, so it
        runs alone.  Layer requests join only when their tokens match too;
        a token is digested only once a second request with the key is
        pending — a lone layer pays no digest.
        """
        head = pending[0]
        if SHARD_OPS[head.op].sddmm:
            return [head]
        key = (head.op, head.key, head.operands[-1].shape[0])
        group = [head]
        for req in pending[1:]:
            if len(group) == self.max_batch:
                break
            if (req.op, req.key, req.operands[-1].shape[0]) != key:
                continue
            if head.op == "layer":
                head.token = head.token or _layer_token(head)
                req.token = req.token or _layer_token(req)
                if req.token != head.token:
                    continue
            group.append(req)
        return group

    # ------------------------------------------------------------ execution
    def _plan_for(self, fmt: BlockedVectorFormat, op: str, width: int) -> ServePlan:
        hosts = self.hosts
        if self.backend == "cluster":
            # Membership is live (add_host / remove_host, readmissions), so
            # plans follow the *current* host count, which the key names: a
            # membership change plans afresh.
            hosts = max(1, len(self.scheduler.hosts))
        workers = self.requested_workers
        if self.backend == "cluster" and workers is None:
            # A worker host executes one shard at a time: plan per-host
            # chunks for a single consumer, not a local thread pool.
            workers = 1
        planner = plan_sddmm if SHARD_OPS[op].sddmm else plan_spmm
        # A plan reads the pattern (its block index and footprint) and the
        # settings below, never the values, so it is memoised on the window
        # partition every translation of the pattern shares, beside its
        # cost counters.  Every server in the process shares that memo, so
        # the key names all the planner reads: of the device, derive_budget
        # reads the capacity only.
        memory = None if self.device is None else self.device.memory_bytes
        key = ("plan", op, fmt.k, self.precision, width, hosts, workers, memory)
        return fmt.partition.memo(
            key,
            lambda: planner(
                fmt, width, device=self.device, precision=self.precision,
                workers=workers, hosts=hosts,
            ),
        )

    def _execute_group(self, group: list[ServeRequest]) -> None:
        """Run one group through its op's :data:`_SERVED_OPS` row:
        pattern → plan → run (the scheduler quantises) → split → build
        each result → resolve, or record the cancellation that beat the
        resolve."""
        # Re-check at execution time: earlier groups of the same drain may
        # have pushed this one past its deadlines, and clients may have
        # cancelled while it waited.
        group = self._live(group, time.perf_counter())
        if not group:
            return
        try:
            lead, row = group[0], _SERVED_OPS[group[0].op]
            concat = not SHARD_OPS[lead.op].sddmm
            self.metrics.record_batch(len(group))
            operands = list(lead.operands)
            if concat and len(group) > 1:
                operands[-1] = np.concatenate([req.operands[-1] for req in group], axis=1)
            fmt = pattern_format(lead.csr, self.precision)
            # The operands go to the scheduler as the callers passed them:
            # it quantises them — the cluster's only when a host lacks them.
            plan = self._plan_for(fmt, lead.op, operands[-1].shape[1])
            # The shards slice the request's own CSR arrays.
            kwargs: dict = {"target_blocks": plan.block_chunk, "csr": lead.csr}
            if self.backend == "cluster":
                # The head routes by content key and ships the CSR payload
                # to the worker hosts; the operands' sources tell it which
                # panels are repeats worth pinning.  A coalesced
                # concatenation has no single source.
                sources = list(lead.sources)
                if concat and len(group) > 1:
                    sources[-1] = None
                kwargs.update(content_key=lead.key, sources=sources)
            out, stages = row.run(self, fmt, operands, lead, kwargs)
            meta = {
                "engine": "serve",
                "backend": self.backend,
                "workers": self.scheduler.workers,
                **lead.params,
                "plan": plan,
            }
            if concat:
                meta["batched_with"] = len(group) - 1
            offset = 0
            now = time.perf_counter()
            for req in group:
                values = out
                if concat:
                    width = req.operands[-1].shape[1]
                    values = np.ascontiguousarray(out[:, offset : offset + width])
                    offset += width
                req_meta = dict(meta) if stages is None else {**meta, "stages": dict(stages)}
                try:
                    req.future.set_result(row.result(self, fmt, values, req, req_meta))
                except InvalidStateError:  # cancelled after the live check
                    self._record_cancelled(req)
                    continue
                if stages is not None:  # a fused layer: what composition would pay
                    self.metrics.record_layer(
                        round_trips_saved=2,
                        operand_bytes_saved=composed_intermediate_bytes(fmt, lead.csr),
                    )
                self.metrics.record_completed(
                    now - req.submitted_at,
                    queue_wait_s=req.dequeued_at - req.submitted_at,
                    execution_s=now - req.dequeued_at,
                )
        except Exception as exc:
            now = time.perf_counter()
            for req in group:
                if not req.future.done():
                    req.future.set_exception(exc)
                    self.metrics.record_failed(now - req.submitted_at)
                elif req.future.cancelled():
                    self._record_cancelled(req)
