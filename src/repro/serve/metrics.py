"""Serving observability: latency percentiles, queue depth, cache counters.

The server records one latency sample per completed request (enqueue →
future resolution, i.e. including queueing delay — the number a closed-loop
client actually experiences) into a bounded reservoir, counts request
outcomes, and exposes the translation cache's hit/miss/eviction counters
(:func:`repro.formats.cache.format_cache_stats`) as a *delta* against the
metrics object's creation (or last :meth:`reset_cache_baseline`).  The
delta excludes cache traffic from before the server started, but the cache
is process-global: kernel calls made concurrently outside the server
(e.g. a training loop in another thread) land in the same counters.

Requests additionally record the **queue-wait / execution split**: how
long the request sat in the queue before the dispatcher picked it up (or
shed it — timed-out requests land in the queue-wait reservoir too, their
wait *is* the overload diagnostic) versus, for completed requests, how
long the engine pass took.  Under overload the split is the signal that
matters — end-to-end latency explodes through queue wait while execution
time stays flat — and the open-loop benchmark
(``benchmarks/bench_serve_openloop.py``) gates on exactly that signature.

Overload outcomes get their own counters: ``rejected`` requests were
turned away at admission (they never entered the queue and are *not*
counted as submitted), ``timed_out`` requests expired in the queue and
were shed before execution, and ``cancelled`` requests were resolved by
the client (``Future.cancel``) while queued and dropped at dispatch.  The
in-flight identity is therefore ``in_flight == submitted - completed -
failed - timed_out - cancelled``.

Everything is lock-guarded: clients resolve futures on pool threads while
the dispatch thread updates queue gauges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from threading import Lock

import numpy as np

from repro.formats.cache import CacheStats, format_cache_stats

#: Latency samples retained for percentile estimation.  A bounded reservoir
#: keeps a busy server's memory flat; 16k samples puts the p95 estimate's
#: resolution far below scheduling noise.
LATENCY_RESERVOIR = 16384


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of one bounded latency reservoir (seconds)."""

    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    mean_s: float = 0.0
    count: int = 0


def _summarise(samples: deque) -> LatencyStats:
    if not samples:
        return LatencyStats()
    arr = np.asarray(samples, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return LatencyStats(
        p50_s=float(p50),
        p95_s=float(p95),
        p99_s=float(p99),
        mean_s=float(arr.mean()),
        count=int(arr.size),
    )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time view of a server's metrics.

    The fused-layer counters (``layer_requests``, ``round_trips_saved``,
    ``operand_bytes_saved``) advance once per resolved layer request, so
    three requests coalesced into one pass count three; ``stage_latency``
    takes one sample per fused pass.
    """

    requests_submitted: int
    requests_completed: int
    requests_failed: int
    #: Turned away at admission (``max_queue_depth`` + ``"reject"`` policy);
    #: never entered the queue, not counted in ``requests_submitted``.
    requests_rejected: int
    #: Deadline expired in the queue; shed before execution with
    #: :class:`~repro.serve.errors.ServeTimeoutError`.
    requests_timed_out: int
    #: Client-cancelled while queued; dropped at dispatch without
    #: execution (their future was already resolved by the client).
    requests_cancelled: int
    #: Engine passes dispatched (a batch of same-matrix requests is one).
    batches_dispatched: int
    #: Requests that shared an engine pass with at least one other request.
    requests_coalesced: int
    queue_depth: int
    #: Latency percentiles in seconds over the retained samples (0.0 when
    #: no request completed yet).
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    #: Time requests spent queued before the dispatcher drained (or shed)
    #: them.  Covers completed *and* timed-out requests — a shed request's
    #: wait is the overload diagnostic — so ``queue_wait.count`` can exceed
    #: ``execution.count``.
    queue_wait: LatencyStats
    #: Dequeue-to-resolution time (grouping + engine pass + result split)
    #: of *completed* requests only.
    execution: LatencyStats
    #: Translation-cache counters since this server's metrics were reset.
    cache: CacheStats
    meta: dict = field(default_factory=dict)
    #: Fused layer requests completed (``submit_layer``), one per request
    #: however many were coalesced into one pass.
    layer_requests: int = 0
    #: Scheduler round trips avoided versus per-kernel composition
    #: (two per fused layer request: SDDMM and edge-softmax stop being
    #: requests).
    round_trips_saved: int = 0
    #: Intermediate operand traffic (bytes) the composed path would have
    #: moved between scheduler and server per layer request and the fused
    #: path did not (SDDMM output out, attention matrix back in).
    operand_bytes_saved: int = 0
    #: Per-stage latency split of fused layer passes, keyed by stage
    #: (``sddmm`` / ``edge_softmax`` / ``spmm``), each under the same
    #: :class:`LatencyStats` shape as ``queue_wait`` / ``execution``: one
    #: sample per fused pass, so coalesced requests share one.
    stage_latency: dict = field(default_factory=dict)

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet resolved."""
        return (
            self.requests_submitted
            - self.requests_completed
            - self.requests_failed
            - self.requests_timed_out
            - self.requests_cancelled
        )

    @property
    def requests_shed(self) -> int:
        """Requests the server refused to execute under overload (rejected
        at admission or timed out in the queue)."""
        return self.requests_rejected + self.requests_timed_out


def _delta(now: CacheStats, base: CacheStats) -> CacheStats:
    return CacheStats(
        hits=now.hits - base.hits,
        misses=now.misses - base.misses,
        evictions=now.evictions - base.evictions,
        content_hits=now.content_hits - base.content_hits,
        size=now.size,
        structure_hits=now.structure_hits - base.structure_hits,
    )


class ServeMetrics:
    """Mutable metrics accumulator shared by the server's threads."""

    def __init__(self) -> None:
        self._lock = Lock()
        self._latencies: deque[float] = deque(maxlen=LATENCY_RESERVOIR)
        self._queue_waits: deque[float] = deque(maxlen=LATENCY_RESERVOIR)
        self._exec_times: deque[float] = deque(maxlen=LATENCY_RESERVOIR)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._timed_out = 0
        self._cancelled = 0
        self._batches = 0
        self._coalesced = 0
        self._queue_depth = 0
        self._layer_requests = 0
        self._round_trips_saved = 0
        self._operand_bytes_saved = 0
        self._stage_times: dict[str, deque[float]] = {}
        self._cache_base = format_cache_stats()

    # -------------------------------------------------------------- recorders
    def record_submitted(self, n: int = 1) -> None:
        """Count ``n`` requests entering the queue."""
        with self._lock:
            self._submitted += n
            self._queue_depth += n

    def record_dequeued(self, n: int = 1) -> None:
        """Count ``n`` requests leaving the queue for execution."""
        with self._lock:
            self._queue_depth -= n

    def record_rejected(self, n: int = 1) -> None:
        """Count ``n`` requests refused at admission (queue full)."""
        with self._lock:
            self._rejected += n

    def record_timed_out(self, queue_wait_s: float) -> None:
        """Count one request shed because its deadline expired in the queue."""
        with self._lock:
            self._timed_out += 1
            self._queue_waits.append(float(queue_wait_s))

    def record_cancelled(self, n: int = 1) -> None:
        """Count ``n`` client-cancelled requests dropped at dispatch."""
        with self._lock:
            self._cancelled += n

    def record_batch(self, size: int) -> None:
        """Count one dispatched engine pass covering ``size`` requests."""
        with self._lock:
            self._batches += 1
            if size > 1:
                self._coalesced += size

    def record_stages(self, stage_seconds: dict) -> None:
        """Record one fused layer pass's per-stage wall clock: one sample a
        pass, however many coalesced requests it served."""
        with self._lock:
            for stage, seconds in stage_seconds.items():
                name = str(stage).removesuffix("_s")
                reservoir = self._stage_times.get(name)
                if reservoir is None:
                    reservoir = deque(maxlen=LATENCY_RESERVOIR)
                    self._stage_times[name] = reservoir
                reservoir.append(float(seconds))

    def record_layer(self, round_trips_saved: int = 0, operand_bytes_saved: int = 0) -> None:
        """Count one resolved fused layer request and the round trips /
        intermediate bytes it avoided versus composition."""
        with self._lock:
            self._layer_requests += 1
            self._round_trips_saved += int(round_trips_saved)
            self._operand_bytes_saved += int(operand_bytes_saved)

    def record_completed(
        self,
        latency_s: float,
        queue_wait_s: float | None = None,
        execution_s: float | None = None,
    ) -> None:
        """Count one successful request, its end-to-end latency and
        (when the caller knows the dequeue time) the wait/execute split."""
        with self._lock:
            self._completed += 1
            self._latencies.append(float(latency_s))
            if queue_wait_s is not None:
                self._queue_waits.append(float(queue_wait_s))
            if execution_s is not None:
                self._exec_times.append(float(execution_s))

    def record_failed(self, latency_s: float) -> None:
        """Count one failed request (latency still recorded: failures queue
        like successes and an operator wants to see slow failures)."""
        with self._lock:
            self._failed += 1
            self._latencies.append(float(latency_s))

    def reset_cache_baseline(self) -> None:
        """Re-anchor the cache-counter delta at the current global state."""
        with self._lock:
            self._cache_base = format_cache_stats()

    # -------------------------------------------------------------- snapshot
    def snapshot(self, **meta) -> MetricsSnapshot:
        """Consistent snapshot of every counter and percentile.

        Counters and copies of the reservoirs are taken under the lock; the
        percentiles are computed from the copies outside it, so a poller
        never stalls the ``record_*`` calls of completing requests.
        """
        with self._lock:
            latencies = self._latencies.copy()
            queue_waits = self._queue_waits.copy()
            exec_times = self._exec_times.copy()
            stages = {stage: samples.copy() for stage, samples in self._stage_times.items()}
            counters = dict(
                requests_submitted=self._submitted,
                requests_completed=self._completed,
                requests_failed=self._failed,
                requests_rejected=self._rejected,
                requests_timed_out=self._timed_out,
                requests_cancelled=self._cancelled,
                batches_dispatched=self._batches,
                requests_coalesced=self._coalesced,
                queue_depth=self._queue_depth,
                cache=_delta(format_cache_stats(), self._cache_base),
                layer_requests=self._layer_requests,
                round_trips_saved=self._round_trips_saved,
                operand_bytes_saved=self._operand_bytes_saved,
            )
        overall = _summarise(latencies)
        return MetricsSnapshot(
            **counters,
            latency_p50_s=overall.p50_s,
            latency_p95_s=overall.p95_s,
            latency_p99_s=overall.p99_s,
            latency_mean_s=overall.mean_s,
            queue_wait=_summarise(queue_waits),
            execution=_summarise(exec_times),
            meta=dict(meta),
            stage_latency={stage: _summarise(samples) for stage, samples in stages.items()},
        )
