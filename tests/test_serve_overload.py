"""Overload-safety regression suite for the serving frontend.

Covers the failure modes a server must survive when offered load exceeds
capacity or a component dies mid-flight:

* bounded admission (``max_queue_depth`` with the ``"reject"`` and
  ``"block"`` policies),
* request deadlines (queued work shed with ``ServeTimeoutError`` *before*
  execution),
* the dispatcher crash guard (a fault outside the per-group execution
  guard must fail every pending future, flip ``Server.healthy`` and fail
  fast on later submits — never strand a client),
* drain-aware shutdown (``close`` must not close the scheduler
  under an in-flight batch; a bounded ``close`` surfaces the expiry
  instead of abandoning the drain),
* the scheduler's stats counters under concurrent snapshots, and
* LRU (not wholesale) eviction of the plans in the pattern's memo.

The dispatcher is blocked *deterministically* by wrapping the server's
``_execute_group`` with an event gate — no sleep-based races.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from helpers import random_csr

from repro.core.api import spmm
from repro.formats.cache import cached_mebcrs
from repro.formats.windows import PATTERN_MEMO_SIZE
from repro.gpu.device import RTX4090
from repro.kernels.spmm_flash import spmm_flash_cost
from repro.serve import (
    DispatcherCrashedError,
    ServeTimeoutError,
    Server,
    ServerClosedError,
    ServerOverloadedError,
    ShardScheduler,
)

TIMEOUT = 120


@pytest.fixture()
def workload():
    csr = random_csr(120, 110, 0.08, seed=7)
    b = np.random.default_rng(7).standard_normal((110, 12))
    return csr, b


class _Gate:
    """Deterministic dispatcher block: the wrapped ``_execute_group`` signals
    ``entered`` and parks on ``release`` before running the real execution."""

    def __init__(self, server: Server):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._original = server._execute_group
        server._execute_group = self  # instance attribute shadows the method

    def __call__(self, group):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(TIMEOUT), "gate never released"
        self._original(group)


def _wait_until(predicate, timeout=TIMEOUT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("condition not reached in time")


# ---------------------------------------------------------------- admission
def test_reject_policy_fails_fast_at_queue_cap(workload):
    csr, b = workload
    with Server(workers=1, max_queue_depth=2, admission="reject") as srv:
        gate = _Gate(srv)
        running = srv.submit_spmm(csr, b)  # drained immediately, parks at the gate
        gate.entered.wait(TIMEOUT)
        queued = [srv.submit_spmm(csr, b) for _ in range(2)]  # fills the queue
        with pytest.raises(ServerOverloadedError):
            srv.submit_spmm(csr, b)
        with pytest.raises(ServerOverloadedError):
            srv.submit_sddmm(csr, np.ones((120, 4)), np.ones((110, 4)))
        assert srv.snapshot().requests_rejected == 2
        gate.release.set()
        for fut in [running, *queued]:
            np.testing.assert_array_equal(fut.result(TIMEOUT).values, spmm(csr, b).values)
    snap = srv.snapshot()
    assert snap.requests_submitted == 3
    assert snap.requests_completed == 3
    assert snap.requests_rejected == 2
    assert snap.requests_shed == 2
    assert snap.in_flight == 0


def test_block_policy_parks_submitter_until_a_slot_frees(workload):
    csr, b = workload
    with Server(workers=1, max_queue_depth=1, admission="block") as srv:
        gate = _Gate(srv)
        first = srv.submit_spmm(csr, b)  # drained, parked at the gate
        gate.entered.wait(TIMEOUT)
        second = srv.submit_spmm(csr, b)  # occupies the single queue slot

        blocked_result = {}

        def blocked_submit():
            blocked_result["future"] = srv.submit_spmm(csr, b)

        t = threading.Thread(target=blocked_submit)
        t.start()
        time.sleep(0.1)
        assert t.is_alive(), "block-policy submitter should be parked at the full queue"
        gate.release.set()
        t.join(TIMEOUT)
        assert not t.is_alive()
        for fut in (first, second, blocked_result["future"]):
            np.testing.assert_array_equal(fut.result(TIMEOUT).values, spmm(csr, b).values)
    assert srv.snapshot().requests_completed == 3


def test_blocked_submitter_wakes_on_close(workload):
    csr, b = workload
    srv = Server(workers=1, max_queue_depth=1, admission="block")
    gate = _Gate(srv)
    first = srv.submit_spmm(csr, b)
    gate.entered.wait(TIMEOUT)
    srv.submit_spmm(csr, b)  # fills the queue

    outcome = {}

    def blocked_submit():
        try:
            outcome["future"] = srv.submit_spmm(csr, b)
        except ServerClosedError as exc:
            outcome["error"] = exc

    t = threading.Thread(target=blocked_submit)
    t.start()
    time.sleep(0.1)
    assert t.is_alive()
    gate.release.set()
    srv.close(wait=True)
    t.join(TIMEOUT)
    # The parked submitter either squeezed in before the close (its request
    # then drains) or was woken and refused — never left hanging.
    assert "future" in outcome or isinstance(outcome.get("error"), ServerClosedError)
    assert first.result(TIMEOUT) is not None


def test_admission_parameters_validated():
    with pytest.raises(ValueError):
        Server(workers=1, admission="drop-newest")
    with pytest.raises(ValueError):
        Server(workers=1, max_queue_depth=0)


# ----------------------------------------------------------------- deadlines
def test_deadline_sheds_queued_request_before_execution(workload):
    csr, b = workload
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        running = srv.submit_spmm(csr, b)
        gate.entered.wait(TIMEOUT)
        doomed = srv.submit_spmm(csr, b, timeout=0.05)
        alive = srv.submit_spmm(csr, b)  # no deadline: must still complete
        time.sleep(0.1)  # let the deadline lapse while the dispatcher is busy
        gate.release.set()
        with pytest.raises(ServeTimeoutError):
            doomed.result(TIMEOUT)
        np.testing.assert_array_equal(running.result(TIMEOUT).values, spmm(csr, b).values)
        np.testing.assert_array_equal(alive.result(TIMEOUT).values, spmm(csr, b).values)
        # The shed request never reached execution: the gate saw only the
        # two surviving engine passes.
        _wait_until(lambda: srv.snapshot().requests_completed == 2)
        assert gate.calls == 2
    snap = srv.snapshot()
    assert snap.requests_timed_out == 1
    assert snap.requests_completed == 2
    assert snap.in_flight == 0
    # The shed request's queue wait is recorded (the overload diagnostic).
    assert snap.queue_wait.count >= 1


def test_unexpired_deadline_completes_normally(workload):
    csr, b = workload
    with Server(workers=1) as srv:
        res = srv.submit_spmm(csr, b, timeout=30.0).result(TIMEOUT)
        np.testing.assert_array_equal(res.values, spmm(csr, b).values)
    assert srv.snapshot().requests_timed_out == 0


def test_cancelled_expired_request_dropped_without_poisoning_batch(workload):
    """A queued request that is client-cancelled *and* deadline-expired must
    be dropped at dispatch — executing it would ``set_result`` on a done
    future (``InvalidStateError``) and fail every co-batched request."""
    csr, b = workload
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        running = srv.submit_spmm(csr, b)
        gate.entered.wait(TIMEOUT)
        doomed = srv.submit_spmm(csr, b, timeout=0.05)
        sibling = srv.submit_spmm(csr, b)  # same matrix: batches with doomed
        assert doomed.cancel()  # never dispatched, so cancel succeeds
        time.sleep(0.1)  # deadline lapses while the dispatcher is parked
        gate.release.set()
        np.testing.assert_array_equal(running.result(TIMEOUT).values, spmm(csr, b).values)
        np.testing.assert_array_equal(sibling.result(TIMEOUT).values, spmm(csr, b).values)
        assert doomed.cancelled()
    # Dropped, not shed: its outcome was already settled by the client.
    assert srv.snapshot().requests_timed_out == 0


def test_nonpositive_timeout_rejected(workload):
    csr, b = workload
    with Server(workers=1) as srv:
        with pytest.raises(ValueError):
            srv.submit_spmm(csr, b, timeout=0.0)


# --------------------------------------------------------------- crash guard
def test_dispatcher_crash_fails_every_pending_future(workload):
    csr, b = workload
    srv = Server(workers=1)
    gate = _Gate(srv)
    running = srv.submit_spmm(csr, b)
    gate.entered.wait(TIMEOUT)
    pending = [srv.submit_spmm(csr, b) for _ in range(3)]

    boom = RuntimeError("injected grouping fault")

    def bad_group(requests):
        raise boom

    srv._group = bad_group  # fault *outside* the per-group execution guard
    gate.release.set()

    # The running request was already past grouping and resolves normally…
    np.testing.assert_array_equal(running.result(TIMEOUT).values, spmm(csr, b).values)
    # …every queued request resolves with the crash (cause attached), not a hang.
    for fut in pending:
        with pytest.raises(DispatcherCrashedError) as excinfo:
            fut.result(TIMEOUT)
        assert excinfo.value.__cause__ is boom
    _wait_until(lambda: not srv.healthy)
    with pytest.raises(DispatcherCrashedError):
        srv.submit_spmm(csr, b)
    snap = srv.snapshot()
    assert snap.requests_failed == 3
    assert snap.in_flight == 0
    assert snap.queue_depth == 0
    assert snap.meta["healthy"] is False
    srv.close()  # shutdown after a crash is clean and idempotent
    srv.close()


def test_metrics_fault_does_not_strand_futures(workload):
    """The ISSUE's exact scenario: a metrics call (not the engine) raising
    inside the dispatch loop must still resolve every future."""
    csr, b = workload
    srv = Server(workers=1)
    gate = _Gate(srv)
    running = srv.submit_spmm(csr, b)
    gate.entered.wait(TIMEOUT)
    pending = [srv.submit_spmm(csr, b) for _ in range(2)]
    srv.metrics.record_dequeued = None  # TypeError on the next drain
    gate.release.set()
    running.result(TIMEOUT)
    for fut in pending:
        with pytest.raises(DispatcherCrashedError):
            fut.result(TIMEOUT)
    _wait_until(lambda: not srv.healthy)
    srv.close()


# ------------------------------------------------------------------ shutdown
def test_close_does_not_yank_pool_under_inflight_batch(workload):
    csr, b = workload
    srv = Server(workers=2)
    gate = _Gate(srv)
    fut = srv.submit_spmm(csr, b)
    gate.entered.wait(TIMEOUT)
    # Bounded close while the batch is in flight: the expiry is surfaced,
    # the drain keeps running.
    with pytest.raises(ServeTimeoutError):
        srv.close(wait=True, timeout=0.05)
    assert srv._dispatcher.is_alive()
    gate.release.set()
    srv.close(wait=True)  # now drains fully
    assert not srv._dispatcher.is_alive()
    # The in-flight batch finished against a live scheduler: exact result.
    np.testing.assert_array_equal(fut.result(TIMEOUT).values, spmm(csr, b).values)


def test_close_nowait_still_tears_pool_down_after_drain(workload):
    csr, b = workload
    srv = Server(workers=1)
    futures = [srv.submit_spmm(csr, b) for _ in range(3)]
    srv.close(wait=False)  # returns immediately; the dispatcher owns teardown
    for fut in futures:
        np.testing.assert_array_equal(fut.result(TIMEOUT).values, spmm(csr, b).values)
    _wait_until(lambda: not srv._dispatcher.is_alive())


# ------------------------------------------------------------- stats / plans
def test_scheduler_stats_are_lock_guarded():
    sched = ShardScheduler()
    threads = [
        threading.Thread(target=lambda: [sched._count("shards") for _ in range(2000)])
        for _ in range(8)
    ]
    stop = threading.Event()
    seen_bad = []

    def reader():
        while not stop.is_set():
            snap = sched.stats_snapshot()
            if set(snap) != {"shards", "requests"} or any(
                not isinstance(v, int) or v < 0 for v in snap.values()
            ):
                seen_bad.append(snap)

    r = threading.Thread(target=reader)
    r.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    r.join()
    assert not seen_bad
    # No lost updates: the lock makes the read-modify-write atomic.
    assert sched.stats_snapshot()["shards"] == 8 * 2000


def test_server_snapshot_reads_scheduler_stats_safely(workload):
    csr, b = workload
    with Server(workers=1) as srv:
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                snap = srv.snapshot()
                assert snap.meta["scheduler"]["shards"] >= 0

        t = threading.Thread(target=hammer)
        t.start()
        for _ in range(10):
            srv.submit_spmm(csr, b).result(TIMEOUT)
        stop.set()
        t.join(TIMEOUT)
    assert srv.snapshot().meta["scheduler"]["requests"] == 10


def test_plan_cache_evicts_lru_not_wholesale():
    """Plans live in the pattern's memo: a sweep of cold widths past its
    capacity evicts the coldest plan, never the hot one touched between."""
    csr = random_csr(96, 96, 0.1, seed=3)
    srv = Server(workers=1)
    try:
        fmt = cached_mebcrs(csr, srv.precision, by_content=True)
        hot_plan = srv._plan_for(fmt, "spmm", 64)
        coldest = srv._plan_for(fmt, "spmm", 1)
        for width in range(2, PATTERN_MEMO_SIZE + 2):
            srv._plan_for(fmt, "spmm", width)
            assert srv._plan_for(fmt, "spmm", 64) is hot_plan
        # The coldest width was evicted; re-planning it is a fresh entry.
        assert srv._plan_for(fmt, "spmm", 1) is not coldest
        assert srv._plan_for(fmt, "spmm", 64) is hot_plan
    finally:
        srv.close()


def test_plan_cache_hot_key_survives_default_capacity_overflow():
    """Same property with the memo shared: a second server on another
    device and the cost pass sweep the partition the hot plan lives on."""
    csr = random_csr(64, 64, 0.1, seed=5)
    srv = Server(workers=1)
    other = Server(device=RTX4090, workers=1)
    try:
        fmt = cached_mebcrs(csr, srv.precision, by_content=True)
        hot_plan = srv._plan_for(fmt, "spmm", 16)
        assert other._plan_for(fmt, "spmm", 16) is not hot_plan
        for width in range(1, 2 * PATTERN_MEMO_SIZE):
            if width == 16:
                continue
            other._plan_for(fmt, "spmm", width)
            spmm_flash_cost(fmt, width)
            assert srv._plan_for(fmt, "spmm", 16) is hot_plan
    finally:
        srv.close()
        other.close()


def test_plan_cache_does_not_pin_translated_formats():
    """A memoised plan must not keep a translation alive after the
    translation cache's LRU dropped it — otherwise every fresh matrix a
    long-running server sees stays resident."""
    import gc
    import weakref

    from repro.formats.cache import FORMAT_CACHE_MAXSIZE

    n_matrices = FORMAT_CACHE_MAXSIZE + 8
    formats = []
    with Server(workers=1) as srv:
        for seed in range(n_matrices):
            csr = random_csr(48, 40, 0.1, seed=100 + seed)
            srv.submit_spmm(csr, np.ones((40, 3), np.float32)).result(TIMEOUT)
            fmt = cached_mebcrs(csr, srv.precision, by_content=True)  # the served one
            formats.append(weakref.ref(fmt))
            del fmt
        gc.collect()
        alive = sum(ref() is not None for ref in formats)
    assert alive <= FORMAT_CACHE_MAXSIZE
