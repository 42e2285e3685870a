"""Concurrent-load invariant suite for :mod:`repro.serve.metrics`.

The accumulator is shared by submitter threads, the dispatch thread and
(under multi-process execution) result-resolution paths.  These tests
hammer it from many threads and assert the accounting identities hold at
every observable instant:

* ``in_flight == submitted - completed - failed - timed_out`` and
  ``queue_depth >= 0`` on every snapshot taken mid-flight,
* terminal outcomes reconcile exactly (``completed + failed + timed_out
  == submitted``, rejected tracked separately since rejected requests
  never enter the queue),
* the rejected / timed-out counters match what the futures of a real
  overloaded :class:`~repro.serve.Server` actually observed, and
* the queue-wait / execution latency split is populated and consistent
  with end-to-end latency.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from helpers import random_csr

from repro.serve import (
    ServeMetrics,
    ServeTimeoutError,
    Server,
    ServerOverloadedError,
)

TIMEOUT = 120


def test_invariants_hold_under_concurrent_submit_resolve():
    metrics = ServeMetrics()
    n_threads, per_thread = 8, 300
    violations = []
    stop = threading.Event()

    def observer():
        while not stop.is_set():
            snap = metrics.snapshot()
            if snap.queue_depth < 0:
                violations.append(("queue_depth", snap.queue_depth))
            if snap.in_flight < 0:
                violations.append(("in_flight", snap.in_flight))
            if snap.in_flight != (
                snap.requests_submitted
                - snap.requests_completed
                - snap.requests_failed
                - snap.requests_timed_out
            ):
                violations.append(("identity", snap))
            done = snap.requests_completed + snap.requests_failed + snap.requests_timed_out
            if done > snap.requests_submitted:
                violations.append(("overcount", snap))

    def worker(seed: int):
        rng = np.random.default_rng(seed)
        for i in range(per_thread):
            outcome = rng.integers(0, 4)
            if outcome == 3:
                metrics.record_rejected()  # never entered the queue
                continue
            metrics.record_submitted()
            metrics.record_dequeued()
            if outcome == 0:
                metrics.record_completed(0.001, queue_wait_s=0.0005, execution_s=0.0005)
            elif outcome == 1:
                metrics.record_failed(0.001)
            else:
                metrics.record_timed_out(0.001)

    obs = threading.Thread(target=observer)
    obs.start()
    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    obs.join()

    assert not violations, violations[:5]
    snap = metrics.snapshot()
    total = n_threads * per_thread
    assert snap.requests_submitted + snap.requests_rejected == total
    assert (
        snap.requests_completed + snap.requests_failed + snap.requests_timed_out
        == snap.requests_submitted
    )
    assert snap.in_flight == 0
    assert snap.queue_depth == 0


def test_snapshot_percentiles_do_not_hold_the_recording_lock(monkeypatch):
    """A snapshot parked inside its percentile computation must not stall
    ``record_completed``: the reservoirs are copied under the lock and
    summarised outside it."""
    import time

    from repro.serve import metrics as metrics_mod

    metrics = ServeMetrics()
    for i in range(metrics_mod.LATENCY_RESERVOIR):
        metrics.record_completed(0.001 * (i % 97), queue_wait_s=0.0005, execution_s=0.0005)
    parked, release = threading.Event(), threading.Event()
    summarise = metrics_mod._summarise

    def parked_summarise(samples):
        parked.set()
        release.wait(TIMEOUT)
        return summarise(samples)

    monkeypatch.setattr(metrics_mod, "_summarise", parked_summarise)
    snaps = []
    snapper = threading.Thread(target=lambda: snaps.append(metrics.snapshot()))
    snapper.start()
    assert parked.wait(TIMEOUT)
    # A lock-holding snapshot would block the record below until this fires.
    backstop = threading.Timer(3.0, release.set)
    backstop.start()
    t0 = time.perf_counter()
    metrics.record_completed(0.5)
    elapsed = time.perf_counter() - t0
    release.set()
    backstop.cancel()
    snapper.join(TIMEOUT)
    assert not snapper.is_alive()
    assert elapsed < 0.5, f"record_completed waited {elapsed:.2f} s on a snapshot"
    assert snaps[0].requests_completed == metrics_mod.LATENCY_RESERVOIR
    monkeypatch.setattr(metrics_mod, "_summarise", summarise)
    assert metrics.snapshot().requests_completed == metrics_mod.LATENCY_RESERVOIR + 1


def test_counters_reconcile_with_observed_future_outcomes():
    """Drive a real server into overload and check every counter against the
    outcome each future actually reported."""
    csr = random_csr(120, 110, 0.08, seed=9)
    b = np.random.default_rng(9).standard_normal((110, 8))
    release = threading.Event()
    entered = threading.Event()

    with Server(workers=1, max_queue_depth=3, admission="reject") as srv:
        original = srv._execute_group

        def gated(group):
            entered.set()
            assert release.wait(TIMEOUT)
            original(group)

        srv._execute_group = gated
        futures = []
        rejected = 0
        # First request occupies the dispatcher; the rest race admission.
        futures.append(srv.submit_spmm(csr, b))
        entered.wait(TIMEOUT)
        for i in range(8):
            try:
                timeout = 0.02 if i % 2 else None  # half carry a tight deadline
                futures.append(srv.submit_spmm(csr, b, timeout=timeout))
            except ServerOverloadedError:
                rejected += 1
        import time

        time.sleep(0.08)  # the tight deadlines lapse while the queue is full
        release.set()

        completed = failed = timed_out = 0
        for fut in futures:
            try:
                fut.result(TIMEOUT)
                completed += 1
            except ServeTimeoutError:
                timed_out += 1
            except Exception:
                failed += 1

    snap = srv.snapshot()
    assert rejected > 0, "admission never engaged — the test lost its race"
    assert snap.requests_rejected == rejected
    assert snap.requests_timed_out == timed_out
    assert snap.requests_completed == completed
    assert snap.requests_failed == failed
    assert snap.requests_submitted == len(futures)
    assert snap.requests_shed == rejected + timed_out
    assert snap.in_flight == 0
    assert snap.queue_depth == 0


def test_queue_wait_execution_split_consistent():
    csr = random_csr(200, 190, 0.06, seed=12)
    b = np.random.default_rng(12).standard_normal((190, 16))
    with Server(workers=1) as srv:
        for _ in range(6):
            srv.submit_spmm(csr, b).result(TIMEOUT)
        snap = srv.snapshot()
    assert snap.execution.count == 6
    assert snap.queue_wait.count == 6
    assert snap.execution.p50_s > 0.0
    assert snap.queue_wait.p50_s >= 0.0
    # Per-sample latency = wait + execution, so the percentile of the
    # end-to-end reservoir dominates the execution-only one.
    assert snap.latency_p50_s >= snap.execution.p50_s
    assert snap.latency_mean_s == pytest.approx(
        snap.queue_wait.mean_s + snap.execution.mean_s, rel=1e-6
    )
