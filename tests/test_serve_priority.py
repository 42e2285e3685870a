"""Priority-aware dispatch and cost-aware load shedding.

The dispatcher is parked deterministically (the ``_execute_group`` gate of
the overload suite) so a backlog builds under contention; releasing the
gate then exposes the dispatch order: priority classes first, earliest
deadline first within a class, FIFO as the tie-break — and, with a
watermark set, the most expensive backlog entries shed before anything
executes.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from helpers import random_csr

from repro.core.api import spmm
from repro.serve import ServeShedError, Server

TIMEOUT = 120


class _Gate:
    """Deterministic dispatcher block (see ``test_serve_overload``)."""

    def __init__(self, server: Server):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._original = server._execute_group
        server._execute_group = self

    def __call__(self, group):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(TIMEOUT), "gate never released"
        self._original(group)


def _distinct_workloads(n, rows=90, cols=80, width=8):
    """n distinct matrices (distinct content keys: no same-matrix batching)."""
    out = []
    for seed in range(n):
        csr = random_csr(rows, cols, 0.08, seed=100 + seed)
        b = np.random.default_rng(seed).standard_normal((cols, width))
        out.append((csr, b))
    return out


def _completion_order(futures_by_label):
    order = []
    lock = threading.Lock()
    for label, fut in futures_by_label.items():
        def record(f, label=label):
            with lock:
                order.append(label)
        fut.add_done_callback(record)
    return order


# ------------------------------------------------------------------ ordering
def test_priority_classes_override_fifo_under_contention():
    (m0, b0), (m1, b1), (m2, b2), (m3, b3) = _distinct_workloads(4)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)  # drained immediately, parks at gate
        gate.entered.wait(TIMEOUT)
        futures = {
            "low": srv.submit_spmm(m1, b1, priority=0),
            "mid": srv.submit_spmm(m2, b2, priority=5),
            "high": srv.submit_spmm(m3, b3, priority=9),
        }
        order = _completion_order(futures)
        gate.release.set()
        for fut in futures.values():
            fut.result(TIMEOUT)
        blocker.result(TIMEOUT)
    assert order == ["high", "mid", "low"]


def test_edf_orders_within_a_priority_class():
    (m0, b0), (m1, b1), (m2, b2), (m3, b3) = _distinct_workloads(4)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        futures = {
            # Same class; deadlines 60s / 30s / none, submitted in the
            # *opposite* of their deadline order.
            "no_deadline": srv.submit_spmm(m1, b1, priority=3),
            "loose": srv.submit_spmm(m2, b2, priority=3, timeout=60.0),
            "tight": srv.submit_spmm(m3, b3, priority=3, timeout=30.0),
        }
        order = _completion_order(futures)
        gate.release.set()
        for fut in futures.values():
            fut.result(TIMEOUT)
        blocker.result(TIMEOUT)
    assert order == ["tight", "loose", "no_deadline"]


def test_fifo_tie_break_within_class_and_deadline():
    (m0, b0), (m1, b1), (m2, b2), (m3, b3) = _distinct_workloads(4)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        futures = {
            "first": srv.submit_spmm(m1, b1),
            "second": srv.submit_spmm(m2, b2),
            "third": srv.submit_spmm(m3, b3),
        }
        order = _completion_order(futures)
        gate.release.set()
        for fut in futures.values():
            fut.result(TIMEOUT)
        blocker.result(TIMEOUT)
    assert order == ["first", "second", "third"]


def test_late_high_priority_overtakes_waiting_backlog():
    """A high-priority request submitted *while* a group runs must execute
    before the lower-priority backlog that arrived earlier."""
    workloads = _distinct_workloads(4)
    (m0, b0), (m1, b1), (m2, b2), (m3, b3) = workloads
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        futures = {}
        futures["early_low_1"] = srv.submit_spmm(m1, b1, priority=0)
        futures["early_low_2"] = srv.submit_spmm(m2, b2, priority=0)
        futures["late_high"] = srv.submit_spmm(m3, b3, priority=7)
        order = _completion_order(futures)
        gate.release.set()
        for fut in futures.values():
            fut.result(TIMEOUT)
        blocker.result(TIMEOUT)
    assert order[0] == "late_high"


def test_same_matrix_batching_survives_priority_ordering():
    """Same-key requests still coalesce into one engine pass when one of
    them leads the dispatch order."""
    (m0, b0), (m1, b1) = _distinct_workloads(2)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        high = srv.submit_spmm(m1, b1, priority=9)
        rider = srv.submit_spmm(m1, b1, priority=0)  # same matrix: rides along
        gate.release.set()
        ref = spmm(m1, b1).values
        np.testing.assert_array_equal(high.result(TIMEOUT).values, ref)
        np.testing.assert_array_equal(rider.result(TIMEOUT).values, ref)
        blocker.result(TIMEOUT)
        assert gate.calls == 2  # blocker + one coalesced pass
    assert srv.snapshot().requests_coalesced == 2


# ------------------------------------------------------------- cost shedding
def test_watermark_sheds_most_expensive_first():
    base = random_csr(90, 80, 0.08, seed=50)
    rng = np.random.default_rng(50)
    widths = {"tiny": 1, "huge": 64, "small": 2, "large": 48, "mid": 3}
    with Server(workers=1, shed_watermark=2) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(base, rng.standard_normal((80, 4)))
        gate.entered.wait(TIMEOUT)
        futures = {}
        for seed, (label, width) in enumerate(widths.items()):
            csr = random_csr(90, 80, 0.08, seed=200 + seed)
            futures[label] = srv.submit_spmm(csr, rng.standard_normal((80, width)))
        gate.release.set()
        # 5 pending over a watermark of 2: the 3 most expensive (by FLOPs ∝
        # width here) are shed, the cheap majority executes.
        for label in ("huge", "large", "mid"):
            with pytest.raises(ServeShedError):
                futures[label].result(TIMEOUT)
        for label in ("tiny", "small"):
            assert futures[label].result(TIMEOUT) is not None
        blocker.result(TIMEOUT)
    snap = srv.snapshot()
    assert snap.requests_cost_shed == 3
    assert snap.requests_shed == 3
    assert snap.requests_completed == 3  # blocker + tiny + small
    assert snap.in_flight == 0
    assert snap.queue_wait.count >= 3  # shed waits are the overload signal


def test_no_shedding_at_or_under_watermark():
    (m0, b0), (m1, b1), (m2, b2) = _distinct_workloads(3)
    with Server(workers=1, shed_watermark=2) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        f1 = srv.submit_spmm(m1, b1)
        f2 = srv.submit_spmm(m2, b2)
        gate.release.set()
        assert f1.result(TIMEOUT) is not None
        assert f2.result(TIMEOUT) is not None
        blocker.result(TIMEOUT)
    assert srv.snapshot().requests_cost_shed == 0


def _submit_op(srv, op, csr, b):
    """One request of every served op over ``csr`` (``b``: its column panel)."""
    rows = csr.shape[0]
    a = np.random.default_rng(1).standard_normal((rows, b.shape[1]))
    if op == "spmm":
        return srv.submit_spmm(csr, b)
    if op == "sddmm":
        return srv.submit_sddmm(csr, a, b)
    return srv.submit_layer(csr, a, b, b, scale=0.5)


def _result_values(result):
    output = getattr(result, "output", None)  # SDDMM: the sampled values
    return result.values if output is None else output.vector_values


@pytest.mark.parametrize("op", ["spmm", "sddmm", "layer"])
def test_cancelled_unexpired_request_does_not_poison_its_batch(op):
    """A queued request that is client-cancelled (no deadline, so the shed
    passes keep it) must be dropped before execution — setting a result on
    the done future would fail every later sibling in the group."""
    (m0, b0), (m1, b1) = _distinct_workloads(2)
    with Server(workers=1) as srv:
        solo = _result_values(_submit_op(srv, op, m1, b1).result(TIMEOUT))
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        doomed = _submit_op(srv, op, m1, b1)
        sibling = _submit_op(srv, op, m1, b1)  # batches with doomed where the op coalesces
        assert doomed.cancel()  # never dispatched, so cancel succeeds
        gate.release.set()
        np.testing.assert_array_equal(_result_values(sibling.result(TIMEOUT)), solo)
        blocker.result(TIMEOUT)
        assert doomed.cancelled()
    snap = srv.snapshot()
    assert snap.requests_failed == 0
    # The cancellation is a terminal outcome, counted once: the in-flight
    # identity holds.
    assert snap.requests_cancelled == 1
    assert snap.in_flight == 0


def test_shed_watermark_validated():
    with pytest.raises(ValueError):
        Server(workers=1, shed_watermark=0)


def test_backend_and_hosts_validated():
    with pytest.raises(ValueError):
        Server(workers=1, backend="thundering-herd")
    with pytest.raises(ValueError):
        Server(workers=1, backend="local", hosts=2)
    with pytest.raises(ValueError):
        Server(backend="cluster", hosts=-1)
