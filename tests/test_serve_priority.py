"""Dispatch order: arrival order, with same-matrix coalescing.

The dispatcher is parked deterministically (the ``_execute_group`` gate of
the overload suite) so a backlog builds under contention; releasing the
gate then exposes the dispatch order.  Each pass runs the oldest waiting
request plus its later same-matrix siblings: a later request never
overtakes an earlier one, whatever its deadline, and a sibling rides in
its head's pass while an unrelated request that arrived between them waits
for the next one.  A cancelled request is dropped before its batch runs.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from helpers import random_csr

from repro.core.api import spmm
from repro.serve import Server

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
def test_distinct_matrices_run_in_arrival_order():
    """Distinct matrices run one pass each, in the order they arrived."""
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


def test_later_tighter_deadline_does_not_overtake():
    """A deadline only sheds a request that waited too long; it does not
    move a later request ahead of an earlier one."""
    (m0, b0), (m1, b1), (m2, b2) = _distinct_workloads(3)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        futures = {
            "early": srv.submit_spmm(m1, b1),
            "late_tight": srv.submit_spmm(m2, b2, timeout=60.0),
        }
        order = _completion_order(futures)
        gate.release.set()
        for fut in futures.values():
            fut.result(TIMEOUT)
        blocker.result(TIMEOUT)
    assert order == ["early", "late_tight"]


def test_same_matrix_sibling_rides_in_the_heads_pass():
    """A later same-matrix request joins the oldest request's pass; an
    unrelated request that arrived between them waits for the next pass."""
    (m0, b0), (m1, b1), (m2, b2) = _distinct_workloads(3)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(m0, b0)
        gate.entered.wait(TIMEOUT)
        futures = {
            "head": srv.submit_spmm(m1, b1),
            "unrelated": srv.submit_spmm(m2, b2),
            "sibling": srv.submit_spmm(m1, b1),
        }
        order = _completion_order(futures)
        gate.release.set()
        ref = spmm(m1, b1).values
        np.testing.assert_array_equal(futures["head"].result(TIMEOUT).values, ref)
        np.testing.assert_array_equal(futures["sibling"].result(TIMEOUT).values, ref)
        futures["unrelated"].result(TIMEOUT)
        blocker.result(TIMEOUT)
        assert gate.calls == 3  # blocker, head + sibling, unrelated
    assert order == ["head", "sibling", "unrelated"]
    assert srv.snapshot().requests_coalesced == 2


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


def test_backend_and_hosts_validated():
    with pytest.raises(ValueError):
        Server(workers=1, backend="thundering-herd")
    with pytest.raises(ValueError):
        Server(workers=1, backend="local", hosts=2)
    with pytest.raises(ValueError):
        Server(backend="cluster", hosts=-1)
