"""Host health state machine: retry/backoff, recovery, death forensics.

A transient transport failure must cost one resend, not a host: the
client turns SUSPECT, re-dials under its :class:`RetryPolicy`, and comes
back HEALTHY with zero user-visible errors.  Only an exhausted policy
declares the host DEAD — and then the death is *explained*: the cause
exception, its timestamp and the in-flight task land in
``stats_snapshot()``.  Everything here is driven deterministically by the
seeded :class:`~repro.testing.faults.FaultPlan`, not by signals and
sleeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr, raw_frame, scripted_worker

from repro.cluster import ClusterScheduler, RetryPolicy
from repro.cluster.head import spawn_local_host
from repro.cluster.membership import HostHealth
from repro.formats.mebcrs import MEBCRSMatrix
from repro.precision.types import Precision, quantize
from repro.serve.scheduler import ShardScheduler
from repro.testing import FaultPlan

TIMEOUT = 120


def _workload(seed=40, n=17, rows=220, cols=200, density=0.06):
    csr = random_csr(rows, cols, density, seed=seed)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    base = ShardScheduler().run_spmm(fmt, b_q, Precision.FP16, csr)
    return csr, fmt, b_q, base


# ------------------------------------------------------------- RetryPolicy
def test_retry_policy_delays_are_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.05, cap_delay_s=0.3, seed=7)
    first = list(policy.delays("host-0#1"))
    again = list(policy.delays("host-0#1"))
    other = list(policy.delays("host-1#1"))
    assert first == again, "same seed+key must replay the same backoff"
    assert first != other, "different keys must not re-dial in lockstep"
    assert len(first) == 5
    assert all(0.05 <= d <= 0.3 for d in first)
    # Exponential up to the cap: strictly growing until the cap flattens it.
    assert first[0] < first[2]


def test_retry_policy_zero_attempts_means_fail_fast():
    assert list(RetryPolicy(max_attempts=0).delays()) == []
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-0.1)


# ------------------------------------------------- SUSPECT → HEALTHY (blip)
def test_transient_drop_recovers_with_zero_user_visible_errors():
    """A dropped connection at a task frame boundary: the host goes
    SUSPECT, re-dials, resends — the caller sees a bit-exact result and
    the host ends the episode HEALTHY with no death recorded."""
    csr, fmt, b_q, base = _workload(seed=41)
    key = csr.content_key()
    plan = FaultPlan(seed=1)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.02, seed=1),
    ) as sched:
        victim = sched.affinity_host(key)
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        assert plan.fired_kinds() == ["drop_connection"]
        snap = sched.stats_snapshot()
        assert snap["host_deaths"] == 0
        assert snap["reconnects"] >= 1
        assert snap["inline_fallbacks"] == 0
        entry = snap["hosts"][victim.host_id]
        assert entry["state"] == "healthy"
        assert entry["transitions"].get("healthy->suspect", 0) >= 1
        assert entry["transitions"].get("suspect->healthy", 0) >= 1
        assert victim.state is HostHealth.HEALTHY


# --------------------------------------------- retries exhausted → DEAD
def test_exhausted_retries_declare_dead_with_failover_and_forensics():
    """Drop + refused re-dials: the RetryPolicy runs dry, the host goes
    DEAD, the shards fail over bit-identically — and the death record in
    ``stats_snapshot()`` carries cause, timestamp and the in-flight task."""
    csr, fmt, b_q, base = _workload(seed=42)
    key = csr.content_key()
    plan = FaultPlan(seed=2)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.02, seed=2),
        auto_readmit=False,  # keep DEAD stable for the assertions
    ) as sched:
        victim = sched.affinity_host(key)
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        plan.refuse_connect(2, scope=victim.host_id)  # both backoff re-dials
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        assert "refuse_connect" in plan.fired_kinds()
        snap = sched.stats_snapshot()
        assert snap["host_deaths"] == 1
        assert snap["failovers"] >= 1 and snap["shards_failed_over"] >= 1
        assert snap["reconnect_attempts"] >= 2
        assert victim.state is HostHealth.DEAD
        # Satellite: _mark_dead records cause, timestamp and in-flight task.
        failure = snap["hosts"][victim.host_id]["last_failure"]
        assert failure is not None
        assert failure["cause_type"] == "ConnectionRefusedError"
        assert "fault injection" in failure["cause"]
        assert failure["at_unix"] > 0
        assert "spmm shard" in failure["in_flight"]
        assert snap["death_log"] and snap["death_log"][-1]["host"] == victim.host_id


def test_close_is_prompt_after_a_dropped_connection():
    """A host whose connection dropped for good never receives the shutdown
    frame; ``close()`` terminates its worker at once instead of waiting out
    the bounded join, and leaves no worker process behind."""
    import time

    csr, fmt, b_q, base = _workload(seed=46)
    key = csr.content_key()
    plan = FaultPlan(seed=6)
    sched = ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=0),  # the first drop is fatal
        auto_readmit=False,
    )
    try:
        victim = sched.affinity_host(key)
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        assert victim.state is HostHealth.DEAD
    finally:
        t0 = time.perf_counter()
        sched.close()
        elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"close() took {elapsed:.2f} s"
    assert not any(h.process.is_alive() for h in sched.hosts)


# ------------------------------------------------------------- one copy
def test_dropped_task_connection_completes_within_the_default_backoff():
    """The one recovery path for a blip, under the default ``RetryPolicy``:
    the dropped ``task`` frame waits out one 50 ms re-dial and resends on
    the fresh connection — no failover, no second copy, well under 1 s."""
    import time

    csr, fmt, b_q, base = _workload(seed=44)
    key = csr.content_key()
    plan = FaultPlan(seed=4)
    with ClusterScheduler(hosts=2, fault_plan=plan) as sched:
        victim = sched.affinity_host(key)
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        t0 = time.perf_counter()
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        elapsed = time.perf_counter() - t0
        np.testing.assert_array_equal(out, base)
        assert plan.fired_kinds() == ["drop_connection"]
        snap = sched.stats_snapshot()
        assert snap["failovers"] == 0
        assert snap["reconnects"] >= 1
    assert elapsed < 1.0, f"request took {elapsed:.2f} s"


# --------------------------------------------------------- max_frame_bytes
def test_head_side_frame_limit_bounds_result_frames_then_fails_over():
    """A head-side ``max_frame_bytes`` below the result size rejects every
    reply before allocation; the bounded per-task recovery budget then
    declares the host DEAD (no livelock through eternally-successful
    reconnects) and the request completes in-parent, still exactly."""
    import multiprocessing as mp

    csr, fmt, b_q, base = _workload(seed=45)
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
    process, address = spawn_local_host(ctx, "oversize-test")
    try:
        with ClusterScheduler(
            addresses=[address],
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.01, seed=5),
            max_frame_bytes=4096,  # far below the dense result rows
            auto_readmit=False,
        ) as sched:
            out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=10_000, csr=csr)
            np.testing.assert_array_equal(out, base)
            snap = sched.stats_snapshot()
            assert snap["frames_oversized"] >= 1
            assert snap["host_deaths"] == 1
            assert snap["inline_fallbacks"] > 0
            failure = snap["hosts"]["host-0"]["last_failure"]
            assert failure["cause_type"] == "FrameTooLargeError"
    finally:
        if process.is_alive():
            process.terminate()
        process.join(10)


def test_head_side_frame_limit_also_bounds_the_shutdown_reply():
    """The worker's ``bye`` is read under the same ``max_frame_bytes`` as
    every other reply: an over-limit declaration there raises before a
    byte of it is allocated or awaited, and ``close()`` still returns."""
    import time
    import tracemalloc

    from repro.cluster.transport import _BUF_LEN, VERSION

    def oversized_bye(conn, header):
        huge = {"dtype": "<f4", "shape": [1 << 28], "crc32": 0}  # declares 1 GiB
        conn.sendall(raw_frame(VERSION, {"type": "bye", "arrays": [huge]}, n_bufs=1))
        conn.sendall(_BUF_LEN.pack(1 << 30))
        conn.settimeout(60)
        conn.recv(1)  # never sends the payload; waits for the head to hang up

    address, thread = scripted_worker(on_shutdown=oversized_bye)
    sched = ClusterScheduler(
        addresses=[address],
        max_frame_bytes=4096,
        heartbeat_timeout_s=30.0,  # what an unbounded read would sit out
        auto_readmit=False,
    )
    tracemalloc.start()
    started = time.monotonic()
    try:
        sched.close()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.monotonic() - started < 5.0
    assert peak < 64 * 1024 * 1024
    thread.join(10)
    assert not thread.is_alive()
