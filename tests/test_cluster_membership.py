"""Live membership: runtime add/remove, probe-driven readmission.

The fleet is mutable while serving: ``add_host`` joins a running worker
and rendezvous routing folds it in, ``remove_host`` drains in-flight
shards before cutting the host loose, and the background
:class:`MembershipProbe` brings DEAD hosts back — readmission restores
their affinity keys *and* their still-warm translation caches.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from helpers import random_csr

from repro.cluster import ClusterScheduler, MembershipError, RetryPolicy
from repro.cluster.head import spawn_local_host
from repro.cluster.membership import HostHealth
from repro.core.api import spmm as api_spmm
from repro.formats.mebcrs import MEBCRSMatrix
from repro.precision.types import Precision, quantize
from repro.serve.scheduler import ShardScheduler
from repro.serve.server import Server
from repro.testing import FaultPlan

TIMEOUT = 120


def _workload(seed=50, n=17, rows=220, cols=200, density=0.06):
    csr = random_csr(rows, cols, density, seed=seed)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    base = ShardScheduler().run_spmm(fmt, b_q, Precision.FP16, csr)
    return csr, fmt, b_q, base


def _fork_ctx():
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)


def _reap(process):
    if process.is_alive():
        process.terminate()
    process.join(10)


# ---------------------------------------------------------------- add_host
def test_add_host_joins_live_cluster_and_takes_traffic():
    csr, fmt, b_q, base = _workload(seed=51)
    ctx = _fork_ctx()
    process, address = spawn_local_host(ctx, "joiner")
    try:
        with ClusterScheduler(hosts=1) as sched:
            assert len(sched.hosts) == 1
            joined = sched.add_host(address)
            assert len(sched.hosts) == 2
            assert joined.state is HostHealth.HEALTHY
            # Distinct matrices spread over both hosts eventually; at
            # minimum the joined host is routable and requests stay exact.
            out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
            np.testing.assert_array_equal(out, base)
            snap = sched.stats_snapshot()
            assert snap["hosts_added"] == 1
            assert joined.host_id in snap["hosts"]
            with pytest.raises(MembershipError):
                sched.add_host(address, host_id=joined.host_id)
    finally:
        _reap(process)


def test_add_host_rejected_on_closed_cluster():
    sched = ClusterScheduler(hosts=0)
    sched.close()
    with pytest.raises(MembershipError):
        sched.add_host(("127.0.0.1", 1))


# ------------------------------------------------------------- remove_host
def test_remove_host_drains_in_flight_shards():
    """Removal with ``drain=True`` lets queued/in-flight shards finish on
    the leaving host: the caller sees an exact result and no host death."""
    csr, fmt, b_q, base = _workload(seed=52)
    key = csr.content_key()
    with ClusterScheduler(hosts=2) as sched:
        victim = sched.affinity_host(key)
        sched.inject_task_delay_s = 0.2  # keep shards in flight during removal
        result = {}
        t = threading.Thread(
            target=lambda: result.update(
                out=sched.run_spmm(
                    fmt, b_q, Precision.FP16, target_blocks=10_000, csr=csr, content_key=key
                )
            )
        )
        t.start()
        deadline = time.monotonic() + TIMEOUT
        while sched.metrics.snapshot()["tasks_sent"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        sched.remove_host(victim.host_id, drain=True)
        t.join(TIMEOUT)
        assert not t.is_alive()
        np.testing.assert_array_equal(result["out"], base)
        assert len(sched.hosts) == 1
        snap = sched.stats_snapshot()
        assert snap["hosts_removed"] == 1
        assert snap["host_deaths"] == 0, "a drained removal is not a death"
        assert snap["hosts"][victim.host_id]["state"] == "removed"
        # The survivor serves follow-up traffic.
        sched.inject_task_delay_s = 0.0
        out2 = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out2, base)
        with pytest.raises(MembershipError):
            sched.remove_host(victim.host_id)


def test_remove_host_without_drain_fails_queued_shards_over():
    """``drain=False`` while shards are still queued behind the in-flight
    one: the stopped client fails them with ``HostDeadError``, they fail
    over to the survivor, and the request completes exactly.  The client
    ends DEAD with its socket closed, and no death is recorded."""
    csr, fmt, b_q, base = _workload(seed=53)
    key = csr.content_key()
    with ClusterScheduler(hosts=2, auto_readmit=False) as sched:
        victim = sched.affinity_host(key)
        sched.inject_task_delay_s = 0.2  # keep shards queued during removal
        result = {}
        t = threading.Thread(
            target=lambda: result.update(
                out=sched.run_spmm(
                    fmt, b_q, Precision.FP16, target_blocks=3, csr=csr, content_key=key
                )
            ),
            daemon=True,  # a hung request must not hang the suite
        )
        t.start()
        deadline = time.monotonic() + TIMEOUT
        while sched.metrics.snapshot()["tasks_sent"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert victim.client._inbox.qsize() > 0, "no shard queued behind the first"
        sched.inject_task_delay_s = 0.0  # spare the failover round
        sched.remove_host(victim.host_id, drain=False)
        t.join(10.0)
        assert not t.is_alive(), "queued shards never failed over"
        np.testing.assert_array_equal(result["out"], base)
        assert victim.client.state is HostHealth.DEAD
        assert victim.client._sock is None
        snap = sched.stats_snapshot()
        assert snap["failovers"] >= 1
        assert snap["host_deaths"] == 0, "a removal is not a death"


# ------------------------------------------------------------- readmission
def test_dead_host_readmitted_by_probe_with_warm_cache():
    """DEAD → RECOVERING → HEALTHY: refusals first exhaust the retry
    policy (death) and then hold off the probe; once they run out the
    probe re-dials, warm-up pings, and readmits — and because the worker
    process never died, its translation cache still serves the matrix
    without a second miss."""
    csr, fmt, b_q, base = _workload(seed=53)
    key = csr.content_key()
    plan = FaultPlan(seed=6)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.01, seed=6),
        probe_interval_s=0.1,
    ) as sched:
        victim = sched.affinity_host(key)
        # Warm the victim's cache with one clean request.
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        misses_before = sched.stats_snapshot()["hosts"][victim.host_id]["cache"]["misses"]
        # Kill the connection; 1 backoff re-dial + 2 probe dials refused.
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        plan.refuse_connect(3, scope=victim.host_id)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)  # failover covered the gap
        assert sched.stats_snapshot()["host_deaths"] == 1
        deadline = time.monotonic() + TIMEOUT
        while victim.state is not HostHealth.HEALTHY:
            assert time.monotonic() < deadline, "probe never readmitted the host"
            time.sleep(0.02)
        snap = sched.stats_snapshot()
        assert snap["hosts_readmitted"] == 1
        assert snap["probe_dials"] >= 1
        entry = snap["hosts"][victim.host_id]
        assert entry["state"] == "healthy"
        assert entry["transitions"].get("dead->recovering", 0) == 1
        assert entry["transitions"].get("recovering->healthy", 0) == 1
        assert entry["time_in_state"].get("dead", 0.0) > 0.0
        # Affinity is restored and the cache survived the outage: repeat
        # traffic for the key lands on the readmitted host without a new
        # translation miss.
        assert sched.affinity_host(key).host_id == victim.host_id
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        # (The failover run cost the *survivor* a miss; the victim's own
        # cache must not have lost the translation across the outage.)
        misses_after = sched.stats_snapshot()["hosts"][victim.host_id]["cache"]["misses"]
        assert misses_after == misses_before == 1


def test_auto_readmit_off_leaves_dead_hosts_dead():
    csr, fmt, b_q, base = _workload(seed=54)
    key = csr.content_key()
    plan = FaultPlan(seed=7)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.01, seed=7),
        auto_readmit=False,
    ) as sched:
        victim = sched.affinity_host(key)
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        plan.refuse_connect(1, scope=victim.host_id)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        assert sched.membership is None
        time.sleep(0.3)
        assert victim.state is HostHealth.DEAD
        # Manual readmission still works through the same entry point.
        assert sched.try_readmit(victim)
        assert victim.state is HostHealth.HEALTHY


# ------------------------------------------------------ server integration
def test_server_exposes_cluster_membership_surface():
    csr = random_csr(180, 160, 0.06, seed=55)
    b = np.random.default_rng(55).standard_normal((160, 12))
    ref = api_spmm(csr, b)
    ctx = _fork_ctx()
    process, address = spawn_local_host(ctx, "server-joiner")
    try:
        with Server(backend="cluster", hosts=1) as srv:
            np.testing.assert_array_equal(
                srv.submit_spmm(csr, b).result(TIMEOUT).values, ref.values
            )
            joined = srv.cluster.add_host(address)
            assert len(srv.cluster.hosts) == 2
            # Plans follow live membership: the per-host split re-plans
            # under the new host count instead of serving a stale cache.
            np.testing.assert_array_equal(
                srv.submit_spmm(csr, b).result(TIMEOUT).values, ref.values
            )
            srv.cluster.remove_host(joined.host_id, drain=True)
            assert len(srv.cluster.hosts) == 1
            np.testing.assert_array_equal(
                srv.submit_spmm(csr, b).result(TIMEOUT).values, ref.values
            )
            snap = srv.cluster.stats_snapshot()
            assert snap["hosts_added"] == 1 and snap["hosts_removed"] == 1
        assert srv.snapshot().requests_failed == 0
    finally:
        _reap(process)


def test_local_backend_has_no_cluster_surface():
    with Server(workers=1) as srv:
        with pytest.raises(ValueError):
            srv.cluster
