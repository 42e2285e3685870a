"""Multi-host cluster scheduler: parity grid, affinity, failure recovery.

The headline contract mirrors the single-host scheduler's, one level up:
cluster execution is **bit-identical** to the single-process one-shot path
for both kernels, across formats (ME-BCRS and SGT16), shard counts and
host counts — through real worker-host subprocesses and a real TCP
transport — and a host killed mid-shard loses no request: its shards fail
over to the survivors and the result is still exact.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from helpers import random_csr

from repro.cluster import ClusterScheduler
from repro.core.api import spmm as api_spmm
from repro.formats.blocked import BlockedVectorFormat
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK as FLASH_GROUP
from repro.kernels.sddmm_tcu16 import VECTORS_PER_OUTPUT_BLOCK as TCU16_GROUP
from repro.precision.types import Precision, quantize
from repro.serve.scheduler import ShardScheduler
from repro.serve.server import Server

TIMEOUT = 120

#: Shard-size grid: single-block shards, a prime straddling windows, and
#: larger-than-batch (single shard).
TARGETS = (1, 7, 10_000)

_FORMATS = {
    "mebcrs": (MEBCRSMatrix, FLASH_GROUP),
    "sgt16": (SGT16Matrix, TCU16_GROUP),
}


def _workload(fmt_name="mebcrs", seed=4, n=33, rows=300, cols=280, density=0.05):
    cls, group = _FORMATS[fmt_name]
    csr = random_csr(rows, cols, density, seed=seed)
    fmt = cls.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    a_q = quantize(rng.standard_normal((rows, n)), Precision.FP16).astype(np.float32)
    ref = ShardScheduler()
    base = ref.run_spmm(fmt, b_q, Precision.FP16, csr)
    sbase = ref.run_sddmm(fmt, a_q, b_q, Precision.FP16, group, csr)
    return csr, fmt, group, a_q, b_q, base, sbase


# One two-host cluster per module: host spawn is the slow part.  The
# failure-injection tests that kill hosts build their own clusters.
@pytest.fixture(scope="module")
def cluster():
    with ClusterScheduler(hosts=2) as scheduler:
        yield scheduler


# -------------------------------------------------------------- parity grid
@pytest.mark.parametrize("fmt_name", ["mebcrs", "sgt16"])
@pytest.mark.parametrize("target", TARGETS)
def test_spmm_cluster_parity_grid(cluster, fmt_name, target):
    csr, fmt, _, _, b_q, base, _ = _workload(fmt_name)
    out = cluster.run_spmm(
        fmt, b_q, Precision.FP16, target_blocks=target, csr=csr
    )
    np.testing.assert_array_equal(out, base)


@pytest.mark.parametrize("fmt_name", ["mebcrs", "sgt16"])
@pytest.mark.parametrize("target", (1, 10_000))
def test_sddmm_cluster_parity_grid(cluster, fmt_name, target):
    csr, fmt, group, a_q, b_q, _, sbase = _workload(fmt_name)
    vals = cluster.run_sddmm(
        fmt, a_q, b_q, Precision.FP16, group, target_blocks=target, csr=csr
    )
    np.testing.assert_array_equal(vals, sbase)


def test_single_host_cluster_parity():
    csr, fmt, group, a_q, b_q, base, sbase = _workload(seed=9)
    with ClusterScheduler(hosts=1) as one:
        out = one.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        vals = one.run_sddmm(
            fmt, a_q, b_q, Precision.FP16, group, target_blocks=7, csr=csr
        )
        np.testing.assert_array_equal(vals, sbase)
        assert one.stats_snapshot()["inline_fallbacks"] == 0


def test_plain_16_row_format_is_shipped_as_its_vector_size():
    """The format kind on the wire comes from ``fmt.vector_size``, not the
    format's class: a 16-row format that is not an ``SGT16Matrix`` instance
    (what ``sddmm_tcu16_execute`` returns as ``.output``) used to be labelled
    ``mebcrs``, translated at 8 rows by the worker and sliced with the
    head's 16-row window range — a wrong SpMM answer with no error."""
    csr, sgt, group, a_q, b_q, base, sbase = _workload("sgt16", seed=12, rows=200, cols=150)
    plain = BlockedVectorFormat(
        partition=sgt.partition, vector_values=sgt.vector_values, k=sgt.k, precision=sgt.precision
    )
    assert not isinstance(plain, SGT16Matrix)
    with ClusterScheduler(hosts=1) as one:
        out = one.run_spmm(plain, b_q, Precision.FP16, csr=csr)
        np.testing.assert_array_equal(out, base)
        vals = one.run_sddmm(plain, a_q, b_q, Precision.FP16, group, csr=csr)
        np.testing.assert_array_equal(vals, sbase)
        assert one.stats_snapshot()["inline_fallbacks"] == 0
        # A vector size no format kind has is refused before anything is sent.
        odd = BlockedVectorFormat.from_csr(csr, vector_size=4, k=8, precision="fp16")
        sent = one.stats_snapshot()["tasks_sent"]
        with pytest.raises(ValueError, match="format kind"):
            one.run_spmm(odd, b_q, Precision.FP16, csr=csr)
        assert one.stats_snapshot()["tasks_sent"] == sent


def test_zero_host_cluster_degrades_to_in_parent():
    """A cluster with no worker hosts is the degenerate single-host setup:
    every shard runs in-parent, still bit-identically."""
    csr, fmt, group, a_q, b_q, base, sbase = _workload(seed=10)
    with ClusterScheduler(hosts=0) as none:
        out = none.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        vals = none.run_sddmm(
            fmt, a_q, b_q, Precision.FP16, group, target_blocks=7, csr=csr
        )
        np.testing.assert_array_equal(vals, sbase)
        snap = none.stats_snapshot()
        assert snap["inline_fallbacks"] == snap["shards"] > 0
        assert snap["tasks_sent"] == 0


def test_scale_by_mask_parity(cluster):
    csr, fmt, group, a_q, b_q, _, _ = _workload(seed=11)
    ref = ShardScheduler().run_sddmm(
        fmt, a_q, b_q, Precision.FP16, group, csr, scale_by_mask=True
    )
    vals = cluster.run_sddmm(
        fmt,
        a_q,
        b_q,
        Precision.FP16,
        group,
        scale_by_mask=True,
        target_blocks=5,
        csr=csr,
    )
    np.testing.assert_array_equal(vals, ref)


def test_degenerate_empty_matrix(cluster):
    empty_csr = random_csr(24, 18, 0.0, ensure_nonempty=False, seed=1)
    fmt = MEBCRSMatrix.from_csr(empty_csr, precision="fp16")
    out = cluster.run_spmm(
        fmt, np.ones((18, 5), np.float32), Precision.FP16, csr=empty_csr
    )
    assert out.shape == (24, 5) and not out.any()


def test_content_key_derived_from_csr_when_omitted(cluster):
    """Direct callers may omit the routing key; the head digests the CSR
    it ships, routes by that key, and the result stays exact."""
    csr, fmt, _, _, b_q, base, _ = _workload(seed=12)
    target = cluster.affinity_host(csr.content_key()).host_id
    before = cluster.metrics.snapshot()["hosts"][target]["tasks_sent"]
    out = cluster.run_spmm(fmt, b_q, Precision.FP16, csr, target_blocks=7)
    np.testing.assert_array_equal(out, base)
    snap = cluster.metrics.snapshot()
    assert snap["hosts"][target]["tasks_sent"] > before


# ---------------------------------------------------------------- affinity
def test_content_affinity_routes_repeats_to_one_host_and_hits_its_cache():
    csr, fmt, _, _, b_q, base, _ = _workload(seed=13)
    with ClusterScheduler(hosts=2) as fresh:
        key = csr.content_key()
        target = fresh.affinity_host(key)
        for _ in range(3):
            out = fresh.run_spmm(
                fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key
            )
            np.testing.assert_array_equal(out, base)
        snap = fresh.metrics.snapshot()
        per_host = snap["hosts"]
        # Every task went to the affinity host; the other host saw none.
        others = [h for h in per_host if h != target.host_id]
        assert per_host[target.host_id]["tasks_sent"] == snap["tasks_sent"] > 0
        for other in others:
            assert per_host[other]["tasks_sent"] == 0
        # The host's own lane cache dedups across tasks: one miss (the
        # first shard) and a hit for every later shard of the matrix.
        cache = fresh.metrics.remote_cache_stats()
        assert cache.misses == 1
        assert cache.hits == snap["tasks_sent"] - 1
        assert cache.hit_rate > 0.8


# ----------------------------------------------------------- host failures
def test_kill_host_mid_shard_fails_over_bit_identically():
    csr, fmt, _, _, b_q, base, _ = _workload(seed=14)
    key = csr.content_key()
    with ClusterScheduler(hosts=2) as fresh:
        victim = fresh.affinity_host(key)
        fresh.inject_task_delay_s = 1.0  # hold the shard in flight
        result = {}
        t = threading.Thread(
            target=lambda: result.update(
                out=fresh.run_spmm(
                    fmt, b_q, Precision.FP16, target_blocks=30, csr=csr, content_key=key
                )
            )
        )
        t.start()
        deadline = time.monotonic() + TIMEOUT
        while fresh.metrics.snapshot()["tasks_sent"] < 1:
            assert time.monotonic() < deadline, "no task ever reached the victim"
            time.sleep(0.01)
        victim.process.kill()  # SIGKILL: no goodbye, the socket just resets
        fresh.inject_task_delay_s = 0.0  # the survivor's re-dispatch runs at once
        t.join(TIMEOUT)
        assert not t.is_alive(), "run_spmm hung after the host died"
        np.testing.assert_array_equal(result["out"], base)
        snap = fresh.stats_snapshot()
        assert snap["host_deaths"] == 1
        assert snap["failovers"] >= 1 and snap["shards_failed_over"] >= 1
        assert not victim.alive
        # The survivor keeps serving new requests.
        out2 = fresh.run_spmm(fmt, b_q, Precision.FP16, csr=csr, content_key=key)
        np.testing.assert_array_equal(out2, base)


def test_all_hosts_dead_falls_back_in_parent():
    csr, fmt, _, _, b_q, base, _ = _workload(seed=15)
    with ClusterScheduler(hosts=1) as fresh:
        fresh.hosts[0].process.kill()
        # Heartbeat or first-send failure flags the host; either way the
        # request must complete in-parent.
        out = fresh.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        assert fresh.stats_snapshot()["inline_fallbacks"] > 0


def test_idle_host_death_detected_by_heartbeat():
    csr, *_ = _workload(seed=16)
    with ClusterScheduler(
        hosts=2, heartbeat_interval_s=0.1, heartbeat_timeout_s=1.0
    ) as fresh:
        victim = fresh.affinity_host(csr.content_key())
        victim.process.kill()
        deadline = time.monotonic() + TIMEOUT
        while victim.alive and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not victim.alive, "heartbeat never declared the idle host dead"
        assert fresh.stats_snapshot()["host_deaths"] == 1
        assert len(fresh.live_hosts()) == 1


def test_worker_survives_head_disconnect_and_reconnect():
    """A head that vanishes mid-task (socket closed before the reply is
    read) must not kill the worker host: it goes back to accept and serves
    a reconnecting head from its still-warm cache."""
    import multiprocessing as mp
    import socket as socket_mod

    from repro.cluster.head import spawn_local_host
    from repro.cluster.transport import client_handshake, recv_message, send_message

    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
    process, address = spawn_local_host(ctx, "reconnect-test")
    try:
        csr = random_csr(60, 50, 0.1, seed=30)
        task = {
            "type": "task",
            "task_id": 0,
            "op": "spmm",
            "fmt": "mebcrs",
            "precision": "fp16",
            "shape": list(csr.shape),
            "content_key": csr.content_key(),
            "lo": 0,
            "hi": 10**9,
            "w0": 0,
            "w1": 10**9,
            "delay_s": 0.3,
        }
        fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
        batch = fmt.blocks_as_arrays()
        task["hi"], task["w1"] = batch.num_blocks, fmt.num_windows
        b_q = np.ones((50, 4), np.float32)
        task["store_structure"], task["store_values"] = "struct/k@0", "vals/k@0"
        task["store_operands"] = ["op/b@0"]

        first = socket_mod.create_connection(address, timeout=10)
        first.settimeout(10)
        client_handshake(first)
        # The first task frame pushes its bundles: [key, array count] in
        # buffer order, the arrays as the frame's buffers.
        push = [["struct/k@0", 2], ["vals/k@0", 1], ["op/b@0", 1]]
        send_message(first, dict(task, push=push), [csr.indptr, csr.indices, csr.data, b_q])
        first.close()  # vanish while the worker is still computing
        time.sleep(0.6)  # let the worker finish the task and hit the send
        assert process.is_alive(), "worker died on the reply-send failure"

        second = socket_mod.create_connection(address, timeout=10)
        second.settimeout(10)
        client_handshake(second)
        send_message(second, dict(task, delay_s=0.0))
        header, arrays, _ = recv_message(second)
        assert header["type"] == "result"
        # The warm cache served the repeat: the first task's miss, this hit
        # — and the pinned store outlived the first connection too.
        assert header["cache"]["hits"] >= 1
        send_message(second, {"type": "shutdown"})
        recv_message(second)
        second.close()
    finally:
        if process.is_alive():
            process.terminate()
        process.join(10)


# ------------------------------------------------------- serving integration
def test_server_hosts_follow_explicit_addresses():
    """`cluster_options={"addresses": ...}` overrides the spawn count; the
    server's planner/concurrency host count must follow the hosts actually
    registered, not the (absent) spawn request."""
    import multiprocessing as mp

    from repro.cluster.head import spawn_local_host

    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
    spawned = [spawn_local_host(ctx, f"ext-{i}") for i in range(2)]
    try:
        with Server(
            backend="cluster",
            cluster_options={"addresses": [addr for _, addr in spawned]},
        ) as srv:
            assert srv.hosts == 2
            assert srv.group_concurrency == 2
            assert len(srv.scheduler.hosts) == 2
            csr = random_csr(80, 70, 0.08, seed=31)
            b = np.random.default_rng(31).standard_normal((70, 8))
            np.testing.assert_array_equal(
                srv.submit_spmm(csr, b).result(TIMEOUT).values, api_spmm(csr, b).values
            )
    finally:
        for process, _ in spawned:
            if process.is_alive():
                process.terminate()
            process.join(10)



def test_cluster_backend_server_requests_are_bit_identical():
    csr = random_csr(200, 180, 0.06, seed=3)
    rng = np.random.default_rng(3)
    b = rng.standard_normal((180, 24))
    a = rng.standard_normal((200, 24))
    with Server(backend="cluster", hosts=2, device="rtx4090") as srv:
        futs = [srv.submit_spmm(csr, b) for _ in range(3)]
        sfut = srv.submit_sddmm(csr, a, b)
        ref = api_spmm(csr, b)
        for fut in futs:
            res = fut.result(TIMEOUT)
            np.testing.assert_array_equal(res.values, ref.values)
            assert res.counter == ref.counter
            assert res.meta["backend"] == "cluster"
        assert sfut.result(TIMEOUT) is not None
        snap = srv.snapshot()
        assert snap.requests_completed == 4
        assert snap.meta["scheduler"]["tasks_completed"] >= 1
    assert srv.snapshot().in_flight == 0


def test_server_survives_host_death_mid_shard():
    """ISSUE satellite: kill a worker host while its shard is in flight —
    the request completes bit-identically via re-dispatch, ClusterMetrics
    records the failover, and ``Server.healthy`` stays true."""
    csr = random_csr(260, 240, 0.06, seed=21)
    b = np.random.default_rng(21).standard_normal((240, 16))
    ref = api_spmm(csr, b)
    with Server(backend="cluster", hosts=2) as srv:
        # Warm one request through so the plan/translation are resident and
        # the kill window covers only the victim's in-flight shard.
        np.testing.assert_array_equal(
            srv.submit_spmm(csr, b).result(TIMEOUT).values, ref.values
        )
        victim = srv.scheduler.affinity_host(csr.content_key())
        srv.scheduler.inject_task_delay_s = 1.0
        sent_before = srv.scheduler.metrics.snapshot()["tasks_sent"]
        fut = srv.submit_spmm(csr, b)
        deadline = time.monotonic() + TIMEOUT
        while srv.scheduler.metrics.snapshot()["tasks_sent"] <= sent_before:
            assert time.monotonic() < deadline, "request never reached the host"
            time.sleep(0.01)
        victim.process.kill()
        srv.scheduler.inject_task_delay_s = 0.0  # the survivor's re-dispatch runs at once
        res = fut.result(TIMEOUT)
        np.testing.assert_array_equal(res.values, ref.values)
        snap = srv.scheduler.stats_snapshot()
        assert snap["host_deaths"] == 1
        assert snap["failovers"] >= 1
        assert srv.healthy, "host death must not look like a server crash"
        # And the server keeps serving on the survivor.
        np.testing.assert_array_equal(
            srv.submit_spmm(csr, b).result(TIMEOUT).values, ref.values
        )
    final = srv.snapshot()
    assert final.requests_completed == 3
    assert final.requests_failed == 0
    assert final.in_flight == 0
