"""Fused layer serving across the cluster.

The multi-host contract extends the fused-layer one: a layer shard runs
the whole SDDMM → scale → softmax → SpMM pipeline inside the worker host
and is **bit-identical** to the three-call composition — across formats,
shard sizes, host counts, and under fault-injected failover.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import composed_layer, random_csr

from repro.cluster import ClusterScheduler, RetryPolicy, WorkerTaskError
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.precision.types import Precision, quantize
from repro.serve import Server
from repro.testing import FaultPlan

TIMEOUT = 120

_FORMATS = {"mebcrs": MEBCRSMatrix, "sgt16": SGT16Matrix}


def _layer_workload(fmt_name="mebcrs", seed=4, rows=220, cols=200, k=20, n=12):
    cls = _FORMATS[fmt_name]
    csr = random_csr(rows, cols, 0.05, seed=seed)
    fmt = cls.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    a_q = quantize(rng.standard_normal((rows, k)), Precision.FP16).astype(np.float32)
    b_q = quantize(rng.standard_normal((cols, k)), Precision.FP16).astype(np.float32)
    x_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    base = composed_layer(csr, a_q, b_q, x_q, 0.8, fmt_cls=cls)
    return csr, fmt, a_q, b_q, x_q, base


def _run_layer(sched, csr, fmt, a_q, b_q, x_q, target=7, scale=0.8):
    out, stages = sched.run_layer(
        fmt,
        a_q,
        b_q,
        x_q,
        Precision.FP16,
        csr,
        scale=scale,
        target_blocks=target,
        content_key=csr.content_key(),
    )
    return out, stages


# One two-host cluster per module: host spawn is the slow part.
@pytest.fixture(scope="module")
def cluster():
    with ClusterScheduler(hosts=2) as scheduler:
        yield scheduler


# ------------------------------------------------------------- parity grid
@pytest.mark.parametrize("fmt_name", ["mebcrs", "sgt16"])
@pytest.mark.parametrize("target", (1, 7, 10_000))
def test_fused_layer_cluster_parity_grid(cluster, fmt_name, target):
    csr, fmt, a_q, b_q, x_q, base = _layer_workload(fmt_name)
    out, stages = _run_layer(cluster, csr, fmt, a_q, b_q, x_q, target=target)
    np.testing.assert_array_equal(out, base)
    assert set(stages) == {"sddmm_s", "edge_softmax_s", "spmm_s"}


def test_fused_layer_metrics_count_saved_round_trips_and_bytes():
    csr, fmt, a_q, b_q, x_q, base = _layer_workload(seed=8)
    with Server(backend="cluster", hosts=2) as srv:
        before = srv.snapshot()
        result = srv.submit_layer(csr, a_q, b_q, x_q, scale=0.8).result(TIMEOUT)
        np.testing.assert_array_equal(result.values, base)
        after = srv.snapshot()
    assert after.layer_requests == before.layer_requests + 1
    # One cluster request instead of composition's two dispatches plus a
    # local softmax leg: two round trips banked per fused layer.
    assert after.round_trips_saved == before.round_trips_saved + 2
    saved = after.operand_bytes_saved - before.operand_bytes_saved
    # At least the SDDMM intermediate out + the attention CSR bundle back.
    v = fmt.partition.vector_size
    n_vec = fmt.vector_values.shape[0]
    assert saved >= n_vec * v * 4 + csr.nnz * 4
    # One cluster request per fused layer.
    assert after.meta["scheduler"]["requests"] == before.meta["scheduler"]["requests"] + 1


def test_tampered_layer_header_fails_as_worker_task_error(cluster, monkeypatch):
    """A layer ``task`` whose header carries ``scale: NaN`` is re-checked
    by the worker, reported back as the shard's error, and the host keeps
    serving the next request."""
    csr, fmt, a_q, b_q, x_q, base = _layer_workload(seed=12)
    dispatch = cluster._dispatch

    def tampered(tasks, content_key, inline_body):
        for task in tasks:
            task["frame"]["header"]["scale"] = float("nan")
        return dispatch(tasks, content_key, inline_body)

    monkeypatch.setattr(cluster, "_dispatch", tampered)
    with pytest.raises(WorkerTaskError, match="finite in float32"):
        _run_layer(cluster, csr, fmt, a_q, b_q, x_q)
    monkeypatch.undo()
    out, _ = _run_layer(cluster, csr, fmt, a_q, b_q, x_q)
    np.testing.assert_array_equal(out, base)
    assert all(host.alive for host in cluster.hosts)


def test_fused_layer_single_and_zero_host_parity():
    csr, fmt, a_q, b_q, x_q, base = _layer_workload(seed=9)
    with ClusterScheduler(hosts=1) as one:
        out, _ = _run_layer(one, csr, fmt, a_q, b_q, x_q)
        np.testing.assert_array_equal(out, base)
        assert one.stats_snapshot()["inline_fallbacks"] == 0
    with ClusterScheduler(hosts=0) as none:
        out, _ = _run_layer(none, csr, fmt, a_q, b_q, x_q)
        np.testing.assert_array_equal(out, base)
        snap = none.stats_snapshot()
        assert snap["inline_fallbacks"] > 0
        assert snap["tasks_sent"] == 0


# ------------------------------------------------------------- fault tolerance
def test_fused_layer_survives_dropped_connection_bit_identically():
    """Seeded FaultPlan failover: the connection drops at the first
    layer ``task`` frame — the host re-dials, the shard resends, and the
    fused result is still exact."""
    csr, fmt, a_q, b_q, x_q, base = _layer_workload(seed=10)
    plan = FaultPlan(seed=1)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.02, seed=1),
    ) as sched:
        victim = sched.affinity_host(csr.content_key())
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        out, _ = _run_layer(sched, csr, fmt, a_q, b_q, x_q)
        np.testing.assert_array_equal(out, base)
        assert plan.fired_kinds() == ["drop_connection"]
        snap = sched.stats_snapshot()
        assert snap["reconnects"] >= 1
        assert snap["host_deaths"] == 0


def test_fused_layer_fails_over_when_retries_exhaust():
    """The victim's retries run dry mid-layer: the shards fail over to the
    survivor and the output stays bit-identical."""
    csr, fmt, a_q, b_q, x_q, base = _layer_workload(seed=11)
    plan = FaultPlan(seed=2)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.02, seed=2),
        auto_readmit=False,
    ) as sched:
        victim = sched.affinity_host(csr.content_key())
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        plan.refuse_connect(2, scope=victim.host_id)
        out, _ = _run_layer(sched, csr, fmt, a_q, b_q, x_q)
        np.testing.assert_array_equal(out, base)
        snap = sched.stats_snapshot()
        assert snap["host_deaths"] == 1
        assert snap["failovers"] >= 1 and snap["shards_failed_over"] >= 1
