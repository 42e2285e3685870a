"""Matrix push/pin: PinnedStore semantics + cluster recovery.

The store's contract, end to end:

* keys are content-addressed with a version component (the dynamic-graph
  invalidation hook) and namespaced by kind (CSR bundle vs. operand panel);
* the worker-side :class:`PinnedStore` is a byte-budgeted LRU whose
  eviction never touches an entry an in-flight task holds a refcount on;
* repeat cluster traffic ships a matrix's CSR buffers at most once per
  (host, content key) — in the first task frame that needs them; later
  task frames carry keys, not bytes;
* every degraded mode — eviction under a tiny budget, ``store_miss``,
  transport faults on the push itself, host failover, readmission — costs
  bytes, a retry or an in-parent shard, never a failed request, and
  results stay **bit-identical** to the single-host oracle.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from helpers import random_csr

from repro import spmm
from repro.cluster import ClusterScheduler, RetryPolicy, head
from repro.cluster.membership import HostHealth
from repro.cluster.store import (
    PinnedStore,
    StoreMissError,
    make_store_key,
    operand_store_key,
)
from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK as FLASH_GROUP
from repro.precision.types import Precision, quantize
from repro.serve import Server
from repro.serve.program import attention_csr
from repro.serve.scheduler import ShardScheduler
from repro.testing import FaultPlan

TIMEOUT = 120


def _workload(seed=70, n=13, rows=200, cols=180, density=0.06):
    csr = random_csr(rows, cols, density, seed=seed)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    base = ShardScheduler().run_spmm(fmt, b_q, Precision.FP16, csr)
    return csr, fmt, b_q, base


def _arr(value, length=10):
    return np.full(length, value, dtype=np.float64)  # 80 bytes per array


# ------------------------------------------------------------------ key schema
def test_store_key_schema_carries_version():
    assert make_store_key("struct", "abc", 0) == "struct/abc@0"
    assert make_store_key("vals", "abc") == "vals/abc@0"
    # The version component is the cluster-wide invalidation hook: bumping
    # it re-keys the content without a new digest scheme.
    assert make_store_key("struct", "abc", version=3) == "struct/abc@3"
    assert make_store_key("struct", "abc", version=3) != make_store_key("struct", "abc")


def test_operand_store_key_is_content_addressed():
    a = np.arange(12, dtype=np.float32)
    same = np.arange(12, dtype=np.float32)
    assert operand_store_key(a, "fp16") == operand_store_key(same, "fp16")
    assert operand_store_key(a, "fp16").startswith("op/")
    # Content, dtype, shape and version all distinguish keys.
    assert operand_store_key(a, "fp16") != operand_store_key(a + 1, "fp16")
    assert operand_store_key(a, "fp16") != operand_store_key(a.astype(np.float64), "fp16")
    assert operand_store_key(a, "fp16") != operand_store_key(a.reshape(3, 4), "fp16")
    assert operand_store_key(a, "fp16") != operand_store_key(a, "fp16", version=1)


# ----------------------------------------------------------------- PinnedStore
def test_budget_overflow_evicts_lru_first():
    store = PinnedStore(budget_bytes=200)  # room for two 80-byte entries
    assert store.put("a", [_arr(1)]) == []
    assert store.put("b", [_arr(2)]) == []
    # Touch "a": it becomes MRU, so the next overflow evicts "b" first.
    store.acquire("a")
    store.release("a")
    assert store.put("c", [_arr(3)]) == ["b"]
    assert store.keys() == ["a", "c"]
    # Another overflow now takes "a" (LRU again after "c"'s arrival order
    # is accounted): strict least-recently-used order, oldest first.
    assert store.put("d", [_arr(4)]) == ["a"]
    assert store.keys() == ["c", "d"]
    stats = store.stats()
    assert stats["evictions"] == 2
    assert stats["pinned_bytes"] <= 200


def test_refcount_blocks_eviction_until_release():
    store = PinnedStore(budget_bytes=100)  # room for one entry
    store.put("held", [_arr(1)])
    bundles = store.acquire("held")
    np.testing.assert_array_equal(bundles[0][0], _arr(1))
    # Overflow while "held" is referenced: the store goes over budget
    # rather than pulling the buffer out from under the in-flight task.
    assert store.put("other", [_arr(2)]) == []
    assert "held" in store and "other" in store
    assert store.pinned_bytes > store.budget_bytes
    # Once released, the next put reclaims it.
    store.release("held")
    assert store.put("third", [_arr(3)]) == ["held", "other"]
    assert store.keys() == ["third"]


def test_acquire_miss_names_all_missing_and_takes_no_refcounts():
    store = PinnedStore(budget_bytes=1000)
    store.put("present", [_arr(1)])
    with pytest.raises(StoreMissError) as err:
        store.acquire("present", "gone-1", "gone-2")
    # Every missing key in one error, so the head re-pushes the full set
    # in one round instead of discovering misses one at a time.
    assert err.value.missing == ["gone-1", "gone-2"]
    # The failed acquire took no refcount on the present key: it is still
    # evictable (the all-or-nothing contract).
    store.put("big", [_arr(2, length=200)])
    assert "present" not in store


def test_put_replaces_in_place_keeping_refcount():
    store = PinnedStore(budget_bytes=1000)
    store.put("k", [_arr(1)])
    old = store.acquire("k")[0][0]
    store.put("k", [_arr(9)])  # replace while referenced
    np.testing.assert_array_equal(old, _arr(1))  # the task's view is stable
    np.testing.assert_array_equal(store.acquire("k")[0][0], _arr(9))
    store.release("k", "k")
    # Still one entry; the refcount survived the replacement, so the entry
    # was never evictable mid-flight.
    assert len(store) == 1


# ----------------------------------------------------------- wire-level saving
def test_repeat_traffic_ships_matrix_bytes_once_per_host():
    csr, fmt, b_q, base = _workload(seed=71)
    key = csr.content_key()
    with ClusterScheduler(hosts=1) as sched:
        for i in range(3):
            out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
            np.testing.assert_array_equal(out, base)
            if i == 0:
                first = sched.stats_snapshot()
        snap = sched.stats_snapshot()
        # The other two kernel ops over the same pinned matrix, for the
        # frame-size check at the bottom.
        a_q = np.ones((csr.shape[0], b_q.shape[1]), np.float32)
        sched.run_sddmm(fmt, a_q, b_q, Precision.FP16, FLASH_GROUP, target_blocks=7, csr=csr)
        sched.run_layer(fmt, a_q, b_q, b_q, Precision.FP16, csr, target_blocks=7)
        all_ops = sched.stats_snapshot()
    # One push per (host, key): the pattern, the values and the dense panel
    # each crossed the wire exactly once, every later reference was a
    # ledger hit.
    assert snap["store_puts"] == 3
    assert snap["store_hits"] > 0
    assert snap["store_misses"] == 0
    assert snap["bytes_saved"] > 0
    assert snap["task_failures"] == 0
    # The pushes ride the first request's task frames: every frame's bytes
    # are counted once, under ``task``, and ``store_put_bytes`` counts the
    # pushed bundles inside them.  The repeats push nothing.
    pushed = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes + b_q.nbytes
    assert snap["store_put_bytes"] == first["store_put_bytes"] == pushed
    by_type, first_by_type = snap["bytes_by_frame_type"], first["bytes_by_frame_type"]
    assert "store_put" not in by_type
    headers = first_by_type["task"]["sent"] - pushed
    assert 0 < headers < 2048 * first["tasks_sent"]
    # The worker-reported gauges travel back in status frames.
    host_entry = next(iter(snap["hosts"].values()))
    assert host_entry["store"]["pinned_bytes"] == pushed
    assert host_entry["store"]["entries"] == 3
    assert host_entry["store_puts"] == 3
    # Past the pushes, a spmm / sddmm / layer task frame is a header naming
    # store keys: smaller than the smallest operand it refers to.
    frames = all_ops["bytes_by_frame_type"]["task"]["sent"] - all_ops["store_put_bytes"]
    assert frames / all_ops["tasks_sent"] < 2048 < b_q.nbytes


def test_fresh_values_on_one_pattern_ship_the_pattern_once_per_host(monkeypatch):
    """Five requests with new values on one pattern (an attention layer's
    weights, evaluation after evaluation) on a 2-host cluster: each host
    receives the ``struct/`` bundle at most once, every later matrix push
    is the ``data`` array alone, and every result is bit-identical to
    one-shot ``repro.spmm``."""
    puts: dict[str, list] = {}
    real_send = head.send_message

    def spy(sock, header, arrays=()):
        if header.get("type") == "task":
            # Each host client is its own thread: the thread names the host.
            host_puts = puts.setdefault(threading.current_thread().name, [])
            offset = 0
            for key, count in header["push"]:
                host_puts.append((key, [np.array(a) for a in arrays[offset : offset + count]]))
                offset += count
        return real_send(sock, header, arrays)

    monkeypatch.setattr(head, "send_message", spy)
    mask = random_csr(200, 180, 0.06, seed=76)
    rng = np.random.default_rng(76)
    b = rng.standard_normal((180, 8)).astype(np.float32)
    attention = [
        attention_csr(mask, rng.uniform(0.1, 1.0, mask.nnz)) for _ in range(5)
    ]
    with Server(backend="cluster", hosts=2) as srv:
        for matrix in attention:
            served = srv.submit_spmm(matrix, b).result(TIMEOUT)
            np.testing.assert_array_equal(served.values, spmm(matrix, b).values)
        remote = srv.scheduler.metrics.remote_cache_stats()
    struct_key = make_store_key("struct", mask.structure_key())
    values_keys = {make_store_key("vals", m.content_key()): m.data for m in attention}
    matrix_puts = {
        host: [(key, arrays) for key, arrays in host_puts if not key.startswith(("op/", "req/"))]
        for host, host_puts in puts.items()
    }
    assert sum(len(host_puts) for host_puts in matrix_puts.values()) == 5 + len(puts)
    for host_puts in matrix_puts.values():
        # A host's first request pushes the pattern, then its values ...
        (key, (indptr, indices)), (first_values, _) = host_puts[:2]
        assert key == struct_key
        np.testing.assert_array_equal(indptr, mask.indptr)
        np.testing.assert_array_equal(indices, mask.indices)
        assert first_values in values_keys
        # ... and every later matrix push is one request's data, alone.
        for key, arrays in host_puts[1:]:
            (data,) = arrays
            np.testing.assert_array_equal(data, values_keys[key])
    # The one ``b`` object is content-keyed from its second request on, so
    # each host pins it once; only the very first request ships it under a
    # request-scoped key.
    for host_puts in puts.values():
        assert sum(key.startswith("op/") for key, _ in host_puts) <= 1
    assert sum(key.startswith("req/") for p in puts.values() for key, _ in p) == 1
    # SpMM runs on the pinned CSR: each new values set costs the worker one
    # lane build (a miss) and no translation, so no window partition was
    # ever re-used.
    assert remote.misses == 5 and remote.structure_hits == 0


def test_tiny_budget_store_miss_falls_back_without_failures():
    """A budget smaller than one bundle thrashes: push evicts push, tasks
    answer ``store_miss``, and after the bounded re-push budget the head
    runs the shard in-parent — throughput is lost, the request never is,
    and the thrashing host is neither declared dead nor retried forever."""
    csr, fmt, b_q, base = _workload(seed=72)
    started = time.monotonic()
    with ClusterScheduler(
        hosts=2,
        store_bytes=1,
        retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.01, seed=2),
    ) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        snap = sched.stats_snapshot()
    assert time.monotonic() - started < TIMEOUT / 4
    assert snap["store_misses"] > 0
    # Every shard went through the existing in-parent fallback ...
    assert snap["inline_fallbacks"] == snap["shards"] > 0
    # ... without a failure, a host death or a failover lap.
    assert snap["task_failures"] == 0
    assert snap["host_deaths"] == 0
    assert snap["failovers"] == 0
    # The misses are visible per host too.
    assert any(h["store_misses"] > 0 for h in snap["hosts"].values())


def test_store_put_transport_fault_recovers_and_stays_exact():
    """A connection dropped mid-push (seeded via FaultPlan on the first
    ``task`` frame, which carries the pushed bundles) rides the normal
    SUSPECT → re-dial → resend machinery: the push repeats on the fresh
    connection."""
    csr, fmt, b_q, base = _workload(seed=73)
    key = csr.content_key()
    plan = FaultPlan(seed=3)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(seed=3),
    ) as sched:
        victim = sched.affinity_host(key)
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        snap = sched.stats_snapshot()
    assert plan.fired_kinds() == ["drop_connection"]
    assert snap["reconnects"] >= 1
    assert snap["task_failures"] == 0
    assert snap["store_puts"] >= 2  # the interrupted push was re-sent


def test_failover_after_push_re_pushes_to_fallback_host():
    """Kill the affinity host after it was pushed to: the shards fail over
    and the fallback host receives its own pushes (per-host ledgers), with
    the result bit-identical throughout."""
    csr, fmt, b_q, base = _workload(seed=74)
    key = csr.content_key()
    plan = FaultPlan(seed=4)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.01, seed=4),
        auto_readmit=False,
    ) as sched:
        victim = sched.affinity_host(key)
        survivor = next(h for h in sched.hosts if h.host_id != victim.host_id)
        # Warm the victim: all three bundles pushed there.
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        pushed_before = sched.stats_snapshot()["hosts"][victim.host_id]["store_puts"]
        assert pushed_before == 3
        # Kill it mid-request; the retry budget is exhausted by refusals.
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        plan.refuse_connect(2, scope=victim.host_id)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        snap = sched.stats_snapshot()
    assert snap["host_deaths"] == 1
    assert snap["failovers"] >= 1
    # The fallback host got the bytes pushed to *it* before its tasks ran.
    assert snap["hosts"][survivor.host_id]["store_puts"] == 3


def test_readmission_rewarm_ledger_from_reported_inventory():
    """A readmitted host's worker process survived the outage, so its
    pinned store is still warm: the warm-up pong's key inventory re-warms
    the head's ledger and repeat traffic needs **no** re-push."""
    csr, fmt, b_q, base = _workload(seed=75)
    key = csr.content_key()
    plan = FaultPlan(seed=5)
    with ClusterScheduler(
        hosts=2,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.01, seed=5),
        probe_interval_s=0.1,
    ) as sched:
        victim = sched.affinity_host(key)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        assert sched.stats_snapshot()["hosts"][victim.host_id]["store_puts"] == 3
        # Kill the connection; one backoff re-dial and one probe dial are
        # refused, then the probe readmits.
        plan.drop_connection(nth=1, type="task", scope=victim.host_id)
        plan.refuse_connect(2, scope=victim.host_id)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        deadline = time.monotonic() + TIMEOUT
        while victim.state is not HostHealth.HEALTHY:
            assert time.monotonic() < deadline, "probe never readmitted the host"
            time.sleep(0.02)
        assert sched.affinity_host(key).host_id == victim.host_id
        hits_before = sched.stats_snapshot()["hosts"][victim.host_id]["store_hits"]
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr, content_key=key)
        np.testing.assert_array_equal(out, base)
        snap = sched.stats_snapshot()
    entry = snap["hosts"][victim.host_id]
    # No re-push after readmission: the ledger was re-warmed from the
    # worker's reported inventory, so the repeat request was all hits.
    assert entry["store_puts"] == 3
    assert entry["store_hits"] > hits_before
    assert snap["store_misses"] == 0
