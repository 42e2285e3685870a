"""Per-layer metrics of one traced run: spans for the layers that execute in
the benchmark process, and what the pool / worker-host subprocesses already
publish (``Server.snapshot()``, scheduler stats, per-host gauges) for the
rest.  A layer the workload does not cross reads 0.
"""

from __future__ import annotations

import socket
import threading
import time

from repro import FlashSparseMatrix
from repro.formats.cache import TranslationCache, cached_mebcrs, format_cache_stats

from harness import median, percentile, slo_rate
from tracing import TRACE_POINTS


def snapshot(state) -> dict | None:
    """Counters the serving stack publishes, flattened for differencing."""
    server = getattr(state, "server", None)
    if server is None:
        return None
    snap = server.snapshot()
    return {"serve": snap, "sched": snap.meta["scheduler"], "workers": snap.meta["workers"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def wire_bytes_per_req(before: dict | None, after: dict | None) -> float | None:
    """Bytes the head sent plus received per completed request between two
    snapshots; ``None`` off the cluster backend."""
    if after is None or "bytes_sent" not in after["sched"]:
        return None
    moved = sum(after["sched"][k] - before["sched"][k] for k in ("bytes_sent", "bytes_received"))
    done = after["serve"].requests_completed - before["serve"].requests_completed
    return moved / max(1, done)


def formats_probe(matrix, repeats: int = 5) -> dict:
    """The translation pipeline on the workload's own matrix, step by step,
    against a private cache so the run's cache is left alone."""
    samples = {"from_scipy_ms": [], "translate_ms": [], "pack_ms": [], "cache_lookup_us": []}
    for _ in range(repeats):
        cache = TranslationCache()
        t0 = time.perf_counter()
        fsm = FlashSparseMatrix.from_scipy(matrix)
        t1 = time.perf_counter()
        fmt = cached_mebcrs(fsm.csr, "fp16", cache=cache)  # miss: translates
        t2 = time.perf_counter()
        fmt.blocks_as_arrays()  # first call: packs
        t3 = time.perf_counter()
        cached_mebcrs(fsm.csr, "fp16", cache=cache)  # hit
        t4 = time.perf_counter()
        samples["from_scipy_ms"].append(1e3 * (t1 - t0))
        samples["translate_ms"].append(1e3 * (t2 - t1))
        samples["pack_ms"].append(1e3 * (t3 - t2))
        samples["cache_lookup_us"].append(1e6 * (t4 - t3))
    return {f"formats.{key}": median(values) for key, values in samples.items()}


def loopback_floor_ms(nbytes: int, repeats: int = 5) -> float:
    """Raw ``sendall`` / ``recv_into`` of ``nbytes`` over a loopback TCP
    connection, acknowledged with one byte: what the wire alone costs."""
    nbytes = int(nbytes)
    if nbytes <= 0:
        return 0.0
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        sink, _ = listener.accept()

    def drain() -> None:
        buffer = bytearray(1 << 20)
        with sink:
            for _ in range(repeats):
                left = nbytes
                while left:
                    got = sink.recv_into(buffer, min(left, len(buffer)))
                    if not got:
                        return
                    left -= got
                sink.sendall(b"k")

    thread = threading.Thread(target=drain)
    thread.start()
    payload = bytes(nbytes)
    times = []
    with client:
        for _ in range(repeats):
            t0 = time.perf_counter()
            client.sendall(payload)
            client.recv(1)
            times.append(time.perf_counter() - t0)
    thread.join()
    return 1e3 * median(times)


def derive(workload, state, untraced, traced, tracer, before, after, cache_before, names) -> dict:
    """Every per-layer metric named in BENCHMARK.json, for one workload."""
    out = dict.fromkeys(names, 0.0)
    n_traced = max(1, traced.completed)

    def per_call_ms(span: str) -> float:
        return 1e3 * median(tracer.durations(span))

    def per_request_ms(span: str) -> float:
        return 1e3 * sum(tracer.durations(span)) / n_traced

    # -- client
    out["client.latency_p90_ms"] = 1e3 * percentile(untraced.latencies_s, 90)
    if workload.rates:
        out["client.slo_rate_rps"] = slo_rate(untraced.steps)
        out["client.gen_lateness_p90_ms"] = max(s["lateness_p90_ms"] for s in untraced.steps)
        out["client.backlog_growth"] = float(max(s["backlog_growth"] for s in untraced.steps))
    floors = untraced.floors_s + traced.floors_s
    directs = [c.direct_s for c in untraced.checks + traced.checks if c.direct_s is not None]
    out["client.samples"] = float(untraced.completed)
    out["client.failed_frac"] = _ratio(untraced.failed + traced.failed, untraced.attempted + traced.attempted)
    out["client.floor_ms"] = 1e3 * median(floors)
    out["client.floor_ratio"] = _ratio(untraced.p50_ms, 1e3 * median(untraced.floors_s))
    out["client.trace_overhead_frac"] = _ratio(traced.p50_ms, untraced.p50_ms) - 1.0
    out["client.unattributed_frac"] = median(tracer.unattributed_fracs())

    # -- formats, precision, kernels, ops, gpu, perfmodel
    out.update(formats_probe(workload.probe_matrix(state)))
    cache_now = format_cache_stats()
    out["formats.cache_hit_rate"] = _ratio(
        cache_now.hits - cache_before.hits,
        cache_now.hits - cache_before.hits + cache_now.misses - cache_before.misses,
    )
    for span in TRACE_POINTS:  # "<span>_ms" is the median over that span's calls
        if f"{span}_ms" in out:
            out[f"{span}_ms"] = per_call_ms(span)
    out["ops.segment_sum_share"] = _ratio(out["ops.segment_sum_ms"], out["kernels.engine_spmm_ms"])
    model = workload.model(state)
    out["gpu.mma_invocations"] = float(model["mma"])
    out["gpu.bytes_moved"] = float(model["bytes"])
    out["kernels.intermediate_bytes"] = float(model["intermediate_bytes"])
    engine_ms = sum(
        per_request_ms(span)
        for span in ("kernels.engine_spmm", "kernels.engine_sddmm", "kernels.layer_shard")
    )

    # -- serve / cluster: what the stack publishes, differenced over the
    # untraced phase (``before`` / ``after`` are snapshots around it).
    if after is not None:
        s0, s1 = before["serve"], after["serve"]
        done = max(1, s1.requests_completed - s0.requests_completed)
        out["serve.server.queue_wait_ms"] = 1e3 * s1.queue_wait.p50_s
        out["serve.server.execution_ms"] = 1e3 * s1.execution.p50_s
        out["serve.server.overhead_ms"] = untraced.p50_ms - 1e3 * median(directs)
        out["serve.server.coalesced_frac"] = (s1.requests_coalesced - s0.requests_coalesced) / done
        out["serve.server.batches_per_req"] = (s1.batches_dispatched - s0.batches_dispatched) / done
        out["serve.server.shed"] = float(s1.requests_shed - s0.requests_shed)
        plan = getattr(traced.last_result, "meta", {}).get("plan")
        out["serve.planner.num_shards"] = float(plan.num_shards) if plan is not None else 0.0

        def delta(key: str) -> float:
            return float(after["sched"].get(key, 0) - before["sched"].get(key, 0))

        if "bytes_sent" in after["sched"]:
            _cluster(out, before["sched"], after["sched"], delta, done)
            out["cluster.transport.wire_bytes_per_req"] = wire_bytes_per_req(before, after)
            # These three run several times a request: summed, not per call.
            out["cluster.transport.send_ms"] = per_request_ms("cluster.transport.send")
            out["cluster.transport.recv_ms"] = per_request_ms("cluster.transport.recv")
            out["cluster.assembly.assemble_ms"] = per_request_ms("cluster.assembly.assemble")
            # recv_message blocks until the worker answers, so recv_ms is
            # wait + read; only the send side can be held against the wire.
            floor = loopback_floor_ms(delta("bytes_sent") / done)
            out["cluster.transport.loopback_floor_ms"] = floor
            out["cluster.transport.floor_ratio"] = _ratio(out["cluster.transport.send_ms"], floor)
        else:
            out["serve.scheduler.retries"] = delta("retries")
            out["serve.scheduler.fallbacks"] = delta("fallbacks")
            stages = {k: 1e3 * v.p50_s for k, v in s1.stage_latency.items()}
            out["serve.scheduler.stage_sddmm_ms"] = stages.get("sddmm", 0.0)
            out["serve.scheduler.stage_softmax_ms"] = stages.get("edge_softmax", 0.0)
            out["serve.scheduler.stage_spmm_ms"] = stages.get("spmm", 0.0)
            if stages:
                # Stage clocks are summed over shards that ran on
                # `workers` processes side by side.
                busy = sum(stages.values()) / max(1, after["workers"])
                out["serve.scheduler.carrier_ms"] = max(0.0, out["serve.scheduler.run_ms"] - busy)
                engine_ms = engine_ms or sum(stages.values())
    out["kernels.useful_gflops"] = _ratio(model["flops"], engine_ms * 1e6)
    return out


def _cluster(out: dict, before: dict, after: dict, delta, done: int) -> None:
    def frame(kind: str, way: str) -> float:
        pick = lambda snap: snap["bytes_by_frame_type"].get(kind, {}).get(way, 0)  # noqa: E731
        return float(pick(after) - pick(before))

    out["cluster.head.shards_per_req"] = _ratio(delta("shards"), delta("requests"))
    out["cluster.head.failovers"] = delta("failovers")
    out["cluster.head.inline_fallbacks"] = delta("inline_fallbacks")
    out["cluster.head.task_failures"] = delta("task_failures")
    out["cluster.transport.task_bytes_per_req"] = frame("task", "sent") / done
    out["cluster.transport.result_bytes_per_req"] = frame("result", "received") / done
    out["cluster.transport.store_put_bytes_per_req"] = frame("store_put", "sent") / done
    out["cluster.store.puts_per_req"] = delta("store_puts") / done
    out["cluster.store.hit_rate"] = _ratio(delta("store_hits"), delta("store_hits") + delta("store_misses"))
    out["cluster.store.misses"] = delta("store_misses")
    hits = misses = 0
    tasks = []
    for host_id, host in after["hosts"].items():
        earlier = before["hosts"].get(host_id, {})
        tasks.append(host["tasks_completed"] - earlier.get("tasks_completed", 0))
        cache, cache0 = host.get("cache") or {}, earlier.get("cache") or {}
        hits += cache.get("hits", 0) - cache0.get("hits", 0)
        misses += cache.get("misses", 0) - cache0.get("misses", 0)
    out["cluster.worker.remote_cache_hit_rate"] = _ratio(hits, hits + misses)
    out["cluster.worker.host_imbalance"] = _ratio(max(tasks, default=0), max(1, min(tasks, default=0)))
