"""Cluster serving benchmark — 1 vs 2 loopback worker hosts, closed loop.

A closed-loop load generator drives a ``backend="cluster"`` server with an
SpMM request stream over several distinct power-law graphs chosen so that
rendezvous affinity splits them evenly across two hosts.  Measured per
host count:

* sustained requests/second and p50/p95 latency (server metrics), and
* the cluster counters (per-host task split, transport bytes).

Two CI gates ride on it:

* **scaling** — with at least 2 CPUs, the 2-host cluster must sustain
  ≥ ``MIN_SCALING``× the 1-host throughput (the bar a second host has to
  clear after paying per-task framing, transport and reassembly).  On a
  single-CPU runner the gate is skipped — there is nothing to scale onto.
* **cache affinity** — a repeat-matrix workload must show a remote
  lane-cache hit rate > ``MIN_AFFINITY_HIT_RATE`` (a worker keeps each
  pinned matrix's lane arrays per values and precision): content-key
  routing sends every request for a matrix to the host that already built
  its lanes, so only the first task per (matrix, host) may miss.
* **push/pin** — the same repeat workload must ship matrix and operand
  bytes once per host (task frames reference keys): the bytes re-shipping
  them with every task would have moved — what was sent plus the head's
  own ``bytes_saved`` counter — must be ≥ ``MIN_PUSHPIN_SAVINGS``× the
  matrix bytes actually sent, with ``store_hits > 0`` and zero failures.

Results land in ``benchmarks/results/cluster_scaling.json`` for the CI
artifact upload.  Run standalone
(``python benchmarks/bench_cluster_scaling.py``) or through pytest.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread per process *before* NumPy loads: the benchmark
# measures host-level scaling, and oversubscribed BLAS threads inside every
# worker host would turn the comparison into scheduler noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.cluster.head import rendezvous_rank
from repro.datasets.generators import power_law_matrix
from repro.serve import Server

#: Request matrices: ~120k-edge power-law graphs (one engine pass dwarfs
#: framing + transport overhead on loopback).
NUM_NODES = 3000
AVG_ROW_LENGTH = 40
SPMM_WIDTH = 96
#: Distinct matrices per host in the scaling mix (affinity pins a matrix to
#: one host, so cross-host parallelism comes from distinct matrices).
MATRICES_PER_HOST = 2
#: Closed-loop clients and total requests per configuration.
CLIENTS = 4
REQUESTS = 32
#: Repeat-matrix requests of the affinity phase.
AFFINITY_REQUESTS = 12
#: Scaling gate: 2-host throughput over 1-host, on >= 2 CPUs.
MIN_SCALING = 1.2
#: Affinity gate: remote lane-cache hit rate on a repeat workload.
MIN_AFFINITY_HIT_RATE = 0.8
#: Repeat-matrix requests of the push/pin phase.
PUSHPIN_REQUESTS = 12
#: Push/pin gate: matrix bytes re-shipping would have moved over those sent.
MIN_PUSHPIN_SAVINGS = 5.0

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "cluster_scaling.json"


def _balanced_matrices():
    """Matrices whose content keys rendezvous evenly onto host-0/host-1."""
    buckets = {"host-0": [], "host-1": []}
    seed = 0
    while any(len(b) < MATRICES_PER_HOST for b in buckets.values()) and seed < 64:
        csr = power_law_matrix(NUM_NODES, avg_row_length=AVG_ROW_LENGTH, seed=seed)
        target = rendezvous_rank(csr.content_key(), list(buckets))[0]
        if len(buckets[target]) < MATRICES_PER_HOST:
            buckets[target].append(csr)
        seed += 1
    matrices = buckets["host-0"] + buckets["host-1"]
    assert len(matrices) == 2 * MATRICES_PER_HOST, "could not balance the mix"
    return matrices


def _drive(server: Server, matrices, b, requests: int) -> float:
    """Closed loop: CLIENTS threads, ``requests`` total; returns wall time."""
    counter = {"next": 0}
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = counter["next"]
                if i >= requests:
                    return
                counter["next"] = i + 1
            server.submit_spmm(matrices[i % len(matrices)], b).result(300)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def _measure(hosts: int, matrices, b) -> dict:
    with Server(backend="cluster", hosts=hosts, device="rtx4090") as server:
        for csr in matrices:  # warm: translation push, plan, host caches
            server.submit_spmm(csr, b).result(300)
        server.metrics.reset_cache_baseline()
        elapsed = _drive(server, matrices, b, REQUESTS)
        snap = server.snapshot()
        cluster = server.scheduler.stats_snapshot()
    return {
        "hosts": hosts,
        "rps": REQUESTS / elapsed,
        "p50_ms": snap.latency_p50_s * 1e3,
        "p95_ms": snap.latency_p95_s * 1e3,
        "tasks_per_host": {
            host_id: entry["tasks_sent"] for host_id, entry in cluster["hosts"].items()
        },
        "bytes_sent": cluster["bytes_sent"],
        "bytes_received": cluster["bytes_received"],
        "host_deaths": cluster["host_deaths"],
    }


def _measure_affinity(matrices, b) -> dict:
    """Repeat-matrix workload: remote caches should hit on every repeat."""
    with Server(backend="cluster", hosts=2, device="rtx4090") as server:
        for _ in range(AFFINITY_REQUESTS):
            for csr in matrices:
                server.submit_spmm(csr, b).result(300)
        cache = server.scheduler.metrics.remote_cache_stats()
        cluster = server.scheduler.stats_snapshot()
    return {
        "requests": AFFINITY_REQUESTS * len(matrices),
        "remote_hits": cache.hits,
        "remote_misses": cache.misses,
        "remote_hit_rate": cache.hit_rate,
        "tasks_per_host": {
            host_id: entry["tasks_sent"] for host_id, entry in cluster["hosts"].items()
        },
    }


def _measure_pushpin(matrices, b) -> dict:
    """Repeat workload over push/pin: what re-shipping would have cost.

    "Matrix bytes" is everything that carries operand payloads head→worker:
    task frames plus ``store_put`` frames, read from the split
    ``bytes_by_frame_type`` accounting.  ``bytes_saved`` is the payload the
    tasks referenced by store key instead of shipping again, so
    ``(matrix_bytes + bytes_saved) / matrix_bytes`` is the factor by which
    shipping operands with every task would have inflated the traffic.
    """
    with Server(backend="cluster", hosts=2, device="rtx4090") as server:
        for _ in range(PUSHPIN_REQUESTS):
            for csr in matrices:
                server.submit_spmm(csr, b).result(300)
        cluster = server.scheduler.stats_snapshot()
    requests = PUSHPIN_REQUESTS * len(matrices)
    by_type = cluster["bytes_by_frame_type"]
    matrix_bytes = by_type.get("task", {}).get("sent", 0) + by_type.get(
        "store_put", {}
    ).get("sent", 0)
    return {
        "requests": requests,
        "matrix_bytes_sent": matrix_bytes,
        "matrix_bytes_per_request": matrix_bytes / requests,
        "store_puts": cluster["store_puts"],
        "store_hits": cluster["store_hits"],
        "store_misses": cluster["store_misses"],
        "bytes_saved": cluster["bytes_saved"],
        "task_failures": cluster["task_failures"],
        "savings": (matrix_bytes + cluster["bytes_saved"]) / max(1, matrix_bytes),
    }


def run_cluster_scaling() -> dict:
    matrices = _balanced_matrices()
    b = np.random.default_rng(11).standard_normal((NUM_NODES, SPMM_WIDTH)).astype(np.float32)
    single = _measure(1, matrices, b)
    double = _measure(2, matrices, b)
    # One matrix per affinity bucket (_balanced_matrices lays the buckets
    # out contiguously), so the repeat workload exercises *both* hosts'
    # caches — a router that dumped everything on one host would fail the
    # gate rather than hide behind a single warm cache.
    affinity = _measure_affinity(matrices[::MATRICES_PER_HOST], b)
    pushpin = _measure_pushpin(matrices[::MATRICES_PER_HOST], b)
    report = {
        "config": {
            "num_nodes": NUM_NODES,
            "avg_row_length": AVG_ROW_LENGTH,
            "spmm_width": SPMM_WIDTH,
            "clients": CLIENTS,
            "requests": REQUESTS,
            "cpus": os.cpu_count(),
        },
        "single_host": single,
        "two_hosts": double,
        "scaling": double["rps"] / single["rps"],
        "affinity": affinity,
        "pushpin": pushpin,
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def _emit(report: dict) -> None:
    rows = [
        [
            f"{r['hosts']} host(s)",
            r["rps"],
            r["p50_ms"],
            r["p95_ms"],
            " / ".join(str(n) for n in r["tasks_per_host"].values()) or "-",
        ]
        for r in (report["single_host"], report["two_hosts"])
    ]
    rows.append(["scaling (2 / 1)", report["scaling"], 0.0, 0.0, "-"])
    rows.append(
        [
            "affinity hit rate",
            report["affinity"]["remote_hit_rate"],
            0.0,
            0.0,
            f"{report['affinity']['remote_hits']}h/{report['affinity']['remote_misses']}m",
        ]
    )
    pushpin = report["pushpin"]
    rows.append(
        [
            "push/pin savings (re-shipped / sent)",
            pushpin["savings"],
            0.0,
            0.0,
            f"{pushpin['store_puts']}p/{pushpin['store_hits']}h "
            f"({pushpin['matrix_bytes_per_request'] / 1e3:.0f} kB/req sent, "
            f"{pushpin['bytes_saved'] / pushpin['requests'] / 1e3:.0f} kB/req saved)",
        ]
    )
    try:
        from bench_common import emit_table

        emit_table(
            "cluster_scaling",
            ["Configuration", "Requests/s | ratio", "p50 (ms)", "p95 (ms)", "Tasks per host"],
            rows,
            title="repro.cluster closed-loop throughput: SpMM stream over "
            f"{2 * MATRICES_PER_HOST} matrices, {CLIENTS} clients, {REQUESTS} requests",
        )
    except ImportError:  # standalone without the harness on sys.path
        for row in rows:
            print(f"{row[0]:>20}: {row[1]:8.2f}  (p50 {row[2]:.1f} ms, p95 {row[3]:.1f} ms, {row[4]})")
    print(f"[cluster scaling JSON written to {RESULTS_JSON}]")


def _check(report: dict) -> None:
    affinity = report["affinity"]
    assert affinity["remote_hit_rate"] > MIN_AFFINITY_HIT_RATE, (
        f"cache-affinity routing regressed: remote hit rate "
        f"{affinity['remote_hit_rate']:.3f} <= {MIN_AFFINITY_HIT_RATE} on a "
        f"repeat-matrix workload ({affinity['remote_hits']} hits / "
        f"{affinity['remote_misses']} misses)"
    )
    pushpin = report["pushpin"]
    assert pushpin["store_hits"] > 0, "push/pin never hit the ledger"
    assert pushpin["task_failures"] == 0
    assert pushpin["savings"] >= MIN_PUSHPIN_SAVINGS, (
        f"push/pin savings regressed: {pushpin['matrix_bytes_per_request']:.0f} "
        f"matrix bytes/request sent, {pushpin['bytes_saved'] / pushpin['requests']:.0f} "
        f"saved — {pushpin['savings']:.1f}x < {MIN_PUSHPIN_SAVINGS}x"
    )
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(f"SKIP scaling gate: {cpus} CPU(s) available, need >= 2")
        return
    assert report["scaling"] >= MIN_SCALING, (
        f"cluster scaling regressed: {report['scaling']:.2f}x < {MIN_SCALING}x "
        f"single-host throughput on {cpus} CPUs"
    )


try:  # the `benchmark` fixture only exists with the plugin installed
    import pytest_benchmark  # noqa: F401

    def test_cluster_scaling(benchmark):
        report = benchmark.pedantic(run_cluster_scaling, rounds=1, iterations=1)
        _emit(report)
        _check(report)

except ImportError:

    def test_cluster_scaling():
        report = run_cluster_scaling()
        _emit(report)
        _check(report)


if __name__ == "__main__":
    result = run_cluster_scaling()
    _emit(result)
    _check(result)
    print("OK: cluster scaling benchmark complete")
