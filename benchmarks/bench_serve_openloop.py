"""Open-loop (arrival-rate) serving benchmark with a latency-SLO gate.

A *closed-loop* measurement (each client waits for its previous request)
can never overload the server — the load self-throttles.  This benchmark is the open-loop
complement the ROADMAP called for: a Poisson load generator submits at a
fixed **offered rate regardless of completions**, sweeping the rate across
the measured saturation point, so the queueing behaviour under overload
becomes visible:

* below saturation (0.25× / 0.5×) latency stays near the service time and
  nothing is shed;
* past saturation (2×) an *unprotected* server's queue and latency grow
  without bound for as long as the load lasts — the overload-hardened
  server instead keeps the queue at ``max_queue_depth``, rejects the
  excess at admission (``ServerOverloadedError``) and sheds queued
  requests whose deadline lapsed (``ServeTimeoutError``), which keeps the
  p99 of what it *does* serve bounded.

Per rate bin the benchmark records offered vs achieved rate, p50/p99
latency of completed requests, the queue-wait share, reject/shed rates and
the maximum queue depth observed.  Two SLO gates run in CI:

1. **latency SLO below saturation** — at 0.5× saturation the completed-
   request p99 must stay under ``SLO_P99_S``;
2. **bounded overload** — at 2× saturation the queue depth never exceeds
   ``MAX_QUEUE_DEPTH``, shedding/rejection engages (shed + rejected > 0),
   and the p99 of completed requests stays bounded by the request deadline
   (plus execution slack) instead of growing with the run length.

Results are printed as a table and persisted as JSON
(``benchmarks/results/serve_openloop.json``) for the CI artifact upload.

Run standalone (``python benchmarks/bench_serve_openloop.py``) or through
pytest.
"""

from __future__ import annotations

import json
import os

# Pin BLAS to one thread before NumPy loads: the benchmark measures
# queueing, and BLAS oversubscription would smear the service times.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets.generators import power_law_matrix
from repro.serve import Server, ServerOverloadedError, ServeTimeoutError

#: Request matrix: ~20k-edge power-law graph — small enough that one engine
#: pass is a few milliseconds, so a full rate sweep fits in a CI smoke run.
NUM_NODES = 1000
AVG_ROW_LENGTH = 20
SPMM_WIDTH = 32
#: Overload protection under test.
MAX_QUEUE_DEPTH = 32
REQUEST_DEADLINE_S = 0.75
#: Offered-load sweep in multiples of the measured saturation rate.
RATE_MULTIPLES = (0.25, 0.5, 1.0, 2.0)
#: Arrivals per bin: enough for a stable p99 at the low rates without the
#: 2× bin taking more than a few seconds.
ARRIVALS_PER_BIN = 160
#: Closed-loop calibration: clients × requests used to find saturation.
CALIBRATION_CLIENTS = 8
CALIBRATION_REQUESTS = 64
#: SLO gates (see module docstring).
SLO_P99_S = 0.5
SLO_LOAD_MULTIPLE = 0.5
OVERLOAD_MULTIPLE = 2.0

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "serve_openloop.json"


def _workload():
    csr = power_law_matrix(NUM_NODES, avg_row_length=AVG_ROW_LENGTH, seed=23)
    b = np.random.default_rng(23).standard_normal((NUM_NODES, SPMM_WIDTH)).astype(np.float32)
    return csr, b


def _new_server() -> Server:
    return Server(
        device="rtx4090",
        workers=1,
        max_queue_depth=MAX_QUEUE_DEPTH,
        admission="reject",
    )


def _calibrate(csr, b) -> dict:
    """Measure the saturation throughput closed-loop (the most load a
    self-throttling client set can deliver — by construction the rate at
    which offered == served)."""
    with _new_server() as server:
        server.submit_spmm(csr, b).result(120)  # warm translation + plan
        counter = {"next": 0}
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= CALIBRATION_REQUESTS:
                        return
                    counter["next"] = i + 1
                server.submit_spmm(csr, b).result(120)

        threads = [threading.Thread(target=client) for _ in range(CALIBRATION_CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        snap = server.snapshot()
    return {
        "saturation_rps": CALIBRATION_REQUESTS / elapsed,
        "closed_loop_p50_s": snap.latency_p50_s,
        "execution_p50_s": snap.execution.p50_s,
    }


def _drive_open_loop(rate_rps: float, csr, b, rng: np.random.Generator) -> dict:
    """One rate bin: Poisson arrivals at ``rate_rps``, fresh server, full
    outcome accounting from both the futures and the server's metrics."""
    with _new_server() as server:
        server.submit_spmm(csr, b).result(120)  # warm outside the measurement
        server.metrics.reset_cache_baseline()
        warm_completed = 1

        futures = []
        rejected = 0
        max_queue_seen = 0
        t0 = time.perf_counter()
        next_at = 0.0
        for i in range(ARRIVALS_PER_BIN):
            next_at += rng.exponential(1.0 / rate_rps)
            delay = t0 + next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                futures.append(
                    server.submit_spmm(csr, b, timeout=REQUEST_DEADLINE_S)
                )
            except ServerOverloadedError:
                rejected += 1
            if i % 4 == 0:
                max_queue_seen = max(max_queue_seen, server.snapshot().queue_depth)
        completed = timed_out = errored = 0
        for fut in futures:
            try:
                fut.result(120)
                completed += 1
            except ServeTimeoutError:
                timed_out += 1
            except Exception:
                errored += 1
        elapsed = time.perf_counter() - t0
        max_queue_seen = max(max_queue_seen, server.snapshot().queue_depth)

    # Snapshot only after close() has joined the dispatcher: futures resolve
    # *before* their metrics are recorded, so an in-flight snapshot could
    # undercount the final request's outcome.
    snap = server.snapshot()
    assert snap.requests_rejected == rejected
    assert snap.requests_timed_out == timed_out
    assert snap.requests_completed == completed + warm_completed
    return {
        "offered_rps": rate_rps,
        "achieved_rps": completed / elapsed,
        "arrivals": ARRIVALS_PER_BIN,
        "completed": completed,
        "rejected": rejected,
        "timed_out": timed_out,
        "errored": errored,
        "reject_rate": rejected / ARRIVALS_PER_BIN,
        "shed_rate": (rejected + timed_out) / ARRIVALS_PER_BIN,
        "p50_s": snap.latency_p50_s,
        "p99_s": snap.latency_p99_s,
        "queue_wait_p99_s": snap.queue_wait.p99_s,
        "execution_p99_s": snap.execution.p99_s,
        "max_queue_depth_seen": max_queue_seen,
    }


def run_serve_openloop() -> dict:
    csr, b = _workload()
    calibration = _calibrate(csr, b)
    rng = np.random.default_rng(23)
    bins = []
    for multiple in RATE_MULTIPLES:
        result = _drive_open_loop(multiple * calibration["saturation_rps"], csr, b, rng)
        result["load_multiple"] = multiple
        bins.append(result)
    return {
        "config": {
            "num_nodes": NUM_NODES,
            "avg_row_length": AVG_ROW_LENGTH,
            "spmm_width": SPMM_WIDTH,
            "max_queue_depth": MAX_QUEUE_DEPTH,
            "request_deadline_s": REQUEST_DEADLINE_S,
            "arrivals_per_bin": ARRIVALS_PER_BIN,
            "slo_p99_s": SLO_P99_S,
        },
        "calibration": calibration,
        "bins": bins,
    }


def _emit(report: dict) -> None:
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    rows = [
        [
            f"{r['load_multiple']:.2f}x",
            r["offered_rps"],
            r["achieved_rps"],
            r["p50_s"] * 1e3,
            r["p99_s"] * 1e3,
            f"{r['reject_rate']:.0%}",
            f"{r['shed_rate']:.0%}",
            r["max_queue_depth_seen"],
        ]
        for r in report["bins"]
    ]
    try:
        from bench_common import emit_table

        emit_table(
            "serve_openloop",
            ["Load", "Offered r/s", "Achieved r/s", "p50 (ms)", "p99 (ms)", "Rejected", "Shed", "Max queue"],
            rows,
            title="repro.serve open-loop Poisson sweep "
            f"(saturation {report['calibration']['saturation_rps']:.1f} req/s, "
            f"queue cap {MAX_QUEUE_DEPTH}, deadline {REQUEST_DEADLINE_S}s)",
        )
    except ImportError:  # standalone run without the harness on sys.path
        for row in rows:
            print("  ".join(str(c) for c in row))
    print(f"[openloop JSON written to {RESULTS_JSON}]")


def _bin_for(report: dict, multiple: float) -> dict:
    return next(r for r in report["bins"] if r["load_multiple"] == multiple)


def _check(report: dict) -> None:
    """The two CI gates: latency SLO below saturation, boundedness above."""
    half = _bin_for(report, SLO_LOAD_MULTIPLE)
    assert half["p99_s"] <= SLO_P99_S, (
        f"latency SLO violated at {SLO_LOAD_MULTIPLE}x saturation: "
        f"p99 {half['p99_s']*1e3:.1f} ms > {SLO_P99_S*1e3:.0f} ms"
    )
    assert half["errored"] == 0

    over = _bin_for(report, OVERLOAD_MULTIPLE)
    assert over["max_queue_depth_seen"] <= MAX_QUEUE_DEPTH, (
        f"queue depth unbounded under overload: saw {over['max_queue_depth_seen']} "
        f"> cap {MAX_QUEUE_DEPTH}"
    )
    assert over["rejected"] + over["timed_out"] > 0, (
        "2x saturation offered load produced no shedding — either the "
        "saturation estimate is broken or admission control never engaged"
    )
    # Shedding keeps served-request latency bounded by deadline + execution
    # slack — without it, p99 would grow with the run length.
    bound = REQUEST_DEADLINE_S + 10 * max(
        report["calibration"]["execution_p50_s"], 0.01
    )
    assert over["p99_s"] <= bound, (
        f"p99 under overload not bounded by shedding: "
        f"{over['p99_s']:.3f}s > {bound:.3f}s"
    )
    assert over["errored"] == 0
    print(
        f"OK: p99@{SLO_LOAD_MULTIPLE}x {half['p99_s']*1e3:.1f} ms <= "
        f"{SLO_P99_S*1e3:.0f} ms SLO; 2x overload shed "
        f"{over['shed_rate']:.0%} with queue <= {over['max_queue_depth_seen']}"
    )


try:  # the `benchmark` fixture only exists with the plugin installed
    import pytest_benchmark  # noqa: F401

    def test_serve_openloop(benchmark):
        report = benchmark.pedantic(run_serve_openloop, rounds=1, iterations=1)
        _emit(report)
        _check(report)

except ImportError:

    def test_serve_openloop():
        report = run_serve_openloop()
        _emit(report)
        _check(report)


if __name__ == "__main__":
    full_report = run_serve_openloop()
    _emit(full_report)
    _check(full_report)
    print("OK: open-loop serving benchmark complete")
