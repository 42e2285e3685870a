"""Fused layer serving benchmark — one fused request vs the three-call composition.

A repeated AGNN layer workload (fresh feature panels every iteration, as
in training — so the attention matrix differs per layer evaluation) runs
twice against a two-host cluster server:

* **fused** — each layer is one ``submit_layer`` request; the worker
  executes SDDMM → scale → softmax → SpMM in place and only the output
  rows travel.
* **composed** — each layer is built here from two requests and a
  client-side softmax (``submit_sddmm`` → ``segment_softmax`` →
  ``submit_spmm`` over the attention matrix), shipping the SDDMM
  intermediate back to the client and a fresh attention-matrix bundle back
  out to a worker every layer.  The softmax never crossed the wire, so the
  transport bytes are those of the three-kernel pipeline.

Three CI gates ride on it:

* **bit-equality** — both runs produce bit-identical layer outputs for
  every iteration (fusion must never cost numerics);
* **round trips** — the fused run does exactly 1 serve request per layer,
  the composed run exactly 2, and the fused server banks
  ``round_trips_saved == 2 × layers``; the fused backend's ``OpStats``
  count ``layers`` of each of the three logical operators;
* **operand bytes** — the composed run moves ≥ ``MIN_BYTE_SAVINGS``× more
  transport bytes per layer than the fused run (the per-layer attention
  bundle + SDDMM intermediate the fused path never ships).

Results land in ``benchmarks/results/layer_fused.json`` for the CI
artifact upload.  Run standalone (``python benchmarks/bench_layer_fused.py``)
or through pytest.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread per process *before* NumPy loads: the benchmark
# compares transport behaviour, and oversubscribed BLAS threads inside the
# worker hosts would only add scheduler noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.datasets.generators import power_law_matrix
from repro.gnn import ServedBackend
from repro.ops import segment_softmax
from repro.serve import Server, attention_csr, gather_edge_values

#: AGNN-style workload: a ~45k-edge power-law graph, feature width N.
NUM_NODES = 1500
AVG_ROW_LENGTH = 30
FEATURE_WIDTH = 32
#: Layers per iteration and iterations (fresh features each iteration).
LAYERS = 2
ITERATIONS = 4
BETA = 0.8
#: Byte gate: composed transport bytes per layer over fused.
MIN_BYTE_SAVINGS = 2.0

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "layer_fused.json"


def _composed_agnn_forward(server: Server, csr, h: np.ndarray) -> np.ndarray:
    """``ServedBackend.agnn_forward`` as two requests and a softmax here."""
    norms = np.sqrt((h**2).sum(axis=1, keepdims=True)) + np.float32(1e-12)
    h_norm = np.ascontiguousarray((h / norms).astype(np.float32))
    scores = server.submit_sddmm(csr, h_norm, h_norm).result().output
    logits = gather_edge_values(scores.partition, csr.indptr, scores.vector_values)
    logits = (logits * np.float32(BETA)).astype(np.float32)
    attention = attention_csr(csr, segment_softmax(logits, csr.indptr))
    return np.asarray(server.submit_spmm(attention, h).result().values, dtype=np.float32)


def _drive(server: Server, csr, mode: str) -> tuple[list, "object"]:
    """Run the layer workload; returns (per-iteration outputs, the fused
    backend's OpStats, or ``None`` for the composed run)."""
    backend = ServedBackend(server=server, adjacency=csr)
    rng = np.random.default_rng(2025)  # same panel sequence for both modes
    outputs = []
    for _ in range(ITERATIONS):
        h = rng.standard_normal((NUM_NODES, FEATURE_WIDTH)).astype(np.float32)
        for _layer in range(LAYERS):
            if mode == "fused":
                h = backend.agnn_forward(h, beta=BETA)
            else:
                h = _composed_agnn_forward(server, csr, h)
        outputs.append(h)
    return outputs, backend.stats if mode == "fused" else None


def _measure(mode: str, csr) -> tuple[dict, list]:
    with Server(backend="cluster", hosts=2, device="rtx4090") as server:
        outputs, stats = _drive(server, csr, mode)
        snap = server.snapshot()
        cluster = server.scheduler.stats_snapshot()
    layers = ITERATIONS * LAYERS
    transport = cluster["bytes_sent"] + cluster["bytes_received"]
    return {
        "mode": mode,
        "layers": layers,
        "serve_requests": snap.requests_submitted,
        "round_trips_per_layer": snap.requests_submitted / layers,
        "layer_requests": snap.layer_requests,
        "round_trips_saved": snap.round_trips_saved,
        "operand_bytes_saved": snap.operand_bytes_saved,
        "cluster_requests": cluster["requests"],
        "bytes_sent": cluster["bytes_sent"],
        "bytes_received": cluster["bytes_received"],
        "bytes_per_layer": transport / layers,
        "store_hits": cluster["store_hits"],
        "task_failures": cluster["task_failures"],
        "stage_latency_ms": {
            stage: stats_.mean_s * 1e3
            for stage, stats_ in snap.stage_latency.items()
        },
        "opstats": None if stats is None else asdict(stats),
    }, outputs


def run_layer_fused() -> dict:
    csr = power_law_matrix(NUM_NODES, avg_row_length=AVG_ROW_LENGTH, seed=7)
    fused, fused_outs = _measure("fused", csr)
    composed, composed_outs = _measure("composed", csr)
    for fused_out, composed_out in zip(fused_outs, composed_outs):
        np.testing.assert_array_equal(fused_out, composed_out)
    report = {
        "config": {
            "num_nodes": NUM_NODES,
            "avg_row_length": AVG_ROW_LENGTH,
            "nnz": csr.nnz,
            "feature_width": FEATURE_WIDTH,
            "layers_per_iteration": LAYERS,
            "iterations": ITERATIONS,
        },
        "fused": fused,
        "composed": composed,
        "bit_identical": True,  # assert_array_equal above would have raised
        "byte_savings": composed["bytes_per_layer"]
        / max(1e-9, fused["bytes_per_layer"]),
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def _emit(report: dict) -> None:
    rows = [
        [
            run["mode"],
            run["round_trips_per_layer"],
            run["cluster_requests"],
            run["bytes_per_layer"] / 1e3,
            run["bytes_sent"] / 1e6,
            run["bytes_received"] / 1e6,
        ]
        for run in (report["fused"], report["composed"])
    ]
    rows.append(
        ["savings (composed / fused)", 2.0, 0, report["byte_savings"], 0.0, 0.0]
    )
    try:
        from bench_common import emit_table

        emit_table(
            "layer_fused",
            [
                "Serving mode",
                "Round trips/layer",
                "Cluster requests",
                "kB/layer | x",
                "MB sent",
                "MB received",
            ],
            rows,
            title="Fused layer serving vs the three-call composition: "
            f"{report['config']['iterations']}x{report['config']['layers_per_iteration']} "
            f"AGNN layers, {report['config']['nnz']} edges",
        )
    except ImportError:  # standalone without the harness on sys.path
        for row in rows:
            print(
                f"{row[0]:>28}: {row[1]:5.2f} rt/layer, {row[3]:9.1f} kB/layer"
            )
    print(f"[fused layer JSON written to {RESULTS_JSON}]")


def _check(report: dict) -> None:
    fused, composed = report["fused"], report["composed"]
    layers = fused["layers"]
    assert fused["round_trips_per_layer"] == 1.0, (
        f"fused serving must be one request per layer, got "
        f"{fused['round_trips_per_layer']:.2f}"
    )
    assert composed["round_trips_per_layer"] == 2.0, (
        f"composed serving must pay its two requests per layer, got "
        f"{composed['round_trips_per_layer']:.2f}"
    )
    assert fused["layer_requests"] == layers
    assert fused["round_trips_saved"] == 2 * layers
    # One fused request still counts all three logical operators.
    assert fused["opstats"] == {
        "spmm_calls": layers,
        "sddmm_calls": layers,
        "edge_softmax_calls": layers,
    }
    assert fused["task_failures"] == 0 and composed["task_failures"] == 0
    assert report["byte_savings"] >= MIN_BYTE_SAVINGS, (
        f"fused transport savings regressed: composed moves "
        f"{composed['bytes_per_layer'] / 1e3:.0f} kB/layer vs fused "
        f"{fused['bytes_per_layer'] / 1e3:.0f} kB/layer — "
        f"{report['byte_savings']:.2f}x < {MIN_BYTE_SAVINGS}x"
    )


try:  # the `benchmark` fixture only exists with the plugin installed
    import pytest_benchmark  # noqa: F401

    def test_layer_fused(benchmark):
        report = benchmark.pedantic(run_layer_fused, rounds=1, iterations=1)
        _emit(report)
        _check(report)

except ImportError:

    def test_layer_fused():
        report = run_layer_fused()
        _emit(report)
        _check(report)


if __name__ == "__main__":
    result = run_layer_fused()
    _emit(result)
    _check(result)
    print("OK: fused layer benchmark complete")
