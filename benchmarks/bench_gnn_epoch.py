"""GNN epoch benchmark — AGNN training-epoch wall-clock + SpMM memory gate.

An AGNN training epoch (forward, loss, backward, Adam step) through
:func:`repro.gnn.make_backend` exercises every numeric path of a
:class:`~repro.gnn.backends.SparseBackend`: the engine's SpMM and SDDMM
cores in forward and backward (the backward ones on the transposed
pattern) and the segment-op edge softmax.

This benchmark records:

* best-of-3 wall-clock of one AGNN training epoch on a ~50k-edge power-law
  graph (reported, not gated: there is no second path to compare it
  against), and
* the SpMM engine's peak allocation (tracemalloc), which is gated: it must
  stay within its output plus O(nnz) — the row-wise accumulate holds no
  per-block ``(blocks, v, N)`` slab, CI-enforced rather than taken on faith.

Run standalone (``python benchmarks/bench_gnn_epoch.py``) or through pytest
(``pytest benchmarks/bench_gnn_epoch.py --benchmark-only``).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.datasets.generators import power_law_matrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.gnn import autograd as ag
from repro.gnn.autograd import Tensor
from repro.gnn.backends import make_backend
from repro.gnn.models import AGNN
from repro.gnn.train import Adam
from repro.kernels.engine import spmm_batched, spmm_bytes_per_block
from repro.precision.types import Precision

#: Graph scale of the epoch: ~50k edges.
NUM_NODES = 6000
AVG_ROW_LENGTH = 12
#: Feature / hidden dimensions of the epoch model (paper's AGNN uses 32).
NUM_FEATURES = 32
HIDDEN = 32
NUM_CLASSES = 7
#: Wall-clock samples per measurement; best-of-N is robust to scheduling
#: noise on shared runners.
TIMING_ROUNDS = 3


def _best_of(fn, rounds: int = TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _workload():
    csr = power_law_matrix(NUM_NODES, avg_row_length=AVG_ROW_LENGTH, seed=42)
    rng = np.random.default_rng(7)
    features = rng.standard_normal((NUM_NODES, NUM_FEATURES)).astype(np.float32)
    labels = rng.integers(0, NUM_CLASSES, size=NUM_NODES)
    return csr, features, labels


def _epoch_runner(backend, features: np.ndarray, labels: np.ndarray):
    """One AGNN training epoch (forward, loss, backward, optimiser step)."""
    model = AGNN(NUM_FEATURES, HIDDEN, NUM_CLASSES, num_attention_layers=1, dropout=0.0, seed=3)
    optimiser = Adam(model.parameters(), lr=0.01)
    x = Tensor(features)

    def epoch() -> None:
        optimiser.zero_grad()
        loss = ag.nll_loss(model(backend, x), labels)
        loss.backward()
        optimiser.step()

    return epoch


def check_spmm_engine_memory_peak() -> dict:
    """Tracemalloc gate: SpMM peaks at its output plus O(nnz), with no slab.

    Runs the headline-size SpMM and asserts the peak allocation stays within
    the output rows plus a few words per stored nonzero (the quantised
    values and SciPy's index arrays), while the ``(blocks, v, N)`` product
    plus gathered B rows a per-block engine would hold — ``num_blocks ·
    spmm_bytes_per_block`` — dwarfs that allowance.
    """
    csr = power_law_matrix(4000, avg_row_length=AVG_ROW_LENGTH, seed=7)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    n_dense = 128
    rng = np.random.default_rng(7)
    b_q = rng.standard_normal((csr.n_cols, n_dense)).astype(np.float32)

    spmm_batched(fmt, b_q, Precision.FP16)  # warm: the one-time lane view
    tracemalloc.start()
    try:
        tracemalloc.clear_traces()
        spmm_batched(fmt, b_q, Precision.FP16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    out_bytes = fmt.num_windows * fmt.vector_size * n_dense * 4
    allowance = out_bytes + 32 * csr.nnz + 2**16
    slab_bytes = fmt.num_tc_blocks * spmm_bytes_per_block(fmt.vector_size, fmt.k, n_dense)
    assert peak <= allowance, (
        f"SpMM engine peak {peak} B exceeds output + O(nnz) = {allowance} B "
        f"(output {out_bytes} B, {csr.nnz} nonzeros)"
    )
    assert slab_bytes > 2 * allowance, "memory gate lost its teeth"
    return {"out_bytes": out_bytes, "peak_bytes": peak, "slab_bytes": slab_bytes}


def run_gnn_epoch():
    """Rows of (measurement, value, unit)."""
    csr, features, labels = _workload()
    epoch = _epoch_runner(make_backend("flashsparse-fp16", csr), features, labels)
    epoch()  # warm (format caches, allocator)
    rows = [[f"AGNN epoch, best of {TIMING_ROUNDS} ({csr.nnz} edges)", _best_of(epoch) * 1e3, "ms"]]

    mem = check_spmm_engine_memory_peak()
    rows.append([f"SpMM engine peak (output {mem['out_bytes']} B)", mem["peak_bytes"] / 1e6, "MB"])
    rows.append(["per-block slab the gate rules out", mem["slab_bytes"] / 1e6, "MB"])
    return rows


def _emit(rows) -> None:
    from bench_common import emit_table

    emit_table(
        "gnn_epoch",
        ["Measurement", "Value", "Unit"],
        rows,
        title="GNN training epoch wall-clock + SpMM-engine memory gate",
    )


try:  # the `benchmark` fixture only exists with the plugin installed
    import pytest_benchmark  # noqa: F401

    def test_gnn_epoch(benchmark):
        _emit(benchmark.pedantic(run_gnn_epoch, rounds=1, iterations=1))

except ImportError:

    def test_gnn_epoch():
        _emit(run_gnn_epoch())


if __name__ == "__main__":
    result_rows = run_gnn_epoch()
    try:
        _emit(result_rows)
    except ImportError:  # standalone invocation without the harness on sys.path
        for row in result_rows:
            print(f"{row[0]:>48}: {row[1]:.3f} {row[2]}")
    print("OK: SpMM engine peak within output + O(nnz)")
