"""Engine microbenchmark — batched vs reference wall-clock on SpMM/SDDMM.

The batched execution engine (:mod:`repro.kernels.engine`) exists to remove
the per-(window, block, tile) interpreter overhead of the reference loops.
This benchmark records the wall-clock of both engines on a fig11-style
synthetic workload (Erdős–Rényi / power-law matrices, N = 128) and reports
the speedup.  It doubles as a regression gate: the batched SpMM must stay at
least 10× faster than the reference loop, and — against an external floor
rather than our own slower path — within 8× of SciPy's fp32 CSR ``A @ B`` on
the same matrices (the row-wise accumulate measures ~3×; the per-block
product + ``reduceat`` it replaced measured ~38×, so a return of a
reduction-shaped cost fails here).  The batched SDDMM has the twin gate:
within 2.5× of a NumPy gather + ``einsum`` at the nonzeros at K = 32 (the
per-entry core measures ~1.5×; the padded-tile batch it replaced ~3×).

Run standalone (``python benchmarks/bench_engine_speedup.py``) or through
pytest (``pytest benchmarks/bench_engine_speedup.py --benchmark-only``).
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: the floor gate compares two
# single-threaded kernels.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import numpy as np

from repro.datasets.generators import erdos_renyi_matrix, power_law_matrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.common import FlashSparseConfig
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.kernels.sddmm_flash import sddmm_flash_execute

#: Dense operand width, matching the Figure 11 sweep.
N_DENSE = 128
#: Minimum batched-over-reference SpMM speedup the engine must sustain.
MIN_SPMM_SPEEDUP = 10.0
#: Maximum batched SpMM wall-clock as a multiple of SciPy's fp32 CSR ``A @ B``.
MAX_SPMM_FLOOR_RATIO = 8.0
#: Maximum batched SDDMM wall-clock as a multiple of a NumPy gather + einsum
#: of the same dot products at the nonzeros.
MAX_SDDMM_FLOOR_RATIO = 2.5
#: Inner dimension of the SDDMM floor gate — attention-head sized, where the
#: per-entry overheads the gate watches are not hidden behind the gathers
#: (at K = 128 one unchunked gather is already slower than the whole engine).
K_SDDMM_FLOOR = 32
#: Wall-clock samples per engine; best-of-N keeps the CI gate robust to
#: scheduling noise on shared runners.
TIMING_ROUNDS = 3
#: Samples per side of the floor gate (both sides take milliseconds).
FLOOR_ROUNDS = 5


def _workload():
    """Two fig11-style synthetic matrices, small enough for the loop path."""
    return [
        ("erdos_renyi_2048", erdos_renyi_matrix(2048, avg_row_length=24, seed=11)),
        ("power_law_3072", power_law_matrix(3072, avg_row_length=16, seed=12)),
    ]


def _time(fn, rounds: int = TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_engine_speedup():
    """Rows of (matrix, op, reference s, batched s, speedup)."""
    rng = np.random.default_rng(20260730)
    rows = []
    for name, csr in _workload():
        fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
        b = rng.standard_normal((fmt.shape[1], N_DENSE))
        a = rng.standard_normal((fmt.shape[0], N_DENSE))
        batched = FlashSparseConfig(precision="fp16", engine="batched")
        reference = FlashSparseConfig(precision="fp16", engine="reference")

        # Warm both paths once (format batch arrays, LRU caches, BLAS init).
        spmm_flash_execute(fmt, b, batched)
        ref_spmm = _time(lambda: spmm_flash_execute(fmt, b, reference))
        bat_spmm = _time(lambda: spmm_flash_execute(fmt, b, batched))
        rows.append([name, "spmm", ref_spmm, bat_spmm, ref_spmm / bat_spmm])

        sddmm_flash_execute(fmt, a, b, batched)
        ref_sddmm = _time(lambda: sddmm_flash_execute(fmt, a, b, reference))
        bat_sddmm = _time(lambda: sddmm_flash_execute(fmt, a, b, batched))
        rows.append([name, "sddmm", ref_sddmm, bat_sddmm, ref_sddmm / bat_sddmm])
    return rows


def run_floors():
    """Rows of (matrix, op, floor s, batched s, ratio) against external
    floors: SciPy's fp32 CSR ``A @ B`` for SpMM, a NumPy gather + ``einsum``
    of ``a[row] · b[col]`` at the nonzeros for SDDMM."""
    rng = np.random.default_rng(20260730)
    rows = []
    for name, csr in _workload():
        b = rng.standard_normal((csr.shape[1], N_DENSE))
        b32 = b.astype(np.float32)
        scipy_csr = csr.to_scipy().astype(np.float32)
        nz_rows, nz_cols = scipy_csr.nonzero()
        config = FlashSparseConfig(precision="fp16", engine="batched")
        spmm_flash_execute(csr, b, config)  # warm: translation, lane view
        floor = _time(lambda: scipy_csr @ b32, FLOOR_ROUNDS)
        batched = _time(lambda: spmm_flash_execute(csr, b, config), FLOOR_ROUNDS)
        rows.append([name, "spmm", floor, batched, batched / floor])
        a, b = (rng.standard_normal((n, K_SDDMM_FLOOR)) for n in csr.shape)
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        sddmm_flash_execute(csr, a, b, config)  # warm
        floor = _time(lambda: np.einsum("ek,ek->e", a32[nz_rows], b32[nz_cols]), FLOOR_ROUNDS)
        batched = _time(lambda: sddmm_flash_execute(csr, a, b, config), FLOOR_ROUNDS)
        rows.append([name, "sddmm", floor, batched, batched / floor])
    return rows


def _emit(rows, floor_rows) -> None:
    from bench_common import emit_table

    emit_table(
        "engine_speedup",
        ["Matrix", "Op", "Reference (s)", "Batched (s)", "Speedup"],
        rows,
        title="Batched execution engine vs reference emulation loop (N=128, fp16)",
    )
    emit_table(
        "engine_floor",
        ["Matrix", "Op", "Floor (s)", "Batched (s)", "x floor"],
        floor_rows,
        title="Batched engine vs SciPy fp32 CSR A @ B / NumPy einsum at the nonzeros "
        f"(N={N_DENSE}, K={K_SDDMM_FLOOR}, one thread)",
    )


def _check(rows, floor_rows) -> None:
    spmm_speedups = [r[4] for r in rows if r[1] == "spmm"]
    worst = min(spmm_speedups)
    assert worst >= MIN_SPMM_SPEEDUP, (
        f"batched SpMM engine regressed: worst speedup {worst:.1f}x < "
        f"{MIN_SPMM_SPEEDUP:.0f}x over the reference loop"
    )
    for op, limit in (("spmm", MAX_SPMM_FLOOR_RATIO), ("sddmm", MAX_SDDMM_FLOOR_RATIO)):
        furthest = max(r[4] for r in floor_rows if r[1] == op)
        assert furthest <= limit, (
            f"batched {op} drifted from its floor: {furthest:.1f}x > {limit:.1f}x"
        )


try:  # the `benchmark` fixture only exists with the plugin installed
    import pytest_benchmark  # noqa: F401

    def test_engine_speedup(benchmark):
        rows = benchmark.pedantic(run_engine_speedup, rounds=1, iterations=1)
        floor_rows = run_floors()
        _emit(rows, floor_rows)
        _check(rows, floor_rows)

except ImportError:

    def test_engine_speedup():
        rows, floor_rows = run_engine_speedup(), run_floors()
        _emit(rows, floor_rows)
        _check(rows, floor_rows)


if __name__ == "__main__":
    result_rows, result_floor_rows = run_engine_speedup(), run_floors()
    try:
        _emit(result_rows, result_floor_rows)
    except ImportError:  # standalone invocation without the harness on sys.path
        for row in result_rows:
            print(f"{row[0]:>20} {row[1]:>6}: reference {row[2]:.3f}s  batched {row[3]:.3f}s  {row[4]:.1f}x")
        for row in result_floor_rows:
            print(f"{row[0]:>20} {row[1]:>6}: floor {row[2]:.4f}s  batched {row[3]:.4f}s  {row[4]:.1f}x floor")
    _check(result_rows, result_floor_rows)
    print(
        f"OK: batched SpMM engine >= {MIN_SPMM_SPEEDUP:.0f}x faster than the reference loop, "
        f"<= {MAX_SPMM_FLOOR_RATIO:.0f}x SciPy's CSR A @ B; "
        f"batched SDDMM <= {MAX_SDDMM_FLOOR_RATIO}x einsum at the nonzeros"
    )
