"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation section (see DESIGN.md's experiment index).  Each module exposes a
``run_*()`` function that produces the rows/series and a pytest-benchmark
test that executes it once, prints the resulting table and writes it to
``benchmarks/results/``.

The matrices are the synthetic SuiteSparse-like collection plus the Table-4
graph stand-ins (see :mod:`repro.datasets`); the kernel "times" are the cost
counters of the simulated kernels converted by the analytic performance
model.  Absolute numbers are therefore model outputs, not hardware
measurements — EXPERIMENTS.md compares their *shape* against the paper.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from repro.baselines import get_baseline
from repro.datasets import suitesparse_like_collection
from repro.gpu.device import H100_PCIE, RTX4090, GPUSpec
from repro.kernels import (
    FLASH_SDDMM_PROFILE,
    FLASH_SPMM_PROFILE,
    sddmm_flash_cost,
    sddmm_tcu16_cost,
    spmm_flash_cost,
    spmm_tcu16_cost,
)
from repro.kernels.common import FlashSparseConfig
from repro.perfmodel import estimate_time, gflops, sddmm_useful_flops, spmm_useful_flops
from repro.utils.tables import format_table

#: Where the regenerated tables are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Devices of the paper's evaluation.
DEVICES: dict[str, GPUSpec] = {"H100": H100_PCIE, "RTX4090": RTX4090}

#: Number of synthetic matrices in the sweep (the paper uses 500 SuiteSparse
#: matrices; the default keeps the full benchmark run under a few minutes and
#: can be raised via the REPRO_BENCH_MATRICES environment variable).
DEFAULT_NUM_MATRICES = int(os.environ.get("REPRO_BENCH_MATRICES", "40"))


@functools.lru_cache(maxsize=None)
def evaluation_collection(num_matrices: int = DEFAULT_NUM_MATRICES):
    """The shared matrix collection (synthetic SuiteSparse-like + Table-4 graphs)."""
    return suitesparse_like_collection(num_matrices=num_matrices, seed=20250211, include_graphs=True)


@functools.lru_cache(maxsize=None)
def graph_only_collection():
    """Just the Table-4 graph stand-ins (used by Figures 1, 16 and Table 2)."""
    return [case for case in evaluation_collection() if case.family == "graph"]


# ---------------------------------------------------------------------------
# Kernel-time helpers (FlashSparse and baselines share these entry points)
# ---------------------------------------------------------------------------
def flash_spmm_time(matrix, n_dense: int, device: GPUSpec, precision: str = "fp16", coalesced: bool = True) -> float:
    """Estimated FlashSparse SpMM time."""
    config = FlashSparseConfig(precision=precision, coalesced=coalesced)
    counter = spmm_flash_cost(matrix, n_dense, config)
    return estimate_time(counter, device, FLASH_SPMM_PROFILE).total_time_s


def flash_sddmm_time(matrix, k_dense: int, device: GPUSpec, precision: str = "fp16") -> float:
    """Estimated FlashSparse SDDMM time."""
    counter = sddmm_flash_cost(matrix, k_dense, FlashSparseConfig(precision=precision))
    return estimate_time(counter, device, FLASH_SDDMM_PROFILE).total_time_s


def vector16_spmm_time(matrix, n_dense: int, device: GPUSpec, precision: str = "fp16") -> float:
    """Estimated SpMM time of the 16x1 ablation baseline (same profile as FlashSparse)."""
    config = FlashSparseConfig(precision=precision)
    counter = spmm_tcu16_cost(matrix, n_dense, config)
    return estimate_time(counter, device, FLASH_SPMM_PROFILE).total_time_s


def vector16_sddmm_time(matrix, k_dense: int, device: GPUSpec, precision: str = "fp16") -> float:
    """Estimated SDDMM time of the 16x1 ablation baseline."""
    config = FlashSparseConfig(precision=precision)
    counter = sddmm_tcu16_cost(matrix, k_dense, config)
    return estimate_time(counter, device, FLASH_SDDMM_PROFILE).total_time_s


def baseline_spmm_time(name: str, matrix, n_dense: int, device: GPUSpec) -> float:
    """Estimated SpMM time of a named baseline."""
    baseline = get_baseline(name)
    counter = baseline.spmm_cost(matrix, n_dense)
    return estimate_time(counter, device, baseline.profile).total_time_s


def baseline_sddmm_time(name: str, matrix, k_dense: int, device: GPUSpec) -> float:
    """Estimated SDDMM time of a named baseline."""
    baseline = get_baseline(name)
    counter = baseline.sddmm_cost(matrix, k_dense)
    return estimate_time(counter, device, baseline.profile).total_time_s


def spmm_gflops(matrix, time_s: float, n_dense: int) -> float:
    """SpMM throughput for a matrix and an estimated time."""
    return gflops(spmm_useful_flops(matrix.nnz, n_dense), time_s)


def sddmm_gflops(matrix, time_s: float, k_dense: int) -> float:
    """SDDMM throughput for a matrix and an estimated time."""
    return gflops(sddmm_useful_flops(matrix.nnz, k_dense), time_s)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------
def emit_table(name: str, headers, rows, title: str) -> str:
    """Format, print and persist one regenerated table."""
    text = format_table(headers, rows, title=title)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / f"{name}.txt"
    out_path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {out_path}]")
    return text
