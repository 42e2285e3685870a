"""Shared machinery for the baseline implementations.

Every baseline is described by a :class:`Baseline` object carrying:

* metadata matching Table 3 of the paper (precision, compute granularity),
* a :class:`~repro.perfmodel.model.KernelProfile`,
* cost functions (``spmm_cost`` and, where the paper evaluates it,
  ``sddmm_cost``) that return a :class:`~repro.gpu.counters.CostCounter`, and
* execute functions that produce the numeric result (all baselines compute
  the same mathematical SpMM/SDDMM; the CUDA-core ones do so in FP32).

The CUDA-core execute paths use scipy's CSR kernels for the arithmetic —
the numerics of a CUDA-core FP32 SpMM and a CPU FP32 SpMM are the same — and
attach the baseline's cost counter, so result objects are interchangeable
with the FlashSparse kernel results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.kernels.common import SddmmResult, SpmmResult
from repro.ops import segment_ids
from repro.perfmodel.model import KernelProfile, sddmm_useful_flops, spmm_useful_flops
from repro.precision.types import Precision


@dataclass
class Baseline:
    """One baseline system (Table 3 row)."""

    name: str
    paper_reference: str
    precision: Precision
    granularity: str  # "CUDA cores", "16x1 on TCU", ...
    profile: KernelProfile
    spmm_cost: Callable[[CSRMatrix, int], CostCounter]
    spmm_execute: Callable[[CSRMatrix, np.ndarray], SpmmResult] | None = None
    sddmm_cost: Callable[[CSRMatrix, int], CostCounter] | None = None
    sddmm_execute: Callable[[CSRMatrix, np.ndarray, np.ndarray], SddmmResult] | None = None
    notes: str = field(default="")


def csr_spmm_reference(matrix: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """FP32 CSR SpMM reference result (what every CUDA-core baseline computes)."""
    b = np.asarray(b, dtype=np.float32)
    return np.asarray(matrix.to_scipy().astype(np.float32) @ b, dtype=np.float32)


def csr_sddmm_reference(matrix: CSRMatrix, a: np.ndarray, b: np.ndarray) -> CSRMatrix:
    """FP32 CSR SDDMM reference: sampled dot products at the mask's nonzeros."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    rows = segment_ids(matrix.indptr)
    cols = matrix.indices.astype(np.int64)
    values = np.einsum("ij,ij->i", a[rows], b[cols]).astype(np.float32)
    return matrix.with_values(values)


def make_spmm_execute(
    name: str, cost_fn: Callable[[CSRMatrix, int], CostCounter]
) -> Callable[[CSRMatrix, np.ndarray], SpmmResult]:
    """Wrap a cost function into an execute function returning values + costs."""

    def execute(matrix: CSRMatrix, b: np.ndarray) -> SpmmResult:
        values = csr_spmm_reference(matrix, b)
        counter = cost_fn(matrix, int(np.asarray(b).shape[1]))
        return SpmmResult(
            values=values,
            counter=counter,
            kernel=name,
            useful_flops=spmm_useful_flops(matrix.nnz, int(np.asarray(b).shape[1])),
            meta={"precision": "fp32", "baseline": name},
        )

    return execute


def make_sddmm_execute(
    name: str, cost_fn: Callable[[CSRMatrix, int], CostCounter]
) -> Callable[[CSRMatrix, np.ndarray, np.ndarray], SddmmResult]:
    """Wrap an SDDMM cost function into an execute function."""
    from repro.formats.mebcrs import MEBCRSMatrix

    def execute(matrix: CSRMatrix, a: np.ndarray, b: np.ndarray) -> SddmmResult:
        sampled = csr_sddmm_reference(matrix, a, b)
        counter = cost_fn(matrix, int(np.asarray(a).shape[1]))
        # Package the CSR output in a blocked container for API parity.
        blocked = MEBCRSMatrix.from_csr(sampled, precision=Precision.FP32, k=8)
        return SddmmResult(
            output=blocked,
            counter=counter,
            kernel=name,
            useful_flops=sddmm_useful_flops(matrix.nnz, int(np.asarray(a).shape[1])),
            meta={"precision": "fp32", "baseline": name},
        )

    return execute
