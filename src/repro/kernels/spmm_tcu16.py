"""16×1-vector TCU SpMM — the granularity used by TC-GNN and DTC-SpMM.

A declaration over the one SpMM kernel of :mod:`repro.kernels.spmm` with the
:data:`~repro.kernels.granularity.TCU16` binding (Section 2.2 / Figure 2):
the 16×k sparse TC block is the *left* MMA operand and each MMA covers only
``n = 8`` dense columns (16 with WMMA).  It is the ablation baseline of
Figure 14 and the computational core of the DTC-SpMM and TC-GNN models in
:mod:`repro.baselines`, which add their own overheads on top.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.kernels.common import FlashSparseConfig, SpmmResult
from repro.kernels.granularity import TCU16
from repro.kernels.spmm import spmm_cost, spmm_execute
from repro.perfmodel.model import KernelProfile

#: Profile of the plain 16x1 kernel (ablation baseline).
TCU16_SPMM_PROFILE = KernelProfile(
    name="TCU-16x1-SpMM",
    tcu_efficiency=0.35,
    cuda_efficiency=0.60,
    memory_efficiency=0.72,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="16x1 vector granularity, sparse block as the MMA left operand",
)

#: The MMA/WMMA instruction of the 16×1 approaches, ``instruction_for(precision,
#: api="mma")``: a row of the ``TCU16`` table (``api="wmma"`` is TF32 only).
instruction_for = TCU16.shape_for


def spmm_tcu16_execute(
    a: BlockedVectorFormat | CSRMatrix,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    api: str = "mma",
) -> SpmmResult:
    """Execute C = A @ B with the 16×1-vector TCU kernel."""
    kernel = "tcu16_spmm" if api == "mma" else "tcu16_wmma_spmm"
    return spmm_execute(TCU16, kernel, partial(spmm_tcu16_cost, api=api), a, b, config, api)


def spmm_tcu16_cost(
    a: BlockedVectorFormat | CSRMatrix,
    n_dense: int,
    config: FlashSparseConfig | None = None,
    api: str = "mma",
) -> CostCounter:
    """Analytic cost of the 16×1 SpMM (matches :func:`spmm_tcu16_execute`)."""
    return spmm_cost(TCU16, a, n_dense, config, api)
