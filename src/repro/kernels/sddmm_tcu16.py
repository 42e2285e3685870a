"""16×1-vector TCU SDDMM — the granularity used by TC-GNN.

A declaration over the one SDDMM kernel of :mod:`repro.kernels.sddmm` with
the :data:`~repro.kernels.granularity.TCU16` binding: the sparse output TC
block is 16×8, half the vectors per block of the 8×1 variant — where the
SDDMM ablation gains of Figure 14 come from.
"""

from __future__ import annotations

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.kernels.common import FlashSparseConfig, SddmmResult
from repro.kernels.granularity import TCU16
from repro.kernels.sddmm import sddmm_cost, sddmm_execute
from repro.perfmodel.model import KernelProfile

#: Profile of the 16x1 SDDMM kernel (ablation baseline).
TCU16_SDDMM_PROFILE = KernelProfile(
    name="TCU-16x1-SDDMM",
    tcu_efficiency=0.30,
    cuda_efficiency=0.60,
    memory_efficiency=0.70,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="16x1 vector granularity SDDMM",
)

#: Nonzero vectors covered by one sparse output TC block (the tile is 16×8).
VECTORS_PER_OUTPUT_BLOCK = TCU16.dense_span(TCU16.shape_for("fp16"))


def sddmm_tcu16_execute(
    mask: BlockedVectorFormat | CSRMatrix,
    a: np.ndarray,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    scale_by_mask: bool = False,
) -> SddmmResult:
    """Execute SDDMM at 16×1 granularity (see :func:`sddmm_flash_execute`)."""
    return sddmm_execute(
        TCU16, "tcu16_sddmm", sddmm_tcu16_cost, mask, a, b, config, scale_by_mask
    )


def sddmm_tcu16_cost(
    mask: BlockedVectorFormat | CSRMatrix,
    k_dense: int,
    config: FlashSparseConfig | None = None,
) -> CostCounter:
    """Analytic cost of the 16×1 SDDMM (matches the execute path)."""
    return sddmm_cost(TCU16, mask, k_dense, config)
