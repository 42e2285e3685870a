"""FlashSparse SDDMM: the 8×1 swap-and-transpose binding (Section 3.4).

A declaration over the one SDDMM kernel of :mod:`repro.kernels.sddmm` with
the :data:`~repro.kernels.granularity.FLASH` binding: the sparse output TC
block is 8×16 instead of 16×8, which halves the output blocks per nonzero
vector.  The result tile arrives transposed/column-major in registers, so
this module also holds Algorithm 1's output splitting into the row-major
8×4 (TF32) or 8×8 (FP16) sub-tiles the subsequent SpMM consumes directly.
"""

from __future__ import annotations

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.gpu.device import WARP_SIZE
from repro.kernels.common import FlashSparseConfig, SddmmResult
from repro.kernels.granularity import FLASH
from repro.kernels.sddmm import sddmm_cost, sddmm_execute
from repro.perfmodel.model import KernelProfile
from repro.precision.types import Precision

#: Performance profile of the FlashSparse SDDMM kernel.
FLASH_SDDMM_PROFILE = KernelProfile(
    name="FlashSparse-SDDMM",
    tcu_efficiency=0.30,
    cuda_efficiency=0.60,
    memory_efficiency=0.70,
    l2_efficiency=0.70,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="8x1 swap-and-transpose SDDMM with split output tiles",
)

#: Nonzero vectors covered by one sparse output TC block (the tile is 8×16).
VECTORS_PER_OUTPUT_BLOCK = FLASH.dense_span(FLASH.shape_for("fp16"))


# ---------------------------------------------------------------------------
# Algorithm 1: output splitting
# ---------------------------------------------------------------------------
def algorithm1_offsets(tid: int, sub_block: str = "8x4") -> int:
    """Target offset of a thread's ``c0`` in the split output (Algorithm 1).

    Reproduces lines 2–8 of the paper's Algorithm 1: given the lane id, the
    linear offset (in elements) at which the thread writes its first
    accumulator value into the row-major split output.
    """
    if not 0 <= tid < WARP_SIZE:
        raise ValueError("tid must be a warp lane id (0..31)")
    if sub_block == "8x8":
        return (tid % 4) * 2 * 8 + (tid // 4)
    if sub_block == "8x4":
        k = 1 if tid > 15 else 0
        return (tid % 4) * 2 * 4 + (tid // 4) + (k * 32) - (k * 4)
    raise ValueError("sub_block must be '8x4' or '8x8'")


def split_output_tile(tile: np.ndarray, precision: Precision | str) -> list[np.ndarray]:
    """Split an 8×16 output TC block into the sub-tiles stored for SpMM.

    TF32 SpMM consumes 8×4 sparse blocks, so the tile is split into four 8×4
    tiles; FP16 SpMM consumes 8×8 blocks, giving two 8×8 tiles (Figure 9).
    """
    tile = np.asarray(tile)
    if tile.shape != (8, VECTORS_PER_OUTPUT_BLOCK):
        raise ValueError(f"output tile must be 8x{VECTORS_PER_OUTPUT_BLOCK}, got {tile.shape}")
    precision = Precision(precision)
    width = 8 if precision is Precision.FP16 else 4
    return [tile[:, j : j + width].copy() for j in range(0, VECTORS_PER_OUTPUT_BLOCK, width)]


def _resplit(acc: np.ndarray, precision: Precision) -> np.ndarray:
    """Algorithm 1 in the reference loop: the accumulator arrives
    column-major; splitting it into row-major sub-tiles is a pure layout
    change, verified by round-tripping every tile through the split."""
    return np.concatenate(split_output_tile(acc, precision), axis=1)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------
def sddmm_flash_execute(
    mask: BlockedVectorFormat | CSRMatrix,
    a: np.ndarray,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
    scale_by_mask: bool = False,
) -> SddmmResult:
    """Execute SDDMM: ``out[i, j] = <a[i, :], b[j, :]>`` at the mask's nonzeros.

    Parameters
    ----------
    mask:
        Sparse sampling matrix (its nonzero pattern selects the outputs).
    a:
        Dense matrix of shape ``(mask.n_rows, K)`` (row-major).
    b:
        Dense matrix of shape ``(mask.n_cols, K)`` — the column-major layout
        of the paper's ``K × Ncols`` right operand.
    scale_by_mask:
        When set, each output is additionally multiplied by the mask's stored
        value at that position (the general SDDMM definition); by default the
        outputs are the raw sampled dot products, as used by GNN attention.
    """
    return sddmm_execute(
        FLASH, "flashsparse_sddmm", sddmm_flash_cost, mask, a, b, config, scale_by_mask, _resplit
    )


def sddmm_flash_cost(
    mask: BlockedVectorFormat | CSRMatrix,
    k_dense: int,
    config: FlashSparseConfig | None = None,
) -> CostCounter:
    """Analytic cost of the FlashSparse SDDMM (matches the execute path)."""
    return sddmm_cost(FLASH, mask, k_dense, config)
