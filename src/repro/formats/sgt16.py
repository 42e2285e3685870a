"""The 16×1 nonzero-vector format used by TC-GNN and DTC-SpMM.

TC-GNN's SGT ("sparse graph translation") technique and DTC-SpMM both slice
the sparse matrix into 16-row windows and 16×1 nonzero vectors, matching the
``m = 16`` dimension of the MMA/WMMA left operand (Section 2.2, Figure 2).
The resulting blocked structure is identical in spirit to ME-BCRS but with a
16-element vector; it is the substrate of the 16×1 ablation baseline
(Figure 14) and of the TC-GNN / DTC-SpMM performance models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.mma import TCU16_SHAPES, block_k
from repro.precision.types import Precision

#: Vector granularity imposed by using the sparse matrix as the MMA left operand.
SGT_VECTOR_SIZE = 16


@dataclass
class SGT16Matrix(BlockedVectorFormat):
    """Sparse matrix stored as 16×1 nonzero vectors grouped into 16×k TC blocks."""

    format_name: str = "SGT-16x1"

    @classmethod
    def from_csr(
        cls,
        matrix: CSRMatrix,
        vector_size: int = SGT_VECTOR_SIZE,
        k: int | None = None,
        precision: Precision | str = Precision.TF32,
        **kwargs,
    ) -> "SGT16Matrix":
        """Translate CSR into the 16×1 blocked format.

        ``k`` defaults to the TC-block width of the 16×1 approaches' MMA
        (:data:`~repro.gpu.mma.TCU16_SHAPES`): 8 at every precision.
        """
        precision = Precision(precision)
        if k is None:
            k = block_k(TCU16_SHAPES, precision)
        return super().from_csr(matrix, vector_size=vector_size, k=k, precision=precision, **kwargs)
