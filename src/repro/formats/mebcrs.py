"""ME-BCRS — FlashSparse's memory-efficient blocked storage format.

Section 3.5 of the paper: the sparse matrix is stored as three arrays per
the 8×1 nonzero-vector partition —

1. ``RowPointers`` — start offset of each row window in ``ColumnIndices``;
2. ``ColumnIndices`` — the column index of every stored nonzero vector;
3. ``Values`` — the elements of each sparse TC block, row-major, with the TC
   block as the stride.

Unlike the padding-based SR-BCRS scheme, the last TC block of a window is
*not* padded with zero vectors to a multiple of ``k``: the kernels compute
the residue width with a modulo operation and supply zero register values for
the missing vectors.  This trims both ``ColumnIndices`` and ``Values`` and
needs only one row pointer per window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.mma import FLASH_SHAPES, block_k
from repro.precision.types import Precision

#: Vector granularity enabled by the swap-and-transpose MMA strategy.
FLASH_VECTOR_SIZE = 8


@dataclass
class MEBCRSMatrix(BlockedVectorFormat):
    """ME-BCRS matrix (8×1 nonzero vectors, no zero-vector padding)."""

    format_name: str = "ME-BCRS"

    @classmethod
    def from_csr(
        cls,
        matrix: CSRMatrix,
        vector_size: int = FLASH_VECTOR_SIZE,
        k: int | None = None,
        precision: Precision | str = Precision.FP16,
        **kwargs,
    ) -> "MEBCRSMatrix":
        """Translate CSR into ME-BCRS.

        ``k`` defaults to the TC-block width of the MMA FlashSparse issues
        at ``precision`` (:data:`~repro.gpu.mma.FLASH_SHAPES`): 8 for FP16,
        4 for TF32.
        """
        precision = Precision(precision)
        if k is None:
            k = block_k(FLASH_SHAPES, precision)
        return super().from_csr(matrix, vector_size=vector_size, k=k, precision=precision, **kwargs)

    def memory_footprint_bytes(self, index_bytes: int = 4) -> int:
        """Bytes of the three ME-BCRS arrays.

        One row pointer per window (the paper stores ``M`` pointers; the
        terminating offset adds one more entry), one column index per stored
        nonzero vector, and ``vector_size`` values per stored vector — no
        padded vectors anywhere.
        """
        value_count = self.num_nonzero_vectors * self.vector_size
        return int(
            (self.num_windows + 1) * index_bytes
            + self.num_nonzero_vectors * index_bytes
            + value_count * self.value_element_bytes()
        )

    def residue_vectors(self, window: int) -> int:
        """Number of vectors in the (possibly partial) last TC block of a window.

        This is the ``residue`` the SpMM/SDDMM kernels compute with a modulo
        operation (Section 3.5); a full window returns ``k``.
        """
        start, end = self.window_vector_range(window)
        count = end - start
        if count == 0:
            return 0
        rem = count % self.k
        return rem if rem else self.k
