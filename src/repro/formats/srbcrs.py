"""SR-BCRS — the zero-vector-padding blocked format used as baseline.

SR-BCRS (from "Efficient quantized sparse matrix operations on tensor cores",
reference [26] of the paper) pads every row window with zero vectors so the
number of stored vectors is a multiple of the TC-block width ``k``.  This
keeps the kernel simple — every TC block is full — at the price of storing
padded column indices and padded values, and of keeping two row pointers per
window (block start and vector start).  Table 7 of the paper quantifies the
memory saved by ME-BCRS relative to this scheme; :meth:`memory_footprint_bytes`
reproduces that accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import FLASH_VECTOR_SIZE
from repro.gpu.mma import FLASH_SHAPES, block_k
from repro.precision.types import Precision


@dataclass
class SRBCRSMatrix(BlockedVectorFormat):
    """SR-BCRS matrix (8×1 nonzero vectors, zero-vector padding to ``k``)."""

    format_name: str = "SR-BCRS"

    @classmethod
    def from_csr(
        cls,
        matrix: CSRMatrix,
        vector_size: int = FLASH_VECTOR_SIZE,
        k: int | None = None,
        precision: Precision | str = Precision.FP16,
        **kwargs,
    ) -> "SRBCRSMatrix":
        """Translate CSR into SR-BCRS (same partition; padding is accounted, not stored)."""
        precision = Precision(precision)
        if k is None:
            k = block_k(FLASH_SHAPES, precision)
        return super().from_csr(matrix, vector_size=vector_size, k=k, precision=precision, **kwargs)

    # ---------------------------------------------------------------- padding
    @property
    def num_padded_vectors(self) -> int:
        """Zero vectors added so every window holds a multiple of ``k`` vectors."""
        return self.partition.padded_vectors(self.k)

    @property
    def num_stored_vectors(self) -> int:
        """Vectors physically stored, including padding."""
        return self.num_nonzero_vectors + self.num_padded_vectors

    # --------------------------------------------------------------- metrics
    def memory_footprint_bytes(self, index_bytes: int = 4) -> int:
        """Bytes of the padded format arrays.

        Two row pointers per window (the padding-based scheme keeps both a
        block pointer and a vector pointer, the "2M" of Section 3.5), one
        column index and ``vector_size`` values per *stored* vector including
        the padded zero vectors.
        """
        stored = self.num_stored_vectors
        value_count = stored * self.vector_size
        return int(
            2 * self.num_windows * index_bytes
            + stored * index_bytes
            + value_count * self.value_element_bytes()
        )


def footprint_reduction(me_bytes: int, sr_bytes: int) -> float:
    """Fractional footprint reduction of ME-BCRS relative to SR-BCRS.

    Returns ``(sr - me) / sr`` (0 when both are empty); Table 7 buckets these
    percentages across the matrix collection.
    """
    if sr_bytes <= 0:
        return 0.0
    return (sr_bytes - me_bytes) / sr_bytes
