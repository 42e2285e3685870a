"""The sparse granularity as data: two operand bindings of one MMA.

The paper's contribution is Equation (1), ``A × B = (Bᵀ × Aᵀ)ᵀ``: the same
``m16n8`` instruction issued on swapped and transposed operands.  Bound
*directly*, the sparse TC block is the MMA's left operand, so a nonzero
vector spans ``m = 16`` rows and one MMA covers ``n = 8`` dense columns
(TC-GNN, DTC-SpMM).  Bound *swapped*, the sparse block is the transposed
right operand: vectors shrink to ``n = 8`` rows and the dense span grows to
``m = 16``.  Everything else about the two kernels is the same code —
:mod:`repro.kernels.spmm` and :mod:`repro.kernels.sddmm` are written once
over the :class:`Granularity` records defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.formats import cache as format_cache
from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.mma import (
    FLASH_SHAPES,
    TCU16_SHAPES,
    MMAShape,
    mma_execute,
    mma_execute_swapped,
)
from repro.precision.types import Precision


def ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


@dataclass(frozen=True)
class Granularity:
    """One binding of the MMA operands to the sparse and the dense side."""

    #: Whether the sparse TC block is the MMA's transposed *right* operand
    #: (swap-and-transpose) rather than its left one.
    swapped: bool
    #: The instruction per ``(precision, api)``; a missing key is unsupported.
    shapes: Mapping[tuple[Precision, str], MMAShape]
    #: Name of the cached CSR translator in :mod:`repro.formats.cache`.
    translator: str

    def shape_for(self, precision: Precision, api: str = "mma") -> MMAShape:
        """The MMA/WMMA instruction this binding issues at ``precision``."""
        try:
            return self.shapes[Precision(precision), api]
        except KeyError:
            raise ValueError(
                f"the {self.vector_size}x1 kernels have no {api!r} instruction at {precision}"
            ) from None

    @property
    def vector_size(self) -> int:
        """Rows of a nonzero vector: the MMA dimension the sparse block's
        rows bind to (every shape of a binding agrees on it)."""
        shape = next(iter(self.shapes.values()))
        return shape.n if self.swapped else shape.m

    def dense_span(self, shape: MMAShape) -> int:
        """What one MMA covers on the dense side: SpMM's dense-column tile,
        SDDMM's nonzero vectors per output TC block."""
        return shape.m if self.swapped else shape.n

    @property
    def mma(self) -> Callable:
        """The emulated MMA, called ``mma(sparse_side, dense_side, acc, shape)``
        on logical ``(vector_size, k)`` and ``(k, dense_span)`` tiles."""
        return mma_execute_swapped if self.swapped else mma_execute

    def resolve(
        self, matrix: BlockedVectorFormat | CSRMatrix, precision: Precision
    ) -> BlockedVectorFormat:
        """``matrix`` in this binding's blocked format (CSR translated via the LRU cache)."""
        if isinstance(matrix, BlockedVectorFormat):
            if matrix.vector_size != self.vector_size:
                raise ValueError(
                    f"the {self.vector_size}x1 kernels need a {self.vector_size}-row "
                    f"vector format, got vector_size={matrix.vector_size}"
                )
            return matrix
        # Looked up by name on every call: a function object held in the
        # record would be the one bound at import, which whoever rebinds the
        # public name later (the benchmark's tracer) never sees.
        return getattr(format_cache, self.translator)(matrix, precision)


#: FlashSparse: 8×1 vectors over ME-BCRS, ``m16n8k8`` FP16 / ``m16n8k4`` TF32.
FLASH = Granularity(swapped=True, shapes=FLASH_SHAPES, translator="cached_mebcrs")

#: The prior TCU approaches: 16×1 vectors over SGT-16 (DTC-SpMM's
#: ``mma.m16n8k8`` TF32, TC-GNN's WMMA ``m16n16k8``, and the FP16 ablation
#: row of Figure 14).
TCU16 = Granularity(swapped=False, shapes=TCU16_SHAPES, translator="cached_sgt16")
