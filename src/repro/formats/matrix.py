"""The user-facing sparse matrix: a CSR with its cached translations.

:class:`FlashSparseMatrix` is what :func:`repro.spmm`, :func:`repro.sddmm`
and the server accept; :func:`_as_input` wraps every other accepted input
(a :class:`~repro.formats.csr.CSRMatrix`, a scipy sparse matrix, a dense
array) in one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.formats.cache import cached_mebcrs, cached_sgt16
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.precision.types import Precision


@dataclass
class FlashSparseMatrix:
    """A sparse matrix prepared for FlashSparse kernels.

    Holds the CSR interchange form; the translated ME-BCRS (and, when
    needed, the 16×1) representations are memoised per precision in the
    shared LRU of :mod:`repro.formats.cache`, so repeated kernel calls do
    not re-run the preprocessing (static-sparsity scenario of Section 4.4)
    — even when the same CSR is re-wrapped by a new ``FlashSparseMatrix``.
    """

    csr: CSRMatrix

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix | sp.sparray) -> "FlashSparseMatrix":
        """Build from any scipy sparse matrix."""
        return cls(csr=CSRMatrix.from_scipy(matrix))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "FlashSparseMatrix":
        """Build from a dense array (zeros dropped)."""
        return cls(csr=CSRMatrix.from_dense(dense))

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape."""
        return self.csr.shape

    @property
    def nnz(self) -> int:
        """Number of nonzeros."""
        return self.csr.nnz

    # ------------------------------------------------------------- translate
    def mebcrs(self, precision: Precision | str = Precision.FP16) -> MEBCRSMatrix:
        """The ME-BCRS translation at ``precision`` (cached)."""
        return cached_mebcrs(self.csr, precision)

    def sgt16(self, precision: Precision | str = Precision.TF32) -> SGT16Matrix:
        """The 16×1 baseline translation at ``precision`` (cached)."""
        return cached_sgt16(self.csr, precision)

    def to_scipy(self) -> sp.csr_matrix:
        """Back to a scipy CSR matrix."""
        return self.csr.to_scipy()

    def content_key(self) -> str:
        """Content fingerprint of the underlying CSR (the serving subsystem's
        batching and translation-dedup handle)."""
        return self.csr.content_key()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlashSparseMatrix(shape={self.shape}, nnz={self.nnz})"


def _as_input(matrix) -> FlashSparseMatrix:
    """``matrix`` as a :class:`FlashSparseMatrix` (wrapped unless it is one)."""
    if isinstance(matrix, FlashSparseMatrix):
        return matrix
    if isinstance(matrix, CSRMatrix):
        return FlashSparseMatrix(csr=matrix)
    if sp.issparse(matrix):
        return FlashSparseMatrix.from_scipy(matrix)
    if isinstance(matrix, np.ndarray):
        return FlashSparseMatrix.from_dense(matrix)
    raise TypeError(
        "expected FlashSparseMatrix, CSRMatrix, scipy sparse matrix or ndarray, "
        f"got {type(matrix).__name__}"
    )
