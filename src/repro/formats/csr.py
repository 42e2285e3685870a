"""A small CSR container used as the interchange format.

The class wraps the three CSR arrays with validation, conversion helpers and
the statistics (rows, columns, nnz, average row length) that the dataset
tables report.  ``scipy.sparse`` is used for conversions and reference
computations but the container keeps its own arrays so kernels control the
exact dtypes (int32 indices, value dtype chosen by precision).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils.digest import digest16


def check_csr_values(data) -> np.ndarray:
    """``data`` as an array, checked: 1-D real numbers (bool, integer or
    floating).  Raises ``ValueError``; :class:`CSRMatrix` checks its
    ``data`` with it, and so does a holder of separate value arrays for
    one pattern (a cluster worker's pinned values) on every use."""
    data = np.asarray(data)
    if data.ndim != 1 or data.dtype.kind not in "biuf":
        raise ValueError(
            "data must be a 1-D array of real numbers (bool, integer or "
            f"floating), got {data.ndim}-D {data.dtype}"
        )
    return data


def check_csr_structure(indptr, indices, shape) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` as int64 / int32 arrays, checked to be a
    canonical CSR pattern of ``shape``: ``indptr`` of length ``n_rows + 1``
    from 0, non-decreasing, ending at ``len(indices)``; every column in
    range and strictly increasing within its row.  Raises ``ValueError``.

    :class:`CSRMatrix` checks its pattern with it; a holder of the pattern
    alone (a cluster worker's pinned structure) runs it once per pattern.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int32)
    n_rows, n_cols = shape
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if indptr.ndim != 1 or indptr.shape[0] != n_rows + 1:
        raise ValueError("indptr must have length n_rows + 1")
    if indptr[0] != 0:
        raise ValueError("indptr must start at 0")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    if indices.ndim != 1 or indices.shape[0] != indptr[-1]:
        raise ValueError("indices/data length must equal indptr[-1]")
    if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
        raise ValueError("column index out of range")
    ascending = np.diff(indices) > 0
    row_starts = indptr[1:-1]
    ascending[row_starts[(row_starts > 0) & (row_starts < indices.size)] - 1] = True
    if not ascending.all():
        raise ValueError(
            "column indices must be strictly increasing within each row "
            "(sorted, no duplicates); build with CSRMatrix.from_scipy or "
            "CSRMatrix.from_coo, which sum duplicates and sort"
        )
    return indptr, indices


@dataclass
class CSRMatrix:
    """Compressed Sparse Row matrix, canonical by construction.

    Every row's column indices are strictly increasing — sorted and free of
    duplicates — so the translation's entry map
    (:attr:`repro.formats.windows.WindowPartition.entry_slot`) stores each
    entry in a slot of its own and every view of the format reads it back in
    this order.  The constructor rejects any other arrays with a
    ``ValueError`` instead of re-sorting them: a caller's per-entry array
    (GNN edge values, say) stays aligned with the entries it was built for.
    :meth:`from_scipy` and :meth:`from_coo` sum duplicates and sort.
    Explicit stored zeros are legal.  ``data`` must be a 1-D array of real
    numbers (bool, integer or floating): the translation casts it to the
    storage precision, and a complex or object value has no such cast.
    The arrays are immutable by contract — translations, caches and
    :meth:`with_values` copies share them.

    Attributes
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1`` (int64).
    indices:
        Column indices of the nonzeros, ordered by row and strictly
        increasing within a row (int32).
    data:
        Nonzero values (float32 unless specified otherwise).
    shape:
        ``(n_rows, n_cols)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.data = check_csr_values(self.data)
        self.indptr, self.indices = check_csr_structure(self.indptr, self.indices, self.shape)
        if self.data.shape[0] != self.indptr[-1]:
            raise ValueError("indices/data length must equal indptr[-1]")

    # ------------------------------------------------------------ properties
    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.indptr[-1])

    @property
    def avg_row_length(self) -> float:
        """Average number of nonzeros per row (Table 4's AvgRowLength)."""
        if self.n_rows == 0:
            return 0.0
        return self.nnz / self.n_rows

    @property
    def density(self) -> float:
        """Fraction of entries that are nonzero."""
        total = self.n_rows * self.n_cols
        return self.nnz / total if total else 0.0

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix | sp.sparray, dtype=np.float32) -> "CSRMatrix":
        """Build from any scipy sparse matrix (converted to canonical CSR)."""
        csr = sp.csr_matrix(matrix).astype(dtype)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            indptr=csr.indptr.astype(np.int64),
            indices=csr.indices.astype(np.int32),
            data=np.asarray(csr.data, dtype=dtype),
            shape=csr.shape,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, dtype=np.float32) -> "CSRMatrix":
        """Build from a dense 2-D array (zeros are dropped)."""
        return cls.from_scipy(sp.csr_matrix(np.asarray(dense, dtype=dtype)))

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None,
        shape: tuple[int, int],
        dtype=np.float32,
    ) -> "CSRMatrix":
        """Build from COO triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=dtype)
        coo = sp.coo_matrix((np.asarray(vals, dtype=dtype), (rows, cols)), shape=shape)
        return cls.from_scipy(coo, dtype=dtype)

    # ----------------------------------------------------------- conversions
    def to_scipy(self) -> sp.csr_matrix:
        """Convert to a scipy CSR matrix."""
        return sp.csr_matrix(
            (self.data.copy(), self.indices.astype(np.int64), self.indptr.copy()),
            shape=self.shape,
        )

    def to_dense(self) -> np.ndarray:
        """Convert to a dense ndarray (use only for small matrices/tests)."""
        return np.asarray(self.to_scipy().todense())

    # ------------------------------------------------------------- utilities
    def structure_key(self) -> str:
        """Structure fingerprint: a hex digest over the shape, ``indptr`` and
        ``indices`` — the sparsity pattern, whatever the values.

        Everything a translation derives from the pattern alone (the window
        partition and its entry map, a serving plan, the pinned index
        arrays of a cluster host) is keyed by it, so a matrix that keeps its
        pattern and changes its values (an attention layer's per-evaluation
        weights) reuses all of that.  Memoised on the instance, under the
        same no-mutation contract as :meth:`content_key`.
        """
        cached = getattr(self, "_structure_key", None)
        if cached is None:
            cached = self._structure_key = digest16(
                f"{self.shape[0]}x{self.shape[1]}:".encode(),
                np.ascontiguousarray(self.indptr),
                np.ascontiguousarray(self.indices),
            )
        return cached

    def content_key(self) -> str:
        """Content fingerprint: a hex digest over :meth:`structure_key`, the
        dtype of ``data`` and ``data``.

        Two matrices with equal content (same shape, same ``indptr`` /
        ``indices`` / ``data`` bytes and value dtype) share one key even
        when they are distinct objects — the handle the translation cache's
        ``by_content`` mode deduplicates on.  The digest is memoised on the
        instance, and it reuses the memoised structure key, so a
        :meth:`with_values` copy hashes only its new ``data``.  Like the
        cache it assumes the matrix is not mutated in place after
        construction.
        """
        cached = getattr(self, "_content_key", None)
        if cached is None:
            cached = self._content_key = digest16(
                f"{self.structure_key()}:{self.data.dtype.str}:".encode(),
                np.ascontiguousarray(self.data),
            )
        return cached

    def memory_footprint_bytes(self, value_bytes: int = 4, index_bytes: int = 4) -> int:
        """Bytes needed to store the CSR arrays."""
        return int(
            self.indptr.shape[0] * index_bytes
            + self.indices.shape[0] * index_bytes
            + self.data.shape[0] * value_bytes
        )

    def with_values(self, data: np.ndarray) -> "CSRMatrix":
        """A matrix with this one's pattern and ``data`` as its values.

        ``indptr`` / ``indices`` are shared, not copied (CSR arrays are
        immutable by contract), and the copy carries this matrix's
        :meth:`structure_key` — computed and memoised here first — so its
        own :meth:`content_key` hashes only ``data``.
        """
        data = np.asarray(data)
        if data.shape[:1] != (self.nnz,):
            raise ValueError("replacement values must have one entry per nonzero")
        out = CSRMatrix(self.indptr, self.indices, data, self.shape)
        out._structure_key = self.structure_key()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"avg_row_length={self.avg_row_length:.2f})"
        )
