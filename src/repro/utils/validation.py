"""Input validation helpers shared by kernels and the public API."""

from __future__ import annotations

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    ivalue = int(value)
    if ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return ivalue


def check_dense_matrix(array: np.ndarray, name: str, n_rows: int | None = None) -> np.ndarray:
    """Validate a dense 2-D operand; return it as a float64 C-contiguous array.

    The array is copied only when the input is not already one.  Only the
    shape is checked (2-D, ``n_rows`` rows when given); precision emulation
    happens later, when the caller quantises the whole operand.
    """
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(
            f"{name} must have {n_rows} rows to be compatible, got {arr.shape[0]}"
        )
    return np.ascontiguousarray(arr)
