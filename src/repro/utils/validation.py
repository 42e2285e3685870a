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
    """Validate a dense 2-D operand; return it C-contiguous, as float32 if
    it is float32 and as float64 otherwise.

    The array is copied only when it is not already C-contiguous in that
    dtype, so a float32 operand reaches the caller's quantisation as it is:
    no float64 copy, and the same quantised bits, since widening float32 is
    exact.  Only the shape is checked (2-D, ``n_rows`` rows when given).
    """
    arr = np.asarray(array)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(
            f"{name} must have {n_rows} rows to be compatible, got {arr.shape[0]}"
        )
    return np.ascontiguousarray(arr)
