"""Tests for the shared utilities (tables, RNG, validation)."""

import numpy as np
import pytest

from repro.utils.random import DEFAULT_SEED, default_rng, seed_everything
from repro.utils.tables import format_table
from repro.utils.validation import check_dense_matrix, check_positive_int


def test_default_rng_accepts_none_int_and_generator():
    a = default_rng(None)
    b = default_rng(DEFAULT_SEED)
    assert a.random() == b.random()
    gen = np.random.default_rng(5)
    assert default_rng(gen) is gen


def test_default_rng_different_seeds_differ():
    assert default_rng(1).random() != default_rng(2).random()


def test_seed_everything_sets_numpy_global():
    seed_everything(123)
    first = np.random.rand()
    seed_everything(123)
    assert np.random.rand() == first


def test_format_table_alignment_and_title():
    text = format_table(["name", "value"], [["a", 1], ["long-name", 123456.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", "+"}
    # All data lines share the same width.
    assert len(lines[3]) == len(lines[4])
    assert "123,456" in text


def test_format_table_float_rendering():
    text = format_table(["x"], [[0.12345], [3.14159], [12345.6]])
    assert "0.1234" in text or "0.1235" in text
    assert "3.14" in text
    assert "12,346" in text or "12,345" in text


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_check_positive_int():
    assert check_positive_int(5, "n") == 5
    assert check_positive_int(5.0, "n") == 5
    with pytest.raises(ValueError):
        check_positive_int(0, "n")
    with pytest.raises(ValueError):
        check_positive_int(-3, "n")


def test_check_dense_matrix_conversion_and_validation(rng):
    arr = rng.standard_normal((4, 3)).astype(np.float32)
    out = check_dense_matrix(arr, "b")
    assert out is arr  # C-contiguous float32 comes back as it is
    # Every other dtype widens to float64, exactly.
    for dtype in (np.float16, np.int32, np.float64):
        widened = check_dense_matrix(arr.astype(dtype), "b")
        assert widened.dtype == np.float64
        np.testing.assert_array_equal(widened, arr.astype(dtype).astype(np.float64))
    with pytest.raises(ValueError):
        check_dense_matrix(rng.standard_normal(5), "b")
    with pytest.raises(ValueError):
        check_dense_matrix(arr, "b", n_rows=7)
    # Fortran-ordered input is made contiguous, keeping float32.
    f_ordered = check_dense_matrix(np.asfortranarray(arr), "b")
    assert f_ordered.flags["C_CONTIGUOUS"] and f_ordered.dtype == np.float32
