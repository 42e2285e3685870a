"""Tests for FP16 / TF32 precision emulation."""

import numpy as np
import pytest

from repro.precision import (
    Precision,
    accumulate_dtype,
    dtype_for,
    element_bytes,
    quantize,
    quantize_tf32,
)


def test_precision_enum_values():
    assert Precision("fp16") is Precision.FP16
    assert Precision("tf32") is Precision.TF32
    assert Precision("fp32") is Precision.FP32
    assert str(Precision.FP16) == "fp16"


def test_element_bytes():
    assert element_bytes(Precision.FP16) == 2
    assert element_bytes(Precision.TF32) == 4
    assert element_bytes(Precision.FP32) == 4
    assert Precision.FP16.input_bytes == 2


def test_dtype_for():
    assert dtype_for("fp16") == np.float16
    assert dtype_for("tf32") == np.float32
    assert dtype_for("fp32") == np.float32


def test_accumulate_dtype_is_fp32():
    for p in Precision:
        assert accumulate_dtype(p) == np.float32


def test_fp32_quantize_is_exact_for_float32_values(rng):
    x = rng.standard_normal(100).astype(np.float32)
    np.testing.assert_array_equal(quantize(x, "fp32"), x)


def test_fp16_quantize_matches_numpy_float16(rng):
    x = rng.standard_normal(1000)
    np.testing.assert_array_equal(quantize(x, "fp16"), x.astype(np.float16).astype(np.float32))


def test_tf32_quantize_is_idempotent(rng):
    x = rng.standard_normal(1000).astype(np.float32) * 100
    once = quantize_tf32(x)
    twice = quantize_tf32(once)
    np.testing.assert_array_equal(once, twice)


def test_tf32_keeps_10_mantissa_bits():
    # 1 + 2^-10 is representable in TF32; 1 + 2^-11 rounds to 1 or 1 + 2^-10.
    exact = np.float32(1.0 + 2.0**-10)
    assert quantize_tf32(np.array([exact]))[0] == exact
    rounded = quantize_tf32(np.array([np.float32(1.0 + 2.0**-12)]))[0]
    assert rounded in (np.float32(1.0), np.float32(1.0 + 2.0**-10))


def test_tf32_relative_error_bound(rng):
    x = rng.standard_normal(10_000) * np.exp(rng.uniform(-10, 10, 10_000))
    q = quantize_tf32(x.astype(np.float32))
    rel = np.abs(q - x.astype(np.float32)) / np.maximum(np.abs(x), 1e-30)
    assert rel.max() <= 2.0**-10


def test_tf32_preserves_exponent_range_beyond_fp16():
    # 1e30 overflows FP16 but is representable in TF32.
    big = np.array([1e30], dtype=np.float32)
    assert np.isinf(quantize(big, "fp16")).all()
    assert np.isfinite(quantize(big, "tf32")).all()


def test_tf32_handles_special_values():
    x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype=np.float32)
    q = quantize_tf32(x)
    assert np.isinf(q[0]) and q[0] > 0
    assert np.isinf(q[1]) and q[1] < 0
    assert np.isnan(q[2])
    assert q[3] == 0.0 and q[4] == 0.0


def test_tf32_rounds_to_nearest(rng):
    # TF32 rounding error should be at most half a ULP at the 10-bit mantissa.
    x = np.float32(1.0) + np.float32(2.0**-11)  # exactly halfway
    q = quantize_tf32(np.array([x], dtype=np.float32))[0]
    assert q in (np.float32(1.0), np.float32(1.0 + 2.0**-10))


def test_quantize_preserves_shape(rng):
    x = rng.standard_normal((7, 5, 3))
    for p in ("fp16", "tf32", "fp32"):
        assert quantize(x, p).shape == x.shape
        assert quantize(x, p).dtype == np.float32  # call sites rely on it: no second cast


def test_quantize_error_ordering(rng):
    """TF32 and FP16 share mantissa width, so in-range errors are comparable and
    both are worse than FP32."""
    x = rng.standard_normal(5000)
    err16 = np.abs(quantize(x, "fp16") - x).max()
    err32 = np.abs(quantize(x, "tf32") - x).max()
    err_full = np.abs(quantize(x, "fp32") - x).max()
    assert err_full <= err32 <= err16 * 4 + 1e-12
    assert err16 > 0
