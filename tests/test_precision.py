"""Tests for FP16 / TF32 precision emulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import tf32_by_integer_rounding
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


# ---------------------------------------------------------------------------
# Bit-exactness of the rounding core
# ---------------------------------------------------------------------------
# ``quantize`` rounds float32 bit patterns (``precision/types.py``).  These
# pin it to independent oracles: NumPy's own half cast for fp16 and the
# integer round-to-nearest-even of ``helpers.tf32_by_integer_rounding`` for
# tf32.  Every one of the 2³² float32 patterns agreed when swept offline;
# the tests below cover the edges and a random sample.


def _ties(kept: st.SearchStrategy) -> st.SearchStrategy:
    """Patterns whose dropped bits are exactly half an ulp (kept part odd
    or even), and their neighbours — which a uniform draw rarely hits."""
    return st.builds(
        lambda sign, kept, delta: (sign << 31 | kept << 13 | 0x1000) + delta,
        st.integers(0, 1),
        kept,
        st.integers(-1, 1),
    )


#: Any float32 pattern, plus ties at any exponent and ties among the normal
#: halves (magnitudes 2⁻¹⁴ … 65504), where fp16 rounds on the bits too.
_PATTERNS = st.one_of(
    st.integers(0, 2**32 - 1),
    _ties(st.integers(0, 2**18 - 1)),
    _ties(st.integers(0x38800000 >> 13, 0x477FE000 >> 13)),
)
_BITS = st.lists(_PATTERNS, min_size=1, max_size=256).map(
    lambda values: np.array(values, dtype=np.uint32)
)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal float32 bit patterns, except that a NaN only has to meet a NaN
    (its payload is not compared)."""
    assert got.dtype == want.dtype == np.float32
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))


def _double_cast(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(np.float32)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bits=_BITS)
def test_fp16_quantize_of_float32_bits_is_the_numpy_half_cast(bits):
    x = bits.view(np.float32)
    assert_same_bits(quantize(x, "fp16"), _double_cast(x))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bits=_BITS)
def test_tf32_quantize_of_float32_bits_is_integer_round_to_nearest_even(bits):
    got = quantize(bits.view(np.float32), "tf32").view(np.uint32)
    np.testing.assert_array_equal(got, tf32_by_integer_rounding(bits))


def _half_edges() -> np.ndarray:
    """Every finite half, each midpoint between adjacent halves (including
    65520, between 65504 and the 2¹⁶ that would come next) and the two
    float32 neighbours of every midpoint — both signs."""
    halves = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float32)
    upper = np.append(halves, np.float32(2.0**16))
    mids = ((upper[:-1].astype(np.float64) + upper[1:]) / 2).astype(np.float32)
    below = np.nextafter(mids, np.float32(0))
    above = np.nextafter(mids, np.float32(np.inf))
    grid = np.concatenate([halves, mids, below, above])
    return np.concatenate([grid, -grid])


def test_fp16_quantize_matches_the_half_cast_at_every_half_and_midpoint():
    x = _half_edges()
    for edge in (2.0**-14, 65504.0, 65520.0, 2.0**-24, 2.0**-25):
        assert edge in x and -edge in x
    assert_same_bits(quantize(x, "fp16"), _double_cast(x))
    # The same grid as one 2-D operand: the shape is kept, C order.
    grid = x[: (x.size // 8) * 8].reshape(-1, 8)
    assert_same_bits(quantize(grid, "fp16"), _double_cast(grid))


def test_fp16_quantize_of_float64_rounds_once():
    # Through float32 first, 1 + 2⁻¹¹ + 2⁻⁴⁰ becomes the tie 1 + 2⁻¹¹ and
    # rounds to even (1.0); rounded directly it lies above the tie.
    q = quantize(np.array([1 + 2**-11 + 2**-40]), "fp16")
    assert q.dtype == np.float32
    assert q[0] == np.float32(1 + 2**-10)


def test_tf32_quantize_keeps_nan_a_nan_and_inf_an_inf():
    # NaN payloads that live only in the 13 dropped bits.
    bits = np.array([0x7F800001, 0xFF800FFF, 0x7F800000, 0xFF800000], dtype=np.uint32)
    q = quantize(bits.view(np.float32), "tf32")
    assert np.isnan(q[0]) and np.isnan(q[1])
    assert q[2] == np.inf and q[3] == -np.inf


def test_quantize_returns_a_new_array_and_leaves_its_input():
    x = _half_edges()
    before = x.copy()
    for p in ("fp16", "tf32"):
        q = quantize(x, p)
        assert not np.shares_memory(q, x)
    np.testing.assert_array_equal(x.view(np.uint32), before.view(np.uint32))
