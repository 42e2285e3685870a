"""Precision types and quantisation helpers."""

from __future__ import annotations

from enum import Enum

import numpy as np


class Precision(str, Enum):
    """Numeric precisions supported by the simulated kernels.

    ``FP32`` is the CUDA-core baseline precision; ``TF32`` and ``FP16`` are
    the tensor-core precisions used by FlashSparse (Table 3 of the paper).
    """

    FP32 = "fp32"
    TF32 = "tf32"
    FP16 = "fp16"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Number of explicit mantissa bits kept by TF32 (same as FP16).
_TF32_MANTISSA_BITS = 10
#: FP32 has 23 explicit mantissa bits; TF32 keeps the top 10.
_TF32_DROP_BITS = 23 - _TF32_MANTISSA_BITS
#: The float32 bit patterns of 2⁻¹⁴ (the smallest normal half) and 65504
#: (the largest finite half).  A float32 whose magnitude lies in
#: ``[2⁻¹⁴, 65504)`` rounds to a normal half by rounding its mantissa to 10
#: bits — exactly what :func:`_round_mantissa` does.
_HALF_MIN_NORMAL_BITS = 0x38800000
_HALF_MAX_BITS = 0x477FE000


def _round_mantissa(x: np.ndarray, leave_of, patch) -> np.ndarray:
    """A new float32 array: ``x`` rounded to 10 mantissa bits, ties to even,
    except at the elements ``leave_of(bits)`` flags, which hold
    ``patch(originals)``.

    On the bit pattern: add ``0xFFF`` plus the last kept mantissa bit, then
    clear the 13 dropped bits.  The sum carries into the kept bits exactly
    when the dropped bits exceed half an ulp, or equal it and the kept
    mantissa is odd; a carry out of the mantissa bumps the exponent, as
    rounding up should.  Non-finite patterns come out wrong (a NaN payload
    can carry into the sign), so every ``leave_of`` flags them.
    """
    x32 = np.asarray(x, dtype=np.float32, order="C")
    bits = x32.reshape(-1).view(np.uint32)  # 1-D, so a 0-d x stays an array
    leave = np.flatnonzero(leave_of(bits))  # one scan; few indices as a rule
    out = bits >> np.uint32(_TF32_DROP_BITS)
    out &= np.uint32(1)
    out += np.uint32((1 << (_TF32_DROP_BITS - 1)) - 1)
    out += bits
    out &= np.uint32(~((1 << _TF32_DROP_BITS) - 1) & 0xFFFFFFFF)
    out = out.view(np.float32)
    if leave.size:
        out[leave] = patch(bits[leave].view(np.float32))
    return out.reshape(x32.shape)


def _non_finite(bits: np.ndarray) -> np.ndarray:
    return ~np.isfinite(bits.view(np.float32))


def _outside_normal_halves(bits: np.ndarray) -> np.ndarray:
    """Nonzero magnitudes outside ``[2⁻¹⁴, 65504)``: half subnormals, values
    that round to 65504 or overflow, ±inf and NaN."""
    magnitude = bits & np.uint32(0x7FFFFFFF)
    leave = magnitude != 0
    magnitude -= np.uint32(_HALF_MIN_NORMAL_BITS)
    leave &= magnitude >= np.uint32(_HALF_MAX_BITS - _HALF_MIN_NORMAL_BITS)
    return leave


def _cast_through_half(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float16).astype(np.float32)


def quantize_tf32(x: np.ndarray) -> np.ndarray:
    """Quantize an array to TF32 (round-to-nearest-even on the mantissa).

    TF32 keeps the 8-bit FP32 exponent but only 10 mantissa bits.  The
    emulation rounds the FP32 bit pattern's mantissa to the nearest
    representable value and returns a new FP32 array holding TF32 values.
    Non-finite elements pass through bit for bit: ±inf stays ±inf and a
    NaN keeps its payload, even one that lives only in the dropped bits.
    """
    return _round_mantissa(x, _non_finite, np.copy)


def quantize(x: np.ndarray, precision: Precision | str) -> np.ndarray:
    """Quantize ``x`` to ``precision`` and return the values as float32.

    The returned dtype is ``float32`` for all precisions (the values are
    representable there), so downstream arithmetic happens at FP32 just like
    tensor-core accumulation.  FP16 and TF32 return a new array; FP32 returns
    float32 input as it is.

    FP16 of float32 input rounds the bit pattern as TF32 does, which for
    zero and every magnitude in ``[2⁻¹⁴, 65504)`` *is* the float16 value;
    the other elements go through the NumPy cast at their indices only.
    The result is bit-identical to ``x.astype(float16).astype(float32)``.
    Any other dtype is cast to float16 directly: through float32 it would
    round twice, and float64 ``1 + 2⁻¹¹ + 2⁻⁴⁰`` would become 1.0 instead
    of ``1 + 2⁻¹⁰``.
    """
    precision = Precision(precision)
    if precision is Precision.FP32:
        return np.asarray(x, dtype=np.float32)
    if precision is Precision.FP16:
        x = np.asarray(x)
        if x.dtype == np.float32:
            return _round_mantissa(x, _outside_normal_halves, _cast_through_half)
        return _cast_through_half(x)
    if precision is Precision.TF32:
        return quantize_tf32(x)
    raise ValueError(f"unsupported precision {precision!r}")  # pragma: no cover


def dtype_for(precision: Precision | str) -> np.dtype:
    """Storage dtype for inputs at ``precision``."""
    precision = Precision(precision)
    if precision is Precision.FP16:
        return np.dtype(np.float16)
    # TF32 values are stored in 32-bit containers.
    return np.dtype(np.float32)


def element_bytes(precision: Precision | str) -> int:
    """Bytes per element as stored in global memory."""
    return int(dtype_for(precision).itemsize)


def accumulate_dtype(precision: Precision | str) -> np.dtype:
    """Accumulator dtype: FP32 for every tensor-core precision."""
    del precision
    return np.dtype(np.float32)
