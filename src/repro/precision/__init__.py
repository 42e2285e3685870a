"""Numeric precision emulation (FP32 / TF32 / FP16).

The paper evaluates FlashSparse in TF32 and FP16 against FP32 CUDA-core
baselines, and reports (Table 8) that GCN accuracy is preserved.  This
subpackage provides the rounding emulation those comparisons need:

* FP16 — the values of a round trip through ``numpy.float16``; float32
  input is rounded on its bit pattern, bit-identical to that cast;
* TF32 — round-to-nearest-even of the FP32 mantissa to 10 bits (TF32 keeps
  the FP32 exponent range and an FP16-sized mantissa);
* FP32 — round-trip through ``numpy.float32``.
"""

from repro.precision.types import (
    Precision,
    quantize,
    quantize_tf32,
    dtype_for,
    element_bytes,
    accumulate_dtype,
)

__all__ = [
    "Precision",
    "quantize",
    "quantize_tf32",
    "dtype_for",
    "element_bytes",
    "accumulate_dtype",
]
