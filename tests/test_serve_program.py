"""Layer settings, composed-execution helpers, shard alignment.

:func:`repro.kernels.engine.shard_params` is the one check every carrier
applies to a request's settings, at submit and again on the receiving
side, so it must reject what the fused layer cannot run (a scale that is
not finite in float32, a non-bool mask flag) and be stable when applied to
its own output.  The shard-alignment property test pins the invariant the
whole fusion rests on: window-aligned shards never split a softmax row
segment.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr

from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels.engine import SHARD_OPS, lane_cache, shard_params, window_aligned_ranges
from repro.precision.types import Precision, quantize
from repro.serve.program import attention_csr, gather_edge_values


# ------------------------------------------------------------- settings
def test_shard_params_without_scale_is_none():
    assert shard_params("fp16") == {"precision": "fp16", "scale": None, "scale_by_mask": False}
    assert shard_params(Precision.TF32, scale_by_mask=True)["precision"] == "tf32"


def test_shard_params_rounds_a_finite_scale_to_float32():
    params = shard_params("fp16", 0.3, True)
    assert params["scale"] == float(np.float32(0.3)) != 0.3
    assert params["scale_by_mask"] is True
    # Canonical: decoding what was sent changes nothing.
    assert shard_params(**params) == params


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), 1e39, -1e39])
def test_shard_params_rejects_a_scale_not_finite_in_float32(scale):
    with pytest.raises(ValueError, match="finite in float32"):
        shard_params("fp16", scale)


@pytest.mark.parametrize("flag", [1, "yes", None, 0.0])
def test_shard_params_rejects_a_non_bool_mask_flag(flag):
    with pytest.raises(ValueError, match="scale_by_mask must be a bool"):
        shard_params("fp16", 0.5, flag)


def test_shard_params_rejects_an_unknown_precision():
    with pytest.raises(ValueError):
        shard_params("fp64")


def test_the_server_serves_exactly_the_engine_shard_ops():
    """One op table: how a served op is cut and coalesced is
    ``SHARD_OPS[op].sddmm``, so the server has no op the engine lacks."""
    from repro.serve.server import _SERVED_OPS

    assert set(_SERVED_OPS) == set(SHARD_OPS)


# ------------------------------------------------- composed-execution helpers
@pytest.mark.parametrize("fmt_cls", [MEBCRSMatrix, SGT16Matrix])
def test_gather_edge_values_inverts_the_translation_scatter(fmt_cls):
    csr = random_csr(70, 60, 0.07, seed=2)
    fmt = fmt_cls.from_csr(csr, precision="fp16")
    gathered = gather_edge_values(fmt.partition, csr.indptr, fmt.vector_values)
    expected = quantize(csr.data, Precision.FP16).astype(np.float32)
    np.testing.assert_array_equal(gathered, expected)


def test_attention_csr_shares_pattern_and_checks_shape():
    csr = random_csr(30, 28, 0.1, seed=5)
    values = np.arange(csr.nnz, dtype=np.float32)
    rebuilt = attention_csr(csr, values)
    assert rebuilt.shape == csr.shape
    np.testing.assert_array_equal(rebuilt.indptr, csr.indptr)
    np.testing.assert_array_equal(rebuilt.indices, csr.indices)
    np.testing.assert_array_equal(rebuilt.data, values)
    with pytest.raises(ValueError, match="shape"):
        attention_csr(csr, values[:-1])


# --------------------------------------------------- shard-alignment property
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("target", (1, 3, 7, 10_000))
def test_window_aligned_shards_never_split_a_softmax_row_segment(seed, target):
    """The invariant fused serving rests on: shard boundaries are window-
    (hence row-) aligned, so every CSR row segment — a softmax domain —
    lands in exactly one shard, and the shard-local mappings tile the
    entry space gaplessly."""
    rng = np.random.default_rng(seed)
    csr = random_csr(
        int(rng.integers(20, 200)),
        int(rng.integers(20, 200)),
        float(rng.uniform(0.01, 0.15)),
        seed=seed,
    )
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    batch = fmt.blocks_as_arrays()
    ranges = window_aligned_ranges(batch.window_offsets, target)
    v = fmt.partition.vector_size
    n_rows = csr.shape[0]
    source = SHARD_OPS["layer"].lanes(lane_cache(), 0, (csr.indptr, csr.indices, csr.data), "fp16")
    covered_entries = 0
    prev_w1 = 0
    for shard in ranges:
        assert shard.w0 == prev_w1  # gapless window coverage, in order
        prev_w1 = shard.w1
        r0 = shard.w0 * v
        r1 = min(shard.w1 * v, n_rows)
        assert r0 % v == 0  # row-aligned: no row (= softmax segment) split
        sliced = SHARD_OPS["layer"].slice(source, shard, v)
        local_indptr = sliced["offsets"]
        # The local CSR layout covers exactly the shard's rows and entries.
        assert sliced["row0"] == r0
        assert local_indptr.shape == (r1 - r0 + 1,)
        assert local_indptr[0] == 0
        span = int(local_indptr[-1])
        e0 = int(csr.indptr[r0])
        assert span == int(csr.indptr[r1]) - e0
        covered_entries += span
        # Every entry carries its own column and the value stored for it.
        np.testing.assert_array_equal(sliced["columns"], csr.indices[e0 : e0 + span])
        np.testing.assert_array_equal(
            sliced["values"], csr.data[e0 : e0 + span].astype(np.float16).astype(np.float32)
        )
    assert prev_w1 == fmt.num_windows or not ranges
    assert covered_entries == csr.nnz  # entries partitioned, none duplicated
