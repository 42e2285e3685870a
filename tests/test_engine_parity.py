"""Parity of the batched execution engine against the reference loops.

The contract (see :mod:`repro.kernels`): for every kernel, precision and
sparsity structure, ``engine="batched"`` must produce

* the same numeric values as ``engine="reference"`` up to FP32
  accumulation-order round-off, and
* *exactly* the same :class:`~repro.gpu.counters.CostCounter` state,
  field for field.

The structures below deliberately cover empty windows, residue (narrower
than ``k``) blocks, partial trailing windows, and dense widths that are not
multiples of the 16-column MMA tile.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.cache import cached_mebcrs, clear_format_cache, format_cache_stats
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.gpu.counters import CostCounter
from repro.kernels.common import FlashSparseConfig
from repro.kernels.sddmm_flash import sddmm_flash_execute
from repro.kernels.sddmm_tcu16 import sddmm_tcu16_execute
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_execute

PRECISIONS = ("fp16", "tf32")
#: Dense widths straddling the 16-column tile and 8/4-wide K chunks.
SPMM_WIDTHS = (1, 17, 48)
SDDMM_WIDTHS = (3, 20, 64)


def _matrix_with_empty_windows() -> CSRMatrix:
    """Rows 0-7 and 40-44 populated; windows in between completely empty."""
    dense = np.zeros((45, 30))
    rng = np.random.default_rng(5)
    dense[0:8, ::3] = rng.standard_normal((8, 10))
    dense[40:45, 1::7] = rng.standard_normal((5, 5))
    return CSRMatrix.from_dense(dense)


def _single_vector_matrix() -> CSRMatrix:
    """One nonzero: a single residue block of width 1 in a partial window."""
    dense = np.zeros((11, 9))
    dense[10, 4] = 2.5
    return CSRMatrix.from_dense(dense)


def _empty_matrix() -> CSRMatrix:
    return CSRMatrix(
        indptr=np.zeros(25, dtype=np.int64),
        indices=np.zeros(0, dtype=np.int32),
        data=np.zeros(0, dtype=np.float32),
        shape=(24, 18),
    )


MATRICES = {
    "medium": lambda: random_csr(120, 90, 0.06, seed=13),
    "skewed": lambda: random_csr(64, 200, 0.02, seed=2),
    "empty-windows": _matrix_with_empty_windows,
    "single-vector": _single_vector_matrix,
    "all-zero": _empty_matrix,
}


def _configs(precision: str) -> tuple[FlashSparseConfig, FlashSparseConfig]:
    batched = FlashSparseConfig(precision=precision, engine="batched")
    reference = FlashSparseConfig(precision=precision, engine="reference")
    return batched, reference


def _assert_counters_identical(batched: CostCounter, reference: CostCounter) -> None:
    assert batched.as_dict() == reference.as_dict()
    # as_dict() covers every field, but be explicit about the two dict-valued
    # counters since they are the easiest to get only approximately right.
    assert batched.mma_invocations == reference.mma_invocations
    assert batched.load_transactions == reference.load_transactions
    assert batched.store_transactions == reference.store_transactions


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("n_dense", SPMM_WIDTHS)
def test_spmm_flash_engine_parity(name, precision, n_dense, rng):
    csr = MATRICES[name]()
    b = rng.standard_normal((csr.n_cols, n_dense))
    batched_cfg, reference_cfg = _configs(precision)
    res_b = spmm_flash_execute(csr, b, batched_cfg)
    res_r = spmm_flash_execute(csr, b, reference_cfg)
    np.testing.assert_allclose(res_b.values, res_r.values, atol=1e-4, rtol=1e-4)
    _assert_counters_identical(res_b.counter, res_r.counter)
    assert res_b.meta["engine"] == "batched"
    assert res_r.meta["engine"] == "reference"


# The batched execute takes its counter from the closed form, so only this
# grid holds the WMMA reference loop (TC-GNN's 16-column tile) against it.
@pytest.mark.parametrize(
    "precision, api",
    [("fp16", "mma"), ("tf32", "mma"), ("tf32", "wmma")],
    ids=["fp16", "tf32", "tf32-wmma"],
)
@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("n_dense", SPMM_WIDTHS)
def test_spmm_tcu16_engine_parity(name, precision, api, n_dense, rng):
    csr = MATRICES[name]()
    b = rng.standard_normal((csr.n_cols, n_dense))
    batched_cfg, reference_cfg = _configs(precision)
    res_b = spmm_tcu16_execute(csr, b, batched_cfg, api=api)
    res_r = spmm_tcu16_execute(csr, b, reference_cfg, api=api)
    np.testing.assert_allclose(res_b.values, res_r.values, atol=1e-4, rtol=1e-4)
    _assert_counters_identical(res_b.counter, res_r.counter)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("k_dense", SDDMM_WIDTHS)
@pytest.mark.parametrize("scale_by_mask", (False, True))
def test_sddmm_flash_engine_parity(name, precision, k_dense, scale_by_mask, rng):
    csr = MATRICES[name]()
    a = rng.standard_normal((csr.n_rows, k_dense))
    b = rng.standard_normal((csr.n_cols, k_dense))
    batched_cfg, reference_cfg = _configs(precision)
    res_b = sddmm_flash_execute(csr, a, b, batched_cfg, scale_by_mask=scale_by_mask)
    res_r = sddmm_flash_execute(csr, a, b, reference_cfg, scale_by_mask=scale_by_mask)
    np.testing.assert_allclose(
        res_b.output.vector_values, res_r.output.vector_values, atol=1e-4, rtol=1e-4
    )
    _assert_counters_identical(res_b.counter, res_r.counter)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize("k_dense", SDDMM_WIDTHS)
def test_sddmm_tcu16_engine_parity(name, precision, k_dense, rng):
    csr = MATRICES[name]()
    a = rng.standard_normal((csr.n_rows, k_dense))
    b = rng.standard_normal((csr.n_cols, k_dense))
    batched_cfg, reference_cfg = _configs(precision)
    res_b = sddmm_tcu16_execute(csr, a, b, batched_cfg)
    res_r = sddmm_tcu16_execute(csr, a, b, reference_cfg)
    np.testing.assert_allclose(
        res_b.output.vector_values, res_r.output.vector_values, atol=1e-4, rtol=1e-4
    )
    _assert_counters_identical(res_b.counter, res_r.counter)


# ---------------------------------------------------------------------------
# Engine plumbing
# ---------------------------------------------------------------------------
def test_batched_is_the_default_engine():
    assert FlashSparseConfig().engine == "batched"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        FlashSparseConfig(engine="warp-specialized")


def test_blocks_as_arrays_matches_per_block_accessors():
    """The block index numbers exactly the blocks the per-block accessors
    walk: storage order, window by window, for either grouping."""
    csr = random_csr(70, 50, 0.08, seed=21)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    batch = fmt.blocks_as_arrays()
    assert batch.group == fmt.k and batch.num_blocks == fmt.num_tc_blocks
    assert batch.window_offsets.shape == (fmt.num_windows + 1,)
    b = 0
    for w in range(fmt.num_windows):
        assert batch.window_offsets[w] == b
        b += fmt.window_blocks(w)
    assert batch.window_offsets[-1] == b == batch.num_blocks
    wide = fmt.blocks_as_arrays(16)
    np.testing.assert_array_equal(
        np.diff(wide.window_offsets), fmt.partition.tc_blocks_per_window(16)
    )


def test_blocks_as_arrays_is_cached_per_group():
    csr = random_csr(40, 40, 0.1, seed=3)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    assert fmt.blocks_as_arrays() is fmt.blocks_as_arrays()
    assert fmt.blocks_as_arrays(16) is fmt.blocks_as_arrays(16)
    assert fmt.blocks_as_arrays(16) is not fmt.blocks_as_arrays()


@pytest.mark.parametrize("fmt_cls", [MEBCRSMatrix, SGT16Matrix])
def test_lanes_as_csr_matches_per_block_accessors(fmt_cls):
    """Row by row: one entry per nonzero lane, in block storage order; the
    view is cached and covers the padded tail window with empty rows."""
    csr = random_csr(70, 50, 0.08, seed=21)  # 70 rows: a partial tail window
    fmt = fmt_cls.from_csr(csr, precision="fp16")
    lanes = fmt.lanes_as_csr()
    assert lanes is fmt.lanes_as_csr()
    v = fmt.vector_size
    assert lanes.row_offsets.shape == (fmt.num_windows * v + 1,)
    assert lanes.row_offsets[-1] == lanes.values.shape[0] == csr.nnz
    # ``slot`` is each entry's flat position in ``vector_values``.
    flat = np.asarray(fmt.vector_values, dtype=np.float32).reshape(-1)
    np.testing.assert_array_equal(flat[lanes.slot], lanes.values)
    assert np.unique(lanes.slot).shape == lanes.slot.shape == (np.count_nonzero(flat),)
    np.testing.assert_array_equal(fmt.partition.vector_cols[lanes.slot // v], lanes.columns)
    for w in range(fmt.num_windows):
        blocks = [
            (fmt.block_columns(w, i), fmt.block_values(w, i)) for i in range(fmt.window_blocks(w))
        ]
        cols = np.concatenate([c for c, _ in blocks]) if blocks else np.zeros(0, dtype=np.int32)
        vals = np.concatenate([b for _, b in blocks], axis=1) if blocks else np.zeros((v, 0))
        for r in range(v):
            lo, hi = lanes.row_offsets[w * v + r], lanes.row_offsets[w * v + r + 1]
            keep = vals[r] != 0
            np.testing.assert_array_equal(lanes.columns[lo:hi], cols[keep])
            np.testing.assert_array_equal(lanes.values[lo:hi], vals[r][keep].astype(np.float32))


def test_format_conversion_cache_reuses_translations():
    clear_format_cache()
    csr = random_csr(48, 48, 0.1, seed=9)
    first = cached_mebcrs(csr, "fp16")
    assert cached_mebcrs(csr, "fp16") is first
    assert cached_mebcrs(csr, "tf32") is not first
    assert format_cache_stats().size == 2
    # A structurally identical but distinct CSR object is translated afresh.
    other = CSRMatrix(csr.indptr.copy(), csr.indices.copy(), csr.data.copy(), csr.shape)
    assert cached_mebcrs(other, "fp16") is not first
    clear_format_cache()
    assert format_cache_stats().size == 0


def test_bulk_counter_updates_match_scalar_updates():
    widths = np.array([8, 8, 3, 1], dtype=np.int64)
    tx = -(-(8 * widths * 2) // 32)
    useful = 8 * widths * 2
    bulk = CostCounter()
    bulk.add_load_bulk(32, tx, useful)
    bulk.add_store_bulk(32, tx, useful)
    scalar = CostCounter()
    for t, u in zip(tx, useful):
        scalar.add_load(32, int(t), useful_bytes=int(u))
        scalar.add_store(32, int(t), useful_bytes=int(u))
    assert bulk.as_dict() == scalar.as_dict()


def test_sddmm_output_format_matches_reference_structure():
    csr = random_csr(56, 60, 0.07, seed=17)
    a = np.random.default_rng(1).standard_normal((56, 24))
    b = np.random.default_rng(2).standard_normal((60, 24))
    res = sddmm_flash_execute(csr, a, b, FlashSparseConfig(precision="fp16"))
    assert isinstance(res.output, BlockedVectorFormat)
    # Every stored nonzero position carries the sampled dot product.
    ref = sddmm_flash_execute(
        csr, a, b, FlashSparseConfig(precision="fp16", engine="reference")
    )
    np.testing.assert_allclose(
        res.output.to_dense(), ref.output.to_dense(), atol=1e-4, rtol=1e-4
    )
