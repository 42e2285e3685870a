"""Property tests for the vectorized segment-operations subsystem.

Every reduction is checked against a per-segment Python reference loop
across random segment layouts including empty segments, single-element
segments and all-empty inputs.  Agreement is asserted *exactly* wherever
floating-point association cannot bite — integer-valued float data (every
partial sum exactly representable), maxima (no rounding), counts and ids —
and to an accumulation-error bound on general float data, since
``reduceat``'s association order is an implementation detail.  The softmax
paths are additionally checked against the GNN backends' per-row oracle
semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ops import (
    check_offsets,
    segment_count,
    segment_ids,
    segment_max,
    segment_softmax,
    segment_softmax_backward,
    segment_sum,
)
from repro.ops.segment import segment_mean, segment_min

#: (name, segment lengths) covering the layouts the ISSUE calls out.
LAYOUTS = {
    "plain": [3, 1, 4, 2],
    "leading-empty": [0, 0, 5, 1],
    "interior-empty": [2, 0, 0, 3, 0, 1],
    "trailing-empty": [4, 2, 0, 0],
    "all-single": [1, 1, 1, 1, 1],
    "one-segment": [7],
    "all-empty-input": [0, 0, 0],
    "no-segments": [],
}


def _offsets(lengths) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(np.asarray(lengths, dtype=np.int64))])


def _random_layout(rng: np.random.Generator) -> np.ndarray:
    lengths = rng.integers(0, 6, size=int(rng.integers(1, 40)))
    return _offsets(lengths)


def _loop_sum(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment Python reference loop (sequential same-dtype accumulation)."""
    out = np.zeros((len(offsets) - 1,) + data.shape[1:], dtype=data.dtype)
    for s in range(len(offsets) - 1):
        acc = np.zeros(data.shape[1:], dtype=data.dtype)
        for i in range(offsets[s], offsets[s + 1]):
            acc = acc + data[i]
        out[s] = acc
    return out


def _integer_valued(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Small-integer float data: every partial sum is exactly representable,
    so the vectorized reduction must agree with the loop *bit for bit*."""
    return rng.integers(-100, 100, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# segment_sum / segment_max / segment_count / segment_ids
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(LAYOUTS))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_segment_sum_matches_loop_exactly_on_integer_valued_data(name, dtype, rng):
    offsets = _offsets(LAYOUTS[name])
    data = _integer_valued(rng, int(offsets[-1]), dtype)
    np.testing.assert_array_equal(segment_sum(data, offsets), _loop_sum(data, offsets))


@pytest.mark.parametrize("trial", range(8))
def test_segment_sum_random_layouts(trial):
    rng = np.random.default_rng(1000 + trial)
    offsets = _random_layout(rng)
    exact = _integer_valued(rng, int(offsets[-1]))
    np.testing.assert_array_equal(segment_sum(exact, offsets), _loop_sum(exact, offsets))
    floats = rng.standard_normal(int(offsets[-1])).astype(np.float32)
    np.testing.assert_allclose(
        segment_sum(floats, offsets),
        _loop_sum(floats.astype(np.float64), offsets),
        atol=1e-4,
        rtol=1e-5,
    )


def test_segment_sum_multidimensional(rng):
    offsets = _offsets([2, 0, 3, 1])
    data = _integer_valued(rng, (6, 4, 5))
    result = segment_sum(data, offsets)
    assert result.shape == (4, 4, 5)
    np.testing.assert_array_equal(result, _loop_sum(data, offsets))
    assert not result[1].any()  # empty segment sums to the identity


def test_segment_sum_fp64_accumulation_tracks_float64_loop(rng):
    offsets = _offsets([500, 0, 3])
    data = rng.standard_normal(503).astype(np.float32)
    result = segment_sum(data, offsets, accumulate="fp64")
    assert result.dtype == np.float64
    expected = _loop_sum(data.astype(np.float64), offsets)
    # float64 association error over 500 elements sits far below FP32
    # resolution — the property the engine and softmax paths rely on.
    np.testing.assert_allclose(result, expected, rtol=1e-13)
    assert result.astype(np.float32).tolist() == expected.astype(np.float32).tolist()


def test_segment_sum_rejects_unknown_accumulate_mode():
    with pytest.raises(ValueError):
        segment_sum(np.ones(3), np.array([0, 3]), accumulate="fp128")


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_segment_max_matches_loop_and_fills_empties(name, rng):
    offsets = _offsets(LAYOUTS[name])
    data = rng.standard_normal(int(offsets[-1]))
    result = segment_max(data, offsets, empty_value=-123.0)
    for s in range(len(offsets) - 1):
        seg = data[offsets[s] : offsets[s + 1]]
        expected = seg.max() if seg.size else -123.0
        assert result[s] == expected  # max carries no round-off: exact


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_segment_count_and_ids_roundtrip(name):
    lengths = np.asarray(LAYOUTS[name], dtype=np.int64)
    offsets = _offsets(lengths)
    np.testing.assert_array_equal(segment_count(offsets), lengths)
    ids = segment_ids(offsets)
    assert ids.shape[0] == int(offsets[-1])
    np.testing.assert_array_equal(
        np.bincount(ids, minlength=lengths.shape[0]), lengths
    )
    assert np.all(np.diff(ids) >= 0)  # sorted-segment layout


def test_offsets_validation_rejects_malformed():
    data = np.ones(4)
    with pytest.raises(ValueError):
        segment_sum(data, np.array([1, 4]))  # does not start at 0
    with pytest.raises(ValueError):
        segment_sum(data, np.array([0, 3]))  # does not end at len(data)
    with pytest.raises(ValueError):
        segment_sum(data, np.array([0, 3, 2, 4]))  # decreasing
    with pytest.raises(ValueError):
        segment_sum(data, np.array([[0, 4]]))  # not 1-D
    np.testing.assert_array_equal(check_offsets([0, 2, 4], 4), [0, 2, 4])


# ---------------------------------------------------------------------------
# segment_min / segment_mean
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_segment_min_matches_loop_and_fills_empties(name, rng):
    offsets = _offsets(LAYOUTS[name])
    data = rng.standard_normal(int(offsets[-1]))
    result = segment_min(data, offsets, empty_value=456.0)
    for s in range(len(offsets) - 1):
        seg = data[offsets[s] : offsets[s + 1]]
        expected = seg.min() if seg.size else 456.0
        assert result[s] == expected  # min carries no round-off: exact


def test_segment_min_is_negated_segment_max(rng):
    offsets = _random_layout(np.random.default_rng(13))
    data = rng.standard_normal(int(offsets[-1]))
    np.testing.assert_array_equal(
        segment_min(data, offsets, empty_value=-7.0),
        -segment_max(-data, offsets, empty_value=7.0),
    )


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_segment_mean_matches_loop_on_integer_valued_data(name, rng):
    # Integer-valued data with power-of-two-friendly sums still rounds at
    # the division, so compare against the same sum/length computation.
    offsets = _offsets(LAYOUTS[name])
    data = _integer_valued(rng, int(offsets[-1]))
    result = segment_mean(data, offsets)
    lengths = segment_count(offsets)
    # Same-dtype division of the exact sums: IEEE division is correctly
    # rounded, so the comparison is bit-exact.
    expected = _loop_sum(data, offsets) / np.maximum(lengths, 1).astype(data.dtype)
    np.testing.assert_array_equal(result, expected)
    assert not result[lengths == 0].any()  # empty segments mean to 0


@pytest.mark.parametrize("trial", range(4))
def test_segment_mean_random_layouts_track_float64_reference(trial):
    rng = np.random.default_rng(3000 + trial)
    offsets = _random_layout(rng)
    data = rng.standard_normal(int(offsets[-1])).astype(np.float32)
    expected = _loop_sum(data.astype(np.float64), offsets) / np.maximum(
        segment_count(offsets), 1
    )
    np.testing.assert_allclose(segment_mean(data, offsets), expected, atol=1e-5)
    fp64 = segment_mean(data, offsets, accumulate="fp64")
    assert fp64.dtype == np.float64
    np.testing.assert_allclose(fp64, expected, rtol=1e-13)


def test_segment_mean_multidimensional_and_integer_input(rng):
    offsets = _offsets([2, 0, 3])
    data = rng.integers(-5, 5, size=(5, 3, 2))  # int64 input: promoted
    result = segment_mean(data, offsets)
    assert result.shape == (3, 3, 2)
    assert np.issubdtype(result.dtype, np.floating)
    np.testing.assert_array_equal(result[0], data[:2].mean(axis=0))
    np.testing.assert_array_equal(result[2], data[2:].mean(axis=0))


# ---------------------------------------------------------------------------
# segment_softmax forward + backward
# ---------------------------------------------------------------------------
def _loop_softmax(logits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The GNN backends' per-row oracle: float64 shift/exp/normalise."""
    logits = np.asarray(logits, dtype=np.float64)
    out = np.zeros_like(logits)
    for s in range(len(offsets) - 1):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        if lo == hi:
            continue
        seg = logits[lo:hi] - logits[lo:hi].max()
        e = np.exp(seg)
        out[lo:hi] = e / e.sum()
    return out.astype(np.float32)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_segment_softmax_matches_per_row_oracle(name, rng):
    offsets = _offsets(LAYOUTS[name])
    logits = (rng.standard_normal(int(offsets[-1])) * 10).astype(np.float32)
    result = segment_softmax(logits, offsets)
    assert result.dtype == np.float32
    np.testing.assert_allclose(result, _loop_softmax(logits, offsets), atol=2e-7)


def test_segment_softmax_rows_sum_to_one(rng):
    offsets = _random_layout(np.random.default_rng(7))
    logits = rng.standard_normal(int(offsets[-1])) * 50  # large logits: stability
    result = segment_softmax(logits, offsets)
    sums = segment_sum(result.astype(np.float64), offsets)
    lengths = segment_count(offsets)
    np.testing.assert_allclose(sums[lengths > 0], 1.0, atol=1e-6)
    assert np.isfinite(result).all()


def test_segment_softmax_backward_matches_loop(rng):
    offsets = _offsets([3, 0, 5, 1, 0, 2])
    softmax = segment_softmax(rng.standard_normal(11), offsets)
    grad_out = rng.standard_normal(11).astype(np.float32)
    result = segment_softmax_backward(softmax, grad_out, offsets)
    expected = np.zeros(11, dtype=np.float32)
    for s in range(len(offsets) - 1):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        if lo == hi:
            continue
        sseg = softmax[lo:hi]
        gseg = grad_out[lo:hi]
        expected[lo:hi] = sseg * (gseg - float((gseg * sseg).sum()))
    np.testing.assert_allclose(result, expected, atol=1e-6)


def test_segment_softmax_backward_zero_grad_on_uniform_upstream(rng):
    """A constant upstream gradient is in the softmax's null space."""
    offsets = _offsets([4, 6])
    softmax = segment_softmax(rng.standard_normal(10), offsets)
    grad = segment_softmax_backward(softmax, np.full(10, 3.5, dtype=np.float32), offsets)
    np.testing.assert_allclose(grad, 0.0, atol=1e-6)


def test_segment_softmax_rejects_bad_shapes():
    with pytest.raises(ValueError):
        segment_softmax(np.ones((3, 2)), np.array([0, 3]))
    with pytest.raises(ValueError):
        segment_softmax_backward(np.ones(3), np.ones(4), np.array([0, 3]))
