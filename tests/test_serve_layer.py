"""Fused layer serving: parity, coalescing, deadlines.

The contract of ``Server.submit_layer``: one request runs the whole
SDDMM → scale → edge-softmax → SpMM pipeline **bit-identically** to the
three kernels run one after another (``helpers.composed_layer``: SDDMM →
gather + scale → softmax → SpMM over the attention matrix), with the same
coalescing and deadline semantics as the per-kernel submissions.
The parity grid below runs the fused shard scheduler across formats, shard
sizes and concurrent callers against that oracle, and the server-level
tests run the layer through :class:`repro.gnn.backends.ServedBackend`,
whose OpStats count all three logical operators.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from helpers import composed_layer, csr_with_zero_valued_entries, random_csr

from repro.formats.cache import cached_mebcrs
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.gnn import ServedBackend
from repro.gpu.device import RTX4090
from repro.precision.types import Precision, quantize
from repro.serve import LatencyStats, Server, ShardScheduler, plan_spmm
from repro.serve.program import composed_intermediate_bytes

TIMEOUT = 120

_FORMATS = {"mebcrs": MEBCRSMatrix, "sgt16": SGT16Matrix}


def _layer_workload(fmt_name="mebcrs", seed=4, rows=160, cols=150, k=24, n=16):
    cls = _FORMATS[fmt_name]
    csr = random_csr(rows, cols, 0.05, seed=seed)
    fmt = cls.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    a_q = quantize(rng.standard_normal((rows, k)), Precision.FP16).astype(np.float32)
    b_q = quantize(rng.standard_normal((cols, k)), Precision.FP16).astype(np.float32)
    x_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    return csr, fmt, a_q, b_q, x_q


# ------------------------------------------------------ scheduler parity grid
@pytest.mark.parametrize("fmt_name", ["mebcrs", "sgt16"])
@pytest.mark.parametrize("target", (1, 7, 10_000))
@pytest.mark.parametrize("callers", (1, 3))
def test_fused_layer_scheduler_parity_grid(fmt_name, target, callers):
    """``callers`` threads run the layer on one scheduler at once, as a
    server with ``group_concurrency > 1`` does."""
    csr, fmt, a_q, b_q, x_q = _layer_workload(fmt_name)
    base = composed_layer(csr, a_q, b_q, x_q, 0.8, fmt_cls=type(fmt))
    sched = ShardScheduler()

    def call(_):
        return sched.run_layer(
            fmt,
            a_q,
            b_q,
            x_q,
            Precision.FP16,
            csr,
            scale=0.8,
            target_blocks=target,
        )

    with ThreadPoolExecutor(callers) as threads:
        results = list(threads.map(call, range(callers)))
    for out, stages in results:
        np.testing.assert_array_equal(out, base)
        assert set(stages) == {"sddmm_s", "edge_softmax_s", "spmm_s"}
        assert all(seconds >= 0.0 for seconds in stages.values())
    assert sched.stats_snapshot()["requests"] == callers


@pytest.mark.parametrize("scale, by_mask", [(None, False), (0.5, True)])
def test_fused_layer_scale_variants(scale, by_mask):
    csr, fmt, a_q, b_q, x_q = _layer_workload(seed=9)
    base = composed_layer(csr, a_q, b_q, x_q, scale, by_mask)
    out, _ = ShardScheduler().run_layer(
        fmt,
        a_q,
        b_q,
        x_q,
        Precision.FP16,
        csr,
        scale=scale,
        scale_by_mask=by_mask,
        target_blocks=5,
    )
    np.testing.assert_array_equal(out, base)


def test_fused_layer_empty_matrix_yields_zeros():
    empty = random_csr(24, 20, 0.0, ensure_nonempty=False, seed=1)
    fmt = MEBCRSMatrix.from_csr(empty, precision="fp16")
    out, stages = ShardScheduler().run_layer(
        fmt,
        np.zeros((24, 4), np.float32),
        np.zeros((20, 4), np.float32),
        np.zeros((20, 3), np.float32),
        Precision.FP16,
        empty,
    )
    assert out.shape == (24, 3) and not out.any()
    assert all(seconds == 0.0 for seconds in stages.values())


# --------------------------------------------------------- served layer modes
def _shm_segments() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def test_local_multi_shard_layer_runs_in_the_server_process():
    """``workers`` sizes the plan's shards; the shards run in the server
    process: no child process, no shared-memory segment, and the values of
    ``workers=1`` and of the three-call composition bit for bit."""
    csr, fmt, a_q, b_q, x_q = _layer_workload()
    one_shot = plan_spmm(fmt, x_q.shape[1])
    workspace = 2 * -(-one_shot.num_blocks // 4) * one_shot.bytes_per_block
    device = replace(
        RTX4090, name="tiny", memory_bytes=int(one_shot.meta["resident_bytes"] + workspace / 0.25)
    )
    children, segments = set(multiprocessing.active_children()), _shm_segments()
    with Server(device=device, workers=2) as srv:
        res = srv.submit_layer(csr, a_q, b_q, x_q, scale=0.8).result(TIMEOUT)
        assert set(multiprocessing.active_children()) <= children
        assert _shm_segments() <= segments
    assert res.meta["plan"].num_shards >= 2
    assert res.meta["workers"] == 1
    with Server(workers=1) as srv:
        solo = srv.submit_layer(csr, a_q, b_q, x_q, scale=0.8).result(TIMEOUT)
    np.testing.assert_array_equal(res.values, solo.values)
    np.testing.assert_array_equal(res.values, composed_layer(csr, a_q, b_q, x_q, 0.8))


def test_served_fused_and_composed_are_bit_identical_with_equal_opstats():
    csr = random_csr(130, 130, 0.05, seed=11)  # square: AGNN's self-attention
    rng = np.random.default_rng(11)
    h = rng.standard_normal((csr.shape[0], 20)).astype(np.float32)
    with Server(workers=2) as srv:
        backend = ServedBackend(server=srv, adjacency=csr)
        out = backend.agnn_forward(h, beta=1.3)
        norms = np.sqrt((h**2).sum(axis=1, keepdims=True)) + np.float32(1e-12)
        h_norm = (h / norms).astype(np.float32)
        np.testing.assert_array_equal(out, composed_layer(csr, h_norm, h_norm, h, 1.3))
        # The logical operator accounting counts the three fused kernels.
        assert backend.stats.sddmm_calls == 1
        assert backend.stats.edge_softmax_calls == 1
        assert backend.stats.spmm_calls == 1
        snap = srv.snapshot()
        # One request, which banked the two round trips of the other two.
        assert snap.layer_requests == 1
        assert snap.round_trips_saved == 2
        assert snap.operand_bytes_saved > 0
        assert snap.requests_completed == 1


def test_fused_layer_matches_composition_at_zero_valued_and_unreferenced_entries():
    """The softmax runs over CSR entries, SDDMM over nonzero lanes: a stored
    zero and an fp16 underflow still get logit ``0 · scale`` and a share of
    the attention, fused exactly as composed — and a non-finite row of A / B
    / X behind a row / column no entry references reaches neither."""
    csr, zeroed = csr_with_zero_valued_entries()  # row 7, column 3: no entry
    assert (csr.data[zeroed].astype(np.float16) == 0).all()
    rng = np.random.default_rng(35)
    a, b, x = (rng.standard_normal(shape) for shape in ((40, 10), (36, 10), (36, 6)))
    a[7] = np.nan
    b[3], x[3] = np.inf, -np.inf
    with Server(workers=2) as srv:
        for scale, by_mask in ((0.7, False), (None, True)):
            out = ServedBackend(server=srv, adjacency=csr).attention_layer(
                a, b, x, scale=scale, scale_by_mask=by_mask
            )
            np.testing.assert_array_equal(out, composed_layer(csr, a, b, x, scale, by_mask))
            assert np.isfinite(out).all()
            # Row 1 spreads its attention over all four stored entries.
            weights = np.linalg.lstsq(x[[0, 2, 5, 9]].T, out[1], rcond=None)[0]
            assert (weights > 0.01).all()


def test_fused_layer_over_duplicate_coo_triplets_matches_composition():
    """``from_coo`` folds duplicate triplets into one canonical entry each,
    so the fused layer's per-entry softmax and the composed path's
    translated attention matrix see the same entries."""
    rng = np.random.default_rng(41)
    rows, cols = rng.integers(0, 40, 400), rng.integers(0, 36, 400)
    csr = CSRMatrix.from_coo(rows, cols, rng.standard_normal(400), (40, 36))
    assert csr.nnz < 400
    a, b, x = (rng.standard_normal(shape) for shape in ((40, 10), (36, 10), (36, 6)))
    with Server(workers=1) as srv:
        out = ServedBackend(server=srv, adjacency=csr).attention_layer(a, b, x, scale=0.7)
    np.testing.assert_array_equal(out, composed_layer(csr, a, b, x, 0.7))


def test_layer_deadline_semantics_match_kernel_requests():
    """A queued layer request sheds on deadline exactly like an SpMM: the
    deadline is the only dispatch setting a request carries."""
    from repro.serve import ServeTimeoutError

    csr = random_csr(120, 120, 0.05, seed=13)
    rng = np.random.default_rng(13)
    a = rng.standard_normal((120, 8)).astype(np.float32)
    x = rng.standard_normal((120, 8)).astype(np.float32)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker_csr = random_csr(50, 40, 0.1, seed=99)
        blocker = srv.submit_spmm(
            blocker_csr, rng.standard_normal((40, 4)).astype(np.float32)
        )
        gate.entered.wait(TIMEOUT)
        doomed = srv.submit_layer(csr, a, a, x, timeout=0.01)
        time.sleep(0.05)  # let the deadline lapse while parked
        gate.release.set()
        blocker.result(TIMEOUT)
        with pytest.raises(ServeTimeoutError):
            doomed.result(TIMEOUT)
        assert srv.snapshot().requests_timed_out == 1


class _Gate:
    """Deterministic dispatcher block (see ``test_serve_overload``)."""

    def __init__(self, server: Server):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._original = server._execute_group
        server._execute_group = self

    def __call__(self, group):
        self.entered.set()
        assert self.release.wait(TIMEOUT), "gate never released"
        self._original(group)


def test_same_layer_requests_coalesce_into_one_fused_pass():
    csr = random_csr(120, 120, 0.05, seed=15)
    rng = np.random.default_rng(15)
    a = rng.standard_normal((120, 12)).astype(np.float32)
    x1 = rng.standard_normal((120, 6)).astype(np.float32)
    x2 = rng.standard_normal((120, 9)).astype(np.float32)
    with Server(workers=1) as srv:
        # Solo runs for the reference outputs.
        solo1 = srv.submit_layer(csr, a, a, x1, scale=0.9).result(TIMEOUT)
        solo2 = srv.submit_layer(csr, a, a, x2, scale=0.9).result(TIMEOUT)
        gate = _Gate(srv)
        blocker_csr = random_csr(50, 40, 0.1, seed=98)
        blocker = srv.submit_spmm(
            blocker_csr, rng.standard_normal((40, 4)).astype(np.float32)
        )
        gate.entered.wait(TIMEOUT)
        before = srv.snapshot().batches_dispatched
        f1 = srv.submit_layer(csr, a, a, x1, scale=0.9)
        f2 = srv.submit_layer(csr, a, a, x2, scale=0.9)
        gate.release.set()
        blocker.result(TIMEOUT)
        r1, r2 = f1.result(TIMEOUT), f2.result(TIMEOUT)
        np.testing.assert_array_equal(r1.values, solo1.values)
        np.testing.assert_array_equal(r2.values, solo2.values)
        snap = srv.snapshot()
        # The pair shared one engine pass (their x panels concatenated).
        assert snap.batches_dispatched == before + 2  # blocker + fused pair
        assert snap.requests_coalesced >= 2
        assert r1.meta["batched_with"] == 1
        assert r2.meta["batched_with"] == 1


def test_coalesced_layer_requests_each_count_their_saved_round_trips():
    """Three layer requests coalesced into one pass bank three requests'
    round trips and intermediate bytes; the stage split keeps one sample
    for the one pass."""
    csr = random_csr(120, 120, 0.05, seed=16)
    rng = np.random.default_rng(16)
    a = rng.standard_normal((120, 12)).astype(np.float32)
    xs = [rng.standard_normal((120, n)).astype(np.float32) for n in (3, 4, 5)]
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker = srv.submit_spmm(
            random_csr(50, 40, 0.1, seed=98), rng.standard_normal((40, 4)).astype(np.float32)
        )
        gate.entered.wait(TIMEOUT)
        futures = [srv.submit_layer(csr, a, a, x, scale=0.9) for x in xs]
        gate.release.set()
        blocker.result(TIMEOUT)
        assert all(fut.result(TIMEOUT).meta["batched_with"] == 2 for fut in futures)
        deadline = time.monotonic() + TIMEOUT
        while srv.snapshot().requests_completed < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        snap = srv.snapshot()
        fmt = cached_mebcrs(csr, srv.precision, by_content=True)
    assert snap.layer_requests == 3
    assert snap.round_trips_saved == 6
    assert snap.operand_bytes_saved == 3 * composed_intermediate_bytes(fmt, csr)
    assert snap.stage_latency["spmm"].count == 1


def test_coalesced_layer_panels_of_any_width_match_their_solo_runs():
    """``x`` panels of widths (1, 5, 1, 33) concatenated into one fused pass.
    The width-1 panels are the regression: the per-block matmul sent a solo
    ``N = 1`` product to gemv and the coalesced one to gemm."""
    csr = random_csr(120, 120, 0.05, seed=15)
    rng = np.random.default_rng(15)
    a = rng.standard_normal((120, 12)).astype(np.float32)
    xs = [rng.standard_normal((120, n)).astype(np.float32) for n in (1, 5, 1, 33)]
    with Server(workers=1) as srv:
        solos = [srv.submit_layer(csr, a, a, x, scale=0.9).result(TIMEOUT) for x in xs]
        gate = _Gate(srv)
        blocker = srv.submit_spmm(
            random_csr(50, 40, 0.1, seed=98), rng.standard_normal((40, 4)).astype(np.float32)
        )
        gate.entered.wait(TIMEOUT)
        futures = [srv.submit_layer(csr, a, a, x, scale=0.9) for x in xs]
        gate.release.set()
        blocker.result(TIMEOUT)
        for fut, solo in zip(futures, solos):
            res = fut.result(TIMEOUT)
            assert res.meta["batched_with"] == len(xs) - 1
            np.testing.assert_array_equal(res.values, solo.values)


def test_different_scale_layers_do_not_coalesce():
    csr = random_csr(120, 120, 0.05, seed=16)
    rng = np.random.default_rng(16)
    a = rng.standard_normal((120, 8)).astype(np.float32)
    x = rng.standard_normal((120, 5)).astype(np.float32)
    with Server(workers=1) as srv:
        gate = _Gate(srv)
        blocker_csr = random_csr(50, 40, 0.1, seed=97)
        blocker = srv.submit_spmm(
            blocker_csr, rng.standard_normal((40, 4)).astype(np.float32)
        )
        gate.entered.wait(TIMEOUT)
        f1 = srv.submit_layer(csr, a, a, x, scale=0.5)
        f2 = srv.submit_layer(csr, a, a, x, scale=2.0)
        gate.release.set()
        blocker.result(TIMEOUT)
        r1, r2 = f1.result(TIMEOUT), f2.result(TIMEOUT)
        assert r1.meta["batched_with"] == 0
        assert r2.meta["batched_with"] == 0
        assert not np.array_equal(r1.values, r2.values)


def test_layers_reading_the_same_bytes_at_other_widths_do_not_coalesce():
    """One buffer read two ways: ``a`` float32 + ``b`` float64, then ``a``
    float64 + ``b`` float32.  The logits panels are the same bytes, so
    only their dtypes tell the requests apart; coalesced, the second would
    get the first one's answer."""
    n, k = 96, 6
    csr = random_csr(n, n, 0.06, seed=18)
    rng = np.random.default_rng(18)
    a1 = rng.standard_normal((n, k)).astype(np.float32)
    # Small integers: the float64 words' low halves are zero, so every
    # float32 / float64 reading of the buffer is finite.
    b1 = rng.integers(-4, 5, (n, k)).astype(np.float64)
    buffer = a1.tobytes() + b1.tobytes()
    a2 = np.frombuffer(buffer[: 8 * n * k], np.float64).reshape(n, k)
    b2 = np.frombuffer(buffer[8 * n * k :], np.float32).reshape(n, k)
    assert all(np.isfinite(m).all() for m in (a1, b1, a2, b2))
    x = rng.standard_normal((n, 5)).astype(np.float32)
    with Server(workers=1) as srv:
        solo1 = srv.submit_layer(csr, a1, b1, x).result(TIMEOUT)
        solo2 = srv.submit_layer(csr, a2, b2, x).result(TIMEOUT)
        assert not np.array_equal(solo1.values, solo2.values)
        gate = _Gate(srv)
        blocker = srv.submit_spmm(
            random_csr(50, 40, 0.1, seed=96), rng.standard_normal((40, 4)).astype(np.float32)
        )
        gate.entered.wait(TIMEOUT)
        f1 = srv.submit_layer(csr, a1, b1, x)
        f2 = srv.submit_layer(csr, a2, b2, x)
        gate.release.set()
        blocker.result(TIMEOUT)
        r1, r2 = f1.result(TIMEOUT), f2.result(TIMEOUT)
    assert r1.meta["batched_with"] == 0 and r2.meta["batched_with"] == 0
    np.testing.assert_array_equal(r1.values, solo1.values)
    np.testing.assert_array_equal(r2.values, solo2.values)


def test_submit_layer_validates_shapes_and_program():
    csr, *_ = _layer_workload(seed=17)
    rows, cols = csr.shape
    good_a = np.ones((rows, 6), np.float32)
    good_b = np.ones((cols, 6), np.float32)
    good_x = np.ones((cols, 4), np.float32)
    with Server(workers=1) as srv:
        with pytest.raises(ValueError):
            srv.submit_layer(csr, np.ones((rows + 1, 6)), good_b, good_x)
        with pytest.raises(ValueError):
            srv.submit_layer(csr, good_a, np.ones((cols, 7)), good_x)
        with pytest.raises(ValueError):
            srv.submit_layer(csr, good_a, good_b, np.ones((cols + 2, 4)))
        with pytest.raises(ValueError, match="scale must be finite in float32"):
            srv.submit_layer(csr, good_a, good_b, good_x, scale=float("nan"))


def test_submit_layer_rejects_a_scale_that_overflows_float32():
    """1e39 is finite as a float64 but the layer multiplies in float32,
    where it is inf: every softmax row would come back NaN."""
    csr, *_ = _layer_workload(seed=17)
    rows, cols = csr.shape
    a = np.ones((rows, 6), np.float32)
    b = np.ones((cols, 6), np.float32)
    x = np.ones((cols, 4), np.float32)
    with Server(workers=1) as srv:
        with pytest.raises(ValueError, match="finite in float32"):
            srv.submit_layer(csr, a, b, x, scale=1e39)
        assert srv.snapshot().layer_requests == 0


def test_served_backend_rejects_a_scale_that_overflows_float32():
    """The backend refuses 1e39 before any request is sent."""
    csr, *_ = _layer_workload(seed=17)
    rows, cols = csr.shape
    a = np.ones((rows, 6), np.float32)
    b = np.ones((cols, 6), np.float32)
    x = np.ones((cols, 4), np.float32)
    with Server(workers=1) as srv:
        backend = ServedBackend(server=srv, adjacency=csr)
        with pytest.raises(ValueError, match="finite in float32"):
            backend.attention_layer(a, b, x, scale=1e39)
        assert srv.snapshot().requests_submitted == 0
        assert backend.stats.spmm_calls == 0


def test_submit_accepts_a_numpy_bool_mask_flag():
    """``np.True_`` is a bool: served calls take it like the one-shot
    ``repro.sddmm`` does, with the same values as ``True``."""
    csr, *_ = _layer_workload(seed=17)
    rows, cols = csr.shape
    rng = np.random.default_rng(17)
    a = rng.standard_normal((rows, 6)).astype(np.float32)
    b = rng.standard_normal((cols, 6)).astype(np.float32)
    x = rng.standard_normal((cols, 4)).astype(np.float32)
    with Server(workers=1) as srv:
        plain = srv.submit_sddmm(csr, a, b, scale_by_mask=True).result(TIMEOUT)
        numpy = srv.submit_sddmm(csr, a, b, scale_by_mask=np.True_).result(TIMEOUT)
        np.testing.assert_array_equal(numpy.output.vector_values, plain.output.vector_values)
        plain = srv.submit_layer(csr, a, b, x, scale_by_mask=True).result(TIMEOUT)
        numpy = srv.submit_layer(csr, a, b, x, scale_by_mask=np.True_).result(TIMEOUT)
        np.testing.assert_array_equal(numpy.values, plain.values)
        assert numpy.meta["scale_by_mask"] is True


def test_snapshot_exposes_per_stage_latency_split():
    csr = random_csr(120, 120, 0.05, seed=19)
    rng = np.random.default_rng(19)
    a = rng.standard_normal((120, 8)).astype(np.float32)
    x = rng.standard_normal((120, 4)).astype(np.float32)
    with Server(workers=1) as srv:
        for _ in range(3):
            srv.submit_layer(csr, a, a, x).result(TIMEOUT)
        snap = srv.snapshot()
    assert set(snap.stage_latency) == {"sddmm", "edge_softmax", "spmm"}
    for stage, stats in snap.stage_latency.items():
        assert isinstance(stats, LatencyStats)  # the existing snapshot shape
        assert stats.count == 3
        assert stats.mean_s >= 0.0
        assert stats.p99_s >= stats.p50_s >= 0.0
