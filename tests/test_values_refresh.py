"""A values refresh costs a cast, not a translation.

Every shard on every carrier — SpMM, SDDMM and the fused layer — runs on
lane arrays of the CSR (``engine.csr_lanes``), not on a translation, and
a cluster worker holds no translation at all; the head quantises a
dense panel only when a frame pushes it; the cost counter is computed once
per pattern; a lone layer request digests no coalescing token; and a
one-shard local plan adopts the shard's rows.  Every served bit stays the
one-shot kernel's.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from helpers import composed_layer, csr_with_zero_valued_entries, random_csr

import repro
from repro.cluster import ClusterScheduler, head
from repro.cluster.store import make_store_key, operand_store_key
from repro.cluster.worker import WorkerHost
from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.formats.srbcrs import SRBCRSMatrix
from repro.formats.windows import WindowPartition, partition_windows
from repro.kernels import engine, spmm as spmm_module
from repro.kernels.common import FlashSparseConfig
from repro.kernels.engine import SHARD_OPS, csr_lanes, shard_params
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK as FLASH_GROUP
from repro.kernels.sddmm_flash import sddmm_flash_cost
from repro.kernels.spmm_flash import FLASH, spmm_flash_cost
from repro.kernels.spmm_tcu16 import spmm_tcu16_cost
from repro.precision.types import Precision, quantize
from repro.serve import Server
from repro.serve import server as server_module
from repro.serve.scheduler import ShardScheduler

TIMEOUT = 120


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


# ------------------------------------------------------ the two lane sources
@st.composite
def stored_matrices(draw):
    """A canonical pattern whose values mix ordinary numbers, explicit
    zeros, fp16 underflow and fp16 overflow, in float32 / float64 / int16 /
    float16, with row counts that are not a multiple of the vector size."""
    n_rows = draw(st.integers(1, 45))
    n_cols = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pattern = sp.random(n_rows, n_cols, density=draw(st.floats(0.02, 0.5)), random_state=seed)
    csr = CSRMatrix.from_scipy(pattern)
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int16, np.float16]))
    kind = rng.integers(0, 4, size=csr.nnz)
    values = rng.standard_normal(csr.nnz) * 4
    values[kind == 1] = 0.0
    values[kind == 2] = 1e-9  # underflows to zero in fp16
    values[kind == 3] = 1e6  # overflows to inf in fp16
    if np.issubdtype(dtype, np.integer):
        values = np.clip(np.round(values), -9, 9)
    with np.errstate(over="ignore"):
        data = values.astype(dtype)
    return CSRMatrix(csr.indptr, csr.indices, data, csr.shape)


@settings(max_examples=60, deadline=None)
@given(
    csr=stored_matrices(),
    precision=st.sampled_from([Precision.FP16, Precision.TF32]),
    fmt_cls=st.sampled_from([MEBCRSMatrix, SGT16Matrix]),
    target=st.integers(1, 6),
)
def test_csr_lanes_equal_the_translation_views(csr, precision, fmt_cls, target):
    """The lane arrays built straight from CSR arrays are the translation's
    own views, bit for bit, and so is every shard cut from them."""
    with np.errstate(over="ignore"):
        fmt = fmt_cls.from_csr(csr, precision=precision)
        values, columns, offsets = csr_lanes(
            csr.indptr, csr.indices, csr.data, precision, spmm_operand=True
        )
    v, n_rows, lanes = fmt.vector_size, csr.shape[0], fmt.lanes_as_csr()
    np.testing.assert_array_equal(_bits(values), _bits(fmt.quantized_lane_values(precision)))
    np.testing.assert_array_equal(columns, lanes.columns)
    np.testing.assert_array_equal(offsets, lanes.row_offsets[: n_rows + 1])

    with np.errstate(over="ignore"):
        mask, entry_columns, indptr = csr_lanes(csr.indptr, csr.indices, csr.data, precision)
    slot = fmt.partition.entry_slot
    np.testing.assert_array_equal(_bits(mask), _bits(fmt.vector_values.reshape(-1)[slot]))
    np.testing.assert_array_equal(entry_columns, fmt.partition.vector_cols[slot // v])
    np.testing.assert_array_equal(indptr, csr.indptr)

    # Every shard cut from the lanes is the translation views' rows.  SpMM
    # lanes built from ``fmt.to_csr()`` (what a local carrier without the
    # request's CSR builds them from) are the same arrays.
    back = fmt.to_csr()
    views = {
        "spmm": (fmt.quantized_lane_values(precision), lanes.columns, lanes.row_offsets),
        "layer": (fmt.vector_values.reshape(-1)[slot], fmt.partition.vector_cols[slot // v], indptr),
    }
    for name, (view_values, view_columns, view_offsets) in views.items():
        op = SHARD_OPS[name]
        with np.errstate(over="ignore"):
            whole = op.csr_lanes(csr.indptr, csr.indices, csr.data, precision)
            again = op.csr_lanes(back.indptr, back.indices, back.data, precision)
        if name == "spmm":
            for built, rebuilt in zip(whole, again):
                np.testing.assert_array_equal(_bits(built), _bits(rebuilt))
        ranges, _ = op.plan(fmt, [np.zeros((csr.shape[1], 1))], None, 1, target)
        for r in ranges:
            sliced = op.slice(whole, r, v)
            row0, row1 = r.w0 * v, min(r.w1 * v, n_rows)
            lo, hi = int(view_offsets[row0]), int(view_offsets[row1])
            assert sliced["row0"] == row0
            np.testing.assert_array_equal(_bits(sliced["values"]), _bits(view_values[lo:hi]))
            np.testing.assert_array_equal(sliced["columns"], view_columns[lo:hi])
            np.testing.assert_array_equal(sliced["offsets"], view_offsets[row0 : row1 + 1] - lo)


# ------------------------------------------------ served parity, edge values
def _edge_case():
    """``(csr, a, b, x)``: row 1 stores an explicit zero where ``b`` / ``x``
    hold NaN and a value that underflows in fp16 (not in tf32) where they
    hold inf.  A lane kept for a zero-stored entry would put NaN into
    row 1."""
    csr, zeroed = csr_with_zero_valued_entries()
    zero_columns = csr.indices[zeroed]
    rng = np.random.default_rng(34)
    a = rng.standard_normal((csr.shape[0], 6)).astype(np.float32)
    b = rng.standard_normal((csr.shape[1], 6)).astype(np.float32)
    x = rng.standard_normal((csr.shape[1], 5)).astype(np.float32)
    for panel in (b, x):
        panel[zero_columns[0]] = np.nan
        panel[zero_columns[1]] = np.inf
    return csr, a, b, x


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
@pytest.mark.parametrize("backend", ["local", "cluster"])
def test_served_ops_match_one_shot_with_zeros_underflow_and_inf(backend, precision):
    csr, a, b, x = _edge_case()
    # The explicit zero stored as ``-0.0``, sampled under scale_by_mask
    # against the NaN row of ``b``: +0.0, as the one-shot lane view leaves
    # an entry it has no lane for.
    signed = csr.with_values(np.where(csr.data == 0.0, -0.0, csr.data))
    spmm_ref = repro.spmm(csr, b, precision=precision)
    assert not np.isnan(spmm_ref.values[1]).any()  # the zero-drop rule has teeth
    sddmm_ref = repro.sddmm(csr, a, a[: csr.shape[1]], precision=precision)
    signed_ref = repro.sddmm(signed, a, b, precision=precision, scale_by_mask=True)
    layer_ref = composed_layer(csr, a, a[: csr.shape[1]], x, scale=0.5, precision=precision)
    options = {"hosts": 1} if backend == "cluster" else {}
    with Server(backend=backend, precision=precision, **options) as srv:
        served = srv.submit_spmm(csr, b).result(TIMEOUT)
        sddmm = srv.submit_sddmm(csr, a, a[: csr.shape[1]]).result(TIMEOUT)
        signed_sddmm = srv.submit_sddmm(signed, a, b, scale_by_mask=True).result(TIMEOUT)
        layer = srv.submit_layer(csr, a, a[: csr.shape[1]], x, scale=0.5).result(TIMEOUT)
    np.testing.assert_array_equal(served.values, spmm_ref.values)
    assert served.counter.as_dict() == spmm_ref.counter.as_dict()
    np.testing.assert_array_equal(sddmm.output.vector_values, sddmm_ref.output.vector_values)
    assert sddmm.counter.as_dict() == sddmm_ref.counter.as_dict()
    np.testing.assert_array_equal(
        _bits(signed_sddmm.output.vector_values), _bits(signed_ref.output.vector_values)
    )
    np.testing.assert_array_equal(layer.values, layer_ref)


# ------------------------------------------------------ worker, in process
def _task(
    csr, op_name, operands, precision="fp16", fmt_cls=MEBCRSMatrix, structure=None, push=True
):
    """``(header, arrays)`` of one whole-matrix task frame, pushing every
    bundle or (``push=False``) none; ``structure`` overrides the pushed
    ``[indptr, indices]``."""
    fmt = fmt_cls.from_csr(csr, precision=precision)
    group = FLASH_GROUP if SHARD_OPS[op_name].sddmm else None
    (r,), _ = SHARD_OPS[op_name].plan(fmt, operands, group, 1, 10**9)
    operand_keys = [f"op/{op_name}{i}@0" for i in range(len(operands))]
    structure = structure if structure is not None else [csr.indptr, csr.indices]
    header = {
        "type": "task",
        "task_id": 0,
        "op": op_name,
        "fmt": "mebcrs",
        "shape": list(csr.shape),
        "content_key": csr.content_key(),
        "lo": r.lo,
        "hi": r.hi,
        "w0": r.w0,
        "w1": r.w1,
        **shard_params(precision, 0.5 if op_name == "layer" else None),
        "store_structure": make_store_key("struct", csr.structure_key()),
        "store_values": make_store_key("vals", csr.content_key()),
        "store_operands": operand_keys,
        "push": [
            [make_store_key("struct", csr.structure_key()), 2],
            [make_store_key("vals", csr.content_key()), 1],
            *([key, 1] for key in operand_keys),
        ],
    }
    if not push:
        return dict(header, push=[]), []
    return header, [*structure, csr.data, *operands]


def builds(monkeypatch):
    """The names of the sparse records built from here on: any
    ``CSRMatrix``, any ``WindowPartition`` (what ``partition_windows``
    returns) and any ``BlockedVectorFormat`` (what ``from_csr`` returns)."""
    calls = []
    for cls in (CSRMatrix, WindowPartition, BlockedVectorFormat):
        real = cls.__init__

        def spy(self, *args, _real=real, _name=cls.__name__, **kwargs):
            calls.append(_name)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    return calls


def test_worker_runs_every_op_on_the_pinned_csr(monkeypatch):
    csr = random_csr(70, 60, 0.1, seed=3)
    rng = np.random.default_rng(3)
    a = quantize(rng.standard_normal((70, 6)), "fp16")
    b = quantize(rng.standard_normal((60, 6)), "fp16")
    x = quantize(rng.standard_normal((60, 4)), "fp16")
    local = ShardScheduler()
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    tasks = {
        "spmm": _task(csr, "spmm", [b]),
        "sddmm": _task(csr, "sddmm", [a, b]),
        "layer": _task(csr, "layer", [a, b, x]),
    }
    expected = {
        "spmm": local.run_spmm(fmt, b, Precision.FP16, csr),
        "sddmm": local.run_sddmm(fmt, a, b, Precision.FP16, FLASH_GROUP, csr),
        "layer": local.run_layer(fmt, a, b, x, Precision.FP16, csr, scale=0.5)[0],
    }
    np.testing.assert_array_equal(expected["sddmm"], engine.sddmm_batched(fmt, a, b))
    built = builds(monkeypatch)
    host = WorkerHost()
    assert not hasattr(host, "cache")
    for _ in range(3):  # the first task pins and builds, the rest reuse
        for name, task in tasks.items():
            reply, (rows,) = host.run_task(*task)
            assert reply["type"] == "result", reply.get("message")
            if name == "sddmm":  # one value per CSR entry, from entry 0
                assert reply["row0"] == 0 and rows.shape == (csr.nnz, 1)
                rows = fmt.partition.scatter(rows[:, 0], np.float32)
            np.testing.assert_array_equal(rows, expected[name])
    assert built == []
    # The lane sets are the host's warm state: one build for SpMM's, one
    # for the set SDDMM and the layer share, then hits.
    assert (reply["cache"]["misses"], reply["cache"]["hits"], reply["cache"]["size"]) == (2, 7, 2)


def test_worker_builds_lanes_once_per_values_and_precision(monkeypatch):
    built = []
    op = SHARD_OPS["spmm"]

    def counting(indptr, indices, data, precision):
        built.append(precision)
        return op.csr_lanes(indptr, indices, data, precision)

    monkeypatch.setitem(SHARD_OPS, "spmm", dataclasses.replace(op, csr_lanes=counting))
    csr = random_csr(50, 40, 0.1, seed=4)
    b = quantize(np.random.default_rng(4).standard_normal((40, 3)), "fp16")
    host = WorkerHost()
    for task in range(3):
        assert host.run_task(*_task(csr, "spmm", [b], push=task == 0))[0]["type"] == "result"
    assert built == ["fp16"]
    fresh = CSRMatrix(csr.indptr, csr.indices, csr.data * 2, csr.shape)
    assert host.run_task(*_task(fresh, "spmm", [b]))[0]["type"] == "result"
    assert host.run_task(*_task(fresh, "spmm", [b], push=False))[0]["type"] == "result"
    assert host.run_task(*_task(csr, "spmm", [b], precision="tf32", push=False))[0][
        "type"
    ] == "result"
    assert built == ["fp16", "fp16", "tf32"]


@pytest.mark.parametrize("op_name", ["spmm", "layer"])
@pytest.mark.parametrize("fault", ["indptr", "index", "values"])
def test_corrupt_bundles_are_task_errors(monkeypatch, op_name, fault):
    """A corrupt pattern or a values bundle of the wrong length is the
    task's ``error`` reply: the worker stays up and nothing reaches the
    engine's SciPy call."""
    reached = []

    def engine_core(*args):
        reached.append(args)
        raise AssertionError("a corrupt bundle reached the engine")

    monkeypatch.setattr(engine, "_spmm_rows", engine_core)
    monkeypatch.setattr(engine, "_sddmm_entries", engine_core)
    csr = random_csr(40, 30, 0.2, seed=5)
    rng = np.random.default_rng(5)
    operands = [rng.standard_normal((30, 4)).astype(np.float32)]
    if op_name == "layer":
        operands = [rng.standard_normal((40, 4)).astype(np.float32), *operands * 2]
    structure = None
    if fault == "indptr":
        indptr = csr.indptr.copy()
        indptr[3], indptr[4] = indptr[4], indptr[3] - 1
        structure = [indptr, csr.indices]
    elif fault == "index":
        indices = csr.indices.copy()
        indices[-1] = csr.shape[1] + 5
        structure = [csr.indptr, indices]
    header, arrays = _task(csr, op_name, operands, structure=structure)
    if fault == "values":
        arrays[2] = csr.data[:-1]
    host = WorkerHost()
    reply, payload = host.run_task(header, arrays)
    assert reply["type"] == "error" and payload == []
    assert "ValueError" in reply["message"]
    assert reached == []


def test_pattern_is_checked_when_pinned_for_the_header_shape():
    csr = random_csr(40, 30, 0.2, seed=6)
    b = quantize(np.random.default_rng(6).standard_normal((30, 2)), "fp16")
    host = WorkerHost()
    header, arrays = _task(csr, "spmm", [b])
    key = header["store_structure"]
    assert host.run_task(header, arrays)[0]["type"] == "result"
    # A task that names the pinned pattern with another shape is an error.
    reply, _ = host.run_task(dict(header, push=[], shape=[40, 31]), [])
    assert reply["type"] == "error" and "shape" in reply["message"]
    # A corrupt replacement is checked, not trusted, and not pinned: the
    # checked bundle stays and keeps serving.
    indices = csr.indices.copy()
    indices[0] = -1
    reply, _ = host.run_task(*_task(csr, "spmm", [b], structure=[csr.indptr, indices]))
    assert reply["type"] == "error" and "out of range" in reply["message"]
    assert host.run_task(*_task(csr, "spmm", [b], push=False))[0]["type"] == "result"
    # The checked shape goes with its bundle.
    header, _ = _task(csr, "spmm", [b], push=False)
    assert host.run_task(dict(header, release=[key]), [])[0]["type"] == "result"
    assert key not in host.store and key not in host._pattern_shapes
    assert host.run_task(header, [])[0]["type"] == "store_miss"


# ------------------------------------------------------- head-side panels
def test_pinned_panel_is_not_requantised(monkeypatch):
    quantised = []
    real = head.quantize

    def spy(x, precision):
        quantised.append(x)
        return real(x, precision)

    monkeypatch.setattr(head, "quantize", spy)
    csr = random_csr(90, 80, 0.08, seed=7)
    b = np.random.default_rng(7).standard_normal((80, 6)).astype(np.float32)
    with Server(backend="cluster", hosts=1) as srv:
        for request in range(8):
            fresh = CSRMatrix(csr.indptr, csr.indices, csr.data * (request + 1), csr.shape)
            served = srv.submit_spmm(fresh, b).result(TIMEOUT)
            np.testing.assert_array_equal(served.values, repro.spmm(fresh, b).values)
    # Request-scoped on first sight, content-keyed (and pushed) on the
    # second: two quantisations, then none.
    assert len(quantised) == 2 and all(np.shares_memory(q, b) for q in quantised)


def test_panel_key_covers_the_precision():
    csr = random_csr(90, 80, 0.08, seed=8)
    b = np.random.default_rng(8).standard_normal((80, 6)).astype(np.float32)
    assert operand_store_key(b, "fp16") != operand_store_key(b, "tf32")
    with ClusterScheduler(hosts=1) as sched:
        for precision in (Precision.FP16, Precision.TF32, Precision.FP16):
            fmt = MEBCRSMatrix.from_csr(csr, precision=precision)
            out = sched.run_spmm(fmt, b, precision, csr=csr)
            np.testing.assert_array_equal(out, ShardScheduler().run_spmm(fmt, b, precision, csr))


def test_float64_panel_is_quantised_in_its_own_dtype():
    # 1 + 2⁻¹¹ + 2⁻⁴⁰ rounds up to 1 + 2⁻¹⁰ in fp16, but to 1.0 through float32.
    csr = CSRMatrix.from_dense(np.eye(8))
    b = np.full((8, 2), 1 + 2.0**-11 + 2.0**-40)
    with Server(backend="cluster", hosts=1) as srv:
        served = srv.submit_spmm(csr, b).result(TIMEOUT)
    np.testing.assert_array_equal(served.values, repro.spmm(csr, b).values)
    assert served.values[0, 0] == np.float32(1 + 2.0**-10)


# ------------------------------------------------------ satellites
def test_lanes_kept_on_a_translation_follow_the_csr_values():
    """A translation keeps its carriers' lane sets, and another matrix's
    values on the same translation are a rebuild, not the first matrix's
    lanes."""
    csr = random_csr(80, 70, 0.1, seed=12)
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((80, 5)), rng.standard_normal((70, 5))
    tripled = csr.with_values(3 * csr.data)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    sched = ShardScheduler()
    for matrix in (csr, tripled, csr):
        np.testing.assert_array_equal(
            sched.run_spmm(fmt, b, Precision.FP16, matrix), repro.spmm(matrix, b).values
        )
        scores = sched.run_sddmm(
            fmt, a, b, Precision.FP16, FLASH_GROUP, matrix, scale_by_mask=True
        )
        expected = repro.sddmm(matrix, a, b, scale_by_mask=True).output.vector_values
        np.testing.assert_array_equal(scores, expected)


def test_lone_layer_request_digests_no_token(monkeypatch):
    digested = []
    real = server_module.digest16

    def spy(*chunks):
        digested.append(chunks)
        return real(*chunks)

    monkeypatch.setattr(server_module, "digest16", spy)
    csr = random_csr(60, 60, 0.1, seed=9)
    rng = np.random.default_rng(9)
    a, x = rng.standard_normal((60, 4)), rng.standard_normal((60, 3))
    with Server() as srv:
        served = srv.submit_layer(csr, a, a, x, scale=0.5).result(TIMEOUT)
    np.testing.assert_array_equal(served.values, composed_layer(csr, a, a, x, scale=0.5))
    assert digested == []


def test_one_shard_local_plan_adopts_the_shard_rows(monkeypatch):
    returned = []
    real = engine.spmm_shard_rows

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(engine, "spmm_shard_rows", spy)
    csr = random_csr(61, 50, 0.1, seed=10)
    b = np.random.default_rng(10).standard_normal((50, 4)).astype(np.float32)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    out = ShardScheduler().run_spmm(fmt, b, Precision.FP16, csr)
    assert len(returned) == 1 and np.shares_memory(out, returned[0])
    assert out.shape == (61, 4) and out.dtype == np.float32
    np.testing.assert_array_equal(out, repro.spmm(csr, b).values)
    empty = ShardScheduler().run_spmm(fmt, b[:, :0], Precision.FP16, csr)
    assert empty.shape == (61, 0)


def test_cost_counter_is_memoised_per_pattern_and_settings():
    csr = random_csr(120, 100, 0.06, seed=11)
    partition = partition_windows(csr, 8)
    me = MEBCRSMatrix.from_csr(csr, precision="fp16", partition=partition)
    sr = SRBCRSMatrix.from_csr(csr, precision="fp16", partition=partition)
    first = spmm_flash_cost(me, 32)
    again = spmm_flash_cost(me, 32)
    assert first is not again and first.as_dict() == again.as_dict()
    first.add_mma("m16n8k8", "fp16", 5)
    first.load_transactions[32] += 1
    assert spmm_flash_cost(me, 32).as_dict() == again.as_dict()
    # Every setting the counter reads is in the key: interleaved calls on
    # one partition give what an uncached pass gives.
    cases = [
        (me, 32, FlashSparseConfig()),
        (me, 16, FlashSparseConfig()),
        (me, 32, FlashSparseConfig(coalesced=False)),
        (sr, 32, FlashSparseConfig()),
    ]
    for fmt, width, config in cases * 2:
        memoised = spmm_flash_cost(fmt, width, config).as_dict()
        shape = FLASH.shape_for(config.precision)
        direct = spmm_module._spmm_cost(FLASH, fmt, shape, width, config).as_dict()
        assert memoised == direct
    assert spmm_flash_cost(me, 32).as_dict() != spmm_flash_cost(sr, 32).as_dict()
    tf32 = MEBCRSMatrix.from_csr(csr, precision="tf32", partition=partition)
    assert (
        sddmm_flash_cost(me, 16).as_dict()
        != sddmm_flash_cost(tf32, 16, FlashSparseConfig(precision="tf32")).as_dict()
    )
    sgt = SGT16Matrix.from_csr(csr, precision="tf32")
    config = FlashSparseConfig(precision="tf32")
    wmma = spmm_tcu16_cost(sgt, 32, config, api="wmma").as_dict()
    assert wmma != spmm_tcu16_cost(sgt, 32, config).as_dict()
