"""Serving frontend: futures, same-matrix batching, metrics, parity.

The acceptance contract: a ``Server`` with ``workers=4`` resolves every
request with values bit-identical to a direct single-process
``engine="batched"`` call and with exactly the same ``CostCounter`` — even
when the server coalesced the request into a shared engine pass with other
same-matrix requests.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from helpers import random_csr

import repro
from repro.core.api import sddmm, spmm
from repro.formats.cache import clear_format_cache
from repro.formats.csr import CSRMatrix
from repro.kernels.sddmm_flash import sddmm_flash_execute
from repro.kernels.spmm_flash import spmm_flash_execute
from repro.serve import Server

TIMEOUT = 120  # generous: CI runners fork slowly under load


def _twin(csr: CSRMatrix) -> CSRMatrix:
    """A structurally equal but distinct CSR object (a fresh deserialisation,
    as every real request payload would be)."""
    return CSRMatrix(csr.indptr.copy(), csr.indices.copy(), csr.data.copy(), csr.shape)


@pytest.fixture(scope="module")
def workload():
    csr = random_csr(300, 280, 0.05, seed=4)
    rng = np.random.default_rng(4)
    bs = [rng.standard_normal((280, n)) for n in (33, 17, 8, 33)]
    a = rng.standard_normal((300, 24))
    bk = rng.standard_normal((280, 24))
    return csr, bs, a, bk


@pytest.fixture(scope="module")
def server():
    with Server(device="rtx4090", workers=4) as srv:
        yield srv


def test_duplicate_coo_triplets_are_summed_one_shot_and_served():
    """``from_coo`` sums the duplicate ``(0, 0)`` triplets — SciPy's 3.0 —
    on the one-shot path and through the server alike."""
    csr = CSRMatrix.from_coo([0, 0, 1], [0, 0, 1], [1.0, 2.0, 4.0], (2, 2))
    eye = np.eye(2, dtype=np.float32)
    assert spmm(csr, eye).values[0, 0] == 3.0
    with Server(workers=1) as srv:
        assert srv.submit_spmm(csr, eye).result(timeout=60).values[0, 0] == 3.0


def test_server_spmm_bit_identical_and_counter_parity(server, workload):
    csr, bs, _, _ = workload
    futures = [server.submit_spmm(_twin(csr), b) for b in bs]
    results = [f.result(TIMEOUT) for f in futures]
    for b, res in zip(bs, results):
        base = spmm(csr, b)
        np.testing.assert_array_equal(res.values, base.values)
        assert res.counter.as_dict() == base.counter.as_dict()
        assert res.meta["engine"] == "serve"


def test_server_sddmm_bit_identical_and_counter_parity(server, workload):
    csr, _, a, bk = workload
    res = server.submit_sddmm(_twin(csr), a, bk).result(TIMEOUT)
    base = sddmm(csr, a, bk)
    np.testing.assert_array_equal(res.output.vector_values, base.output.vector_values)
    assert res.counter.as_dict() == base.counter.as_dict()
    scaled = server.submit_sddmm(_twin(csr), a, bk, scale_by_mask=True).result(TIMEOUT)
    sbase = sddmm(csr, a, bk, scale_by_mask=True)
    np.testing.assert_array_equal(
        scaled.output.vector_values, sbase.output.vector_values
    )


def test_server_randomized_parity_suite(server):
    """Randomized shapes and widths through the 4-worker server, exact."""
    for seed in (31, 32, 33, 34):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(60, 350)), int(rng.integers(60, 350))
        csr = random_csr(rows, cols, 0.06, seed=seed)
        b = rng.standard_normal((cols, int(rng.integers(1, 40))))
        res = server.submit_spmm(_twin(csr), b).result(TIMEOUT)
        base = spmm(csr, b)
        np.testing.assert_array_equal(res.values, base.values)
        assert res.counter.as_dict() == base.counter.as_dict()
        k = int(rng.integers(1, 32))
        a2 = rng.standard_normal((rows, k))
        b2 = rng.standard_normal((cols, k))
        sres = server.submit_sddmm(_twin(csr), a2, b2).result(TIMEOUT)
        sbase = sddmm(csr, a2, b2)
        np.testing.assert_array_equal(
            sres.output.vector_values, sbase.output.vector_values
        )
        assert sres.counter.as_dict() == sbase.counter.as_dict()


def test_same_matrix_requests_coalesce_into_one_pass(workload):
    """The grouping logic itself, exercised directly: one batch of
    same-content requests becomes one engine pass whose split results are
    bit-identical to solo runs."""
    csr, bs, _, _ = workload
    with Server(workers=1) as srv:
        from repro.serve.server import ServeRequest

        reqs = []
        for b in bs:
            twin = _twin(csr)
            fut = srv.submit_spmm(twin, b)  # normal path for metrics…
            fut.result(TIMEOUT)
            reqs.append(
                ServeRequest(op="spmm", csr=twin, key=twin.content_key(), operands=(b,))
            )
        # All four requests share content and operand height: one pass.
        assert srv._group(reqs) == reqs
        # Ops never mix: an SDDMM over the same matrix neither joins an
        # SpMM head's pass nor takes SpMM riders when it leads.
        other = ServeRequest(op="sddmm", csr=csr, key=csr.content_key(), operands=(bs[0],))
        assert srv._group(reqs + [other]) == reqs
        assert srv._group([other] + reqs) == [other]
        # max_batch caps the pass, oldest first.
        srv.max_batch = 2
        assert srv._group(reqs) == reqs[:2]


def _assert_forced_batch_is_bit_identical(csr, bs):
    with Server(workers=1) as srv:
        # Park the dispatcher inside a first request, then flood the queue
        # with same-matrix requests: the next drain takes them as one batch.
        entered, release = threading.Event(), threading.Event()
        execute = srv._execute_group

        def parked(group):
            entered.set()
            assert release.wait(TIMEOUT)
            execute(group)

        srv._execute_group = parked
        big = random_csr(800, 800, 0.05, seed=99)
        rngb = np.random.default_rng(99)
        slow = srv.submit_spmm(big, rngb.standard_normal((800, 64)))
        assert entered.wait(TIMEOUT)
        futures = [srv.submit_spmm(_twin(csr), b) for b in bs]
        release.set()
        slow.result(TIMEOUT)
        results = [f.result(TIMEOUT) for f in futures]
        for b, res in zip(bs, results):
            base = spmm(csr, b)
            np.testing.assert_array_equal(res.values, base.values)
        snap = srv.snapshot()
        assert snap.requests_completed == len(bs) + 1
        # The flood coalesced: fewer passes than requests.
        assert snap.batches_dispatched < snap.requests_completed
        assert snap.requests_coalesced >= 2


def test_forced_batching_is_bit_identical(workload):
    """Pause dispatch deterministically: enqueue while the loop is busy, so
    the drain picks all requests up as one batch."""
    csr, bs, _, _ = workload
    _assert_forced_batch_is_bit_identical(csr, bs)


def test_forced_batching_of_width_one_operands_is_bit_identical(workload):
    """The regression: a per-block matmul routed a solo ``N = 1`` product to
    gemv and the coalesced one to gemm, so the two differed by ~1e-6."""
    csr = workload[0]
    rng = np.random.default_rng(40)
    bs = [rng.standard_normal((csr.shape[1], n)) for n in (1, 5, 1, 33)]
    _assert_forced_batch_is_bit_identical(csr, bs)


def test_metrics_latency_queue_and_cache_counters(workload):
    csr, bs, a, bk = workload
    clear_format_cache()
    with Server(workers=1) as srv:
        for _ in range(3):
            srv.submit_spmm(_twin(csr), bs[0]).result(TIMEOUT)
        srv.submit_sddmm(_twin(csr), a, bk).result(TIMEOUT)
        snap = srv.snapshot()
    assert snap.requests_submitted == 4
    assert snap.requests_completed == 4
    assert snap.requests_failed == 0
    assert snap.in_flight == 0
    assert snap.queue_depth == 0
    assert snap.latency_p50_s > 0.0
    assert snap.latency_p95_s >= snap.latency_p50_s
    assert snap.latency_p99_s >= snap.latency_p95_s
    # The serving path reads the pattern, never a translation: the first
    # request builds the one structure entry, the rest hit it (each twin is
    # a fresh object with the same pattern).
    assert snap.cache.size == 1
    assert snap.cache.structure_hits == 3
    assert snap.cache.misses == 0
    assert snap.meta["workers"] == 1


def test_submit_validates_shapes_and_close_rejects():
    csr = random_csr(64, 60, 0.1, seed=8)
    srv = Server(workers=1)
    with pytest.raises(ValueError):
        srv.submit_spmm(csr, np.ones((61, 4)))
    with pytest.raises(ValueError):
        srv.submit_sddmm(csr, np.ones((64, 4)), np.ones((60, 5)))  # K mismatch
    srv.close()
    with pytest.raises(RuntimeError):
        srv.submit_spmm(csr, np.ones((60, 4)))
    srv.close()  # idempotent


def test_top_level_factory_not_shadowed_by_subpackage():
    """``repro.start_server`` must survive ``repro.serve`` submodule imports
    (a same-named ``repro.serve`` function would be rebound to the package
    module on first import — the reason the factory has a distinct name)."""
    import repro
    import repro.serve.server  # noqa: F401 — binds repro.serve to the module

    assert callable(repro.start_server)
    with repro.start_server(workers=1) as srv:
        csr = random_csr(32, 32, 0.1, seed=1)
        b = np.ones((32, 2))
        res = srv.submit_spmm(csr, b).result(TIMEOUT)
        np.testing.assert_array_equal(res.values, spmm(csr, b).values)


def test_close_drains_queued_requests(workload):
    csr, bs, _, _ = workload
    srv = Server(workers=1)
    futures = [srv.submit_spmm(_twin(csr), b) for b in bs]
    srv.close()  # must resolve everything already queued
    for b, f in zip(bs, futures):
        np.testing.assert_array_equal(f.result(5).values, spmm(csr, b).values)


@pytest.mark.parametrize("backend", ["local", "cluster"])
def test_every_path_returns_the_one_result_type(backend):
    """The API, the kernel entry point and a served request return the same
    result class per op, and name the same kernel."""
    csr = random_csr(60, 50, 0.1, seed=8)
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((60, 4)), rng.standard_normal((50, 4))
    x = rng.standard_normal((50, 3))
    options = {"backend": backend, "hosts": 1} if backend == "cluster" else {}
    with Server(**options) as srv:
        served = (
            srv.submit_spmm(csr, x).result(TIMEOUT),
            srv.submit_sddmm(csr, a, b).result(TIMEOUT),
        )
    spmm_results = [repro.spmm(csr, x), spmm_flash_execute(csr, x), served[0]]
    sddmm_results = [repro.sddmm(csr, a, b), sddmm_flash_execute(csr, a, b), served[1]]
    assert all(type(res) is repro.SpmmResult for res in spmm_results)
    assert all(type(res) is repro.SddmmResult for res in sddmm_results)
    assert {res.kernel for res in spmm_results} == {"flashsparse_spmm"}
    assert {res.kernel for res in sddmm_results} == {"flashsparse_sddmm"}
    np.testing.assert_array_equal(served[0].values, spmm_results[0].values)
    np.testing.assert_array_equal(
        served[1].to_scipy().toarray(), sddmm_results[0].to_scipy().toarray()
    )
