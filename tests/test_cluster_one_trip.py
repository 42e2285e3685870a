"""One trip per shard: pushes ride the task frame, one-shot panels skip
the digest, and the pin store holds matrices, not dead panels.

The keying rule under test (see :meth:`ClusterScheduler._operand_keys`):
a dense panel gets a sha256 content key only when its source array is an
object the head saw in an earlier request; any other panel gets a
request-scoped key, is pushed once per host per request and is released
by the request's last task there.  Every result stays bit-identical to
the in-process one.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from helpers import random_csr

from repro import sddmm, spmm
from repro.cluster import ClusterScheduler, head, store
from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.engine import SHARD_OPS
from repro.precision.types import Precision, quantize
from repro.serve import Server
from repro.serve.scheduler import ShardScheduler

TIMEOUT = 120


@pytest.fixture()
def frames(monkeypatch):
    """Every task frame the head sends, as ``(header, pushed)`` with
    ``pushed`` the ``(key, arrays)`` bundles it carried."""
    sent = []
    real_send = head.send_message

    def spy(sock, header, arrays=()):
        if header.get("type") == "task":
            pushed, offset = [], 0
            for key, count in header["push"]:
                pushed.append((key, list(arrays[offset : offset + count])))
                offset += count
            sent.append((header, pushed))
        return real_send(sock, header, arrays)

    monkeypatch.setattr(head, "send_message", spy)
    return sent


@pytest.fixture()
def digests(monkeypatch):
    """Calls of the operand content key and of the digest beneath it."""
    calls = {"operand_store_key": 0, "digest16": 0}
    real_key, real_digest = head.operand_store_key, store.digest16

    def key(*args, **kwargs):
        calls["operand_store_key"] += 1
        return real_key(*args, **kwargs)

    def digest(*args, **kwargs):
        calls["digest16"] += 1
        return real_digest(*args, **kwargs)

    monkeypatch.setattr(head, "operand_store_key", key)
    monkeypatch.setattr(store, "digest16", digest)
    return calls


def _matrix(seed=90, rows=160, cols=150):
    return random_csr(rows, cols, 0.06, seed=seed)


def _operand_keys(pushed) -> list[str]:
    return [key for key, _ in pushed if key.startswith(("op/", "req/"))]


def test_first_seen_panel_makes_no_digest_call(frames, digests):
    csr = _matrix()
    rng = np.random.default_rng(90)
    with Server(backend="cluster", hosts=1) as srv:
        for _ in range(3):
            b = rng.standard_normal((csr.shape[1], 8)).astype(np.float32)
            served = srv.submit_spmm(csr, b).result(TIMEOUT)
            np.testing.assert_array_equal(served.values, spmm(csr, b).values)
    assert digests == {"operand_store_key": 0, "digest16": 0}
    keys = [key for _, pushed in frames for key in _operand_keys(pushed)]
    assert len(keys) == 3 and all(key.startswith("req/") for key in keys)


def test_repeated_source_gets_a_content_key_and_ships_once(frames, digests):
    csr = _matrix(seed=91)
    b = np.random.default_rng(91).standard_normal((csr.shape[1], 8)).astype(np.float32)
    expected = spmm(csr, b).values
    requests = []
    with Server(backend="cluster", hosts=1) as srv:
        for _ in range(3):
            np.testing.assert_array_equal(srv.submit_spmm(csr, b).result(TIMEOUT).values, expected)
            requests.append([bundle for _, pushed in frames for bundle in pushed])
            frames.clear()
    first, second, third = requests
    # First sighting: request-scoped, no digest.  Second: the object is a
    # repeat, so it is content-keyed and pinned.  Third: nothing ships.
    assert [key[:4] for key in _operand_keys(first)] == ["req/"]
    assert [key[:3] for key in _operand_keys(second)] == ["op/"]
    assert third == []
    assert digests["operand_store_key"] == 2


def test_sddmm_results_ship_one_value_per_entry(monkeypatch):
    """An SDDMM shard returns its CSR entries' values, not a slab of
    ``vector_values``: a request's result buffers total ``4 · nnz`` bytes."""
    received = []
    real_recv = head.recv_message

    def spy(*args, **kwargs):
        header, arrays, nbytes = real_recv(*args, **kwargs)
        if header.get("type") == "result":
            received.append(sum(array.nbytes for array in arrays))
        return header, arrays, nbytes

    monkeypatch.setattr(head, "recv_message", spy)
    csr = _matrix(seed=96)
    rng = np.random.default_rng(96)
    a = rng.standard_normal((csr.shape[0], 6)).astype(np.float32)
    b = rng.standard_normal((csr.shape[1], 6)).astype(np.float32)
    with Server(backend="cluster", hosts=1) as srv:
        served = srv.submit_sddmm(csr, a, b).result(TIMEOUT)
    np.testing.assert_array_equal(
        served.output.vector_values, sddmm(csr, a, b).output.vector_values
    )
    assert received and sum(received) == 4 * csr.nnz
    assert 4 * csr.nnz < served.output.vector_values.nbytes


def test_layer_with_a_is_b_ships_one_bundle(frames):
    csr = _matrix(seed=92, rows=150, cols=150)
    rng = np.random.default_rng(92)
    a = rng.standard_normal((150, 6)).astype(np.float32)
    x = rng.standard_normal((150, 5)).astype(np.float32)
    with Server() as local:
        expected = local.submit_layer(csr, a, a, x, scale=0.5).result(TIMEOUT).values
    with Server(backend="cluster", hosts=1) as srv:
        served = srv.submit_layer(csr, a, a, x, scale=0.5).result(TIMEOUT)
    np.testing.assert_array_equal(served.values, expected)
    header, pushed = frames[0]
    a_key, b_key, x_key = header["store_operands"]
    assert a_key == b_key != x_key
    assert _operand_keys(pushed) == [a_key, x_key]


def test_four_shard_direct_run_spmm_ships_each_panel_once(frames):
    csr = random_csr(400, 300, 0.05, seed=93)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    b_q = quantize(np.random.default_rng(93).standard_normal((300, 16)), Precision.FP16)
    base = ShardScheduler().run_spmm(fmt, b_q, Precision.FP16, csr)
    # The smallest shard size that window alignment cuts into four shards.
    target = next(
        t for t in range(1, 10_000) if len(SHARD_OPS["spmm"].plan(fmt, [b_q], None, 4, t)[0]) == 4
    )
    with ClusterScheduler(hosts=1) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=target, csr=csr)
        snap = sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)
    assert snap["shards"] == snap["tasks_sent"] == len(frames) == 4
    # A direct caller names no sources: the panel is content-keyed.  The
    # first frame pushes pattern, values and panel; the other three only
    # name them.
    assert [key.split("/")[0] for key, _ in frames[0][1]] == ["struct", "vals", "op"]
    assert all(pushed == [] for _, pushed in frames[1:])
    pushed = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes + b_q.nbytes
    assert snap["store_puts"] == 3 and snap["store_put_bytes"] == pushed
    task = snap["bytes_by_frame_type"]["task"]["sent"]
    assert pushed < task < pushed + 4 * 2048


def test_one_shot_requests_leave_only_matrices_pinned(monkeypatch):
    """After 50 one-shot requests the pin store holds the matrix's two
    bundles and nothing else: every request-scoped panel was released by
    its request's last task."""
    pongs = []
    real_recv = head.recv_message

    def spy(sock, max_frame_bytes=None):
        reply = real_recv(sock, max_frame_bytes=max_frame_bytes)
        if reply[0].get("type") == "pong":
            pongs.append(reply[0])
        return reply

    monkeypatch.setattr(head, "recv_message", spy)
    csr = _matrix(seed=94, rows=120, cols=100)
    rng = np.random.default_rng(94)
    options = dict(heartbeat_interval_s=0.05)
    with Server(backend="cluster", hosts=1, cluster_options=options) as srv:
        for _ in range(50):
            b = rng.standard_normal((100, 4)).astype(np.float32)
            srv.submit_spmm(csr, b).result(TIMEOUT)
        # The idle host is pinged within a heartbeat interval.
        before = len(pongs)
        deadline = time.monotonic() + TIMEOUT / 4
        while len(pongs) == before:
            assert time.monotonic() < deadline, "no heartbeat reached the host"
            time.sleep(0.05)
    pong = pongs[-1]
    assert not [key for key in pong["store_keys"] if key.startswith("req/")]
    assert sorted(key.split("/")[0] for key in pong["store_keys"]) == ["struct", "vals"]
    matrix_bytes = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
    assert pong["store"]["pinned_bytes"] == matrix_bytes


def test_repeat_tasks_do_not_churn_the_worker_cache():
    """The worker finds a pinned matrix's translation by the header's
    content key: a hit builds no CSR and leaves no identity alias, so
    repeat tasks neither grow the cache nor evict from it."""
    csr = _matrix(seed=95)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    b_q = quantize(np.random.default_rng(95).standard_normal((150, 8)), Precision.FP16)
    base = ShardScheduler().run_spmm(fmt, b_q, Precision.FP16, csr)
    sizes = []
    with ClusterScheduler(hosts=1) as sched:
        for _ in range(40):  # 80 tasks: more than the cache's 32 entries
            out = sched.run_spmm(fmt, b_q, Precision.FP16, csr=csr)
            np.testing.assert_array_equal(out, base)
            (host,) = sched.stats_snapshot()["hosts"].values()
            sizes.append(host["cache"]["size"])
    assert host["cache"]["evictions"] == 0
    assert host["cache"]["misses"] == 1
    assert len(set(sizes)) == 1
