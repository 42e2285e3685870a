"""Cluster plumbing: frame protocol, result assembly, rendezvous routing.

These are the deterministic, socket-pair-level tests of the pieces the
multi-host scheduler is built from; the end-to-end behaviour (real worker
subprocesses, failover) lives in ``test_cluster_scheduler.py``.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.cluster.assembly import SpmmAssembly
from repro.cluster.errors import AssemblyError
from repro.cluster.head import rendezvous_rank
from repro.cluster.transport import (
    MAGIC,
    ConnectionClosedError,
    TransportError,
    recv_message,
    send_message,
)


def _pair():
    a, b = socket.socketpair()
    a.settimeout(10.0)
    b.settimeout(10.0)
    return a, b


# ----------------------------------------------------------------- transport
def test_roundtrip_preserves_header_and_arrays():
    a, b = _pair()
    arrays = [
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.random.default_rng(0).standard_normal((5, 2, 3)).astype(np.float32),
        np.array([], dtype=np.int32),
    ]
    header = {"type": "task", "op": "spmm", "lo": 3, "content_key": "abc"}
    sent_bytes = send_message(a, header, arrays)
    got_header, got_arrays, recv_bytes = recv_message(b)
    assert sent_bytes == recv_bytes
    assert got_header["type"] == "task" and got_header["lo"] == 3
    assert got_header["content_key"] == "abc"
    assert len(got_arrays) == 3
    for sent, got in zip(arrays, got_arrays):
        assert got.dtype == sent.dtype and got.shape == sent.shape
        np.testing.assert_array_equal(got, sent)
    # Received arrays are writable (they back in-place kernel inputs).
    got_arrays[0][0, 0] = 99
    a.close(), b.close()


def test_roundtrip_without_arrays():
    a, b = _pair()
    send_message(a, {"type": "ping"})
    header, arrays, _ = recv_message(b)
    assert header["type"] == "ping" and arrays == []
    a.close(), b.close()


def test_multiple_frames_on_one_stream():
    a, b = _pair()
    for i in range(5):
        send_message(a, {"type": "task", "i": i}, [np.full((2, 2), i, np.float32)])
    for i in range(5):
        header, arrays, _ = recv_message(b)
        assert header["i"] == i
        np.testing.assert_array_equal(arrays[0], np.full((2, 2), i, np.float32))
    a.close(), b.close()


def test_noncontiguous_array_roundtrips():
    a, b = _pair()
    base = np.arange(24, dtype=np.float32).reshape(4, 6)
    sliced = base[:, ::2]  # non-contiguous view
    send_message(a, {"type": "task"}, [sliced])
    _, arrays, _ = recv_message(b)
    np.testing.assert_array_equal(arrays[0], sliced)
    a.close(), b.close()


def test_bad_magic_rejected():
    a, b = _pair()
    a.sendall(b"XXXX" + bytes(20))
    with pytest.raises(TransportError):
        recv_message(b)
    a.close(), b.close()


def test_clean_eof_at_frame_boundary_is_connection_closed():
    a, b = _pair()
    a.close()
    with pytest.raises(ConnectionClosedError):
        recv_message(b)
    b.close()


def test_mid_frame_eof_is_transport_error():
    a, b = _pair()
    # A valid prefix announcing a 100-byte header, then death.
    a.sendall(struct.Struct("!4sBBI").pack(MAGIC, 1, 0, 100))
    a.close()
    with pytest.raises(TransportError):
        recv_message(b)
    b.close()


def test_buffer_length_must_match_descriptor():
    a, b = _pair()

    def sender():
        # Hand-build a frame whose buffer is shorter than dtype/shape imply.
        import json

        header = json.dumps(
            {"type": "task", "arrays": [{"dtype": "<f4", "shape": [4]}]}
        ).encode()
        a.sendall(struct.Struct("!4sBBI").pack(MAGIC, 1, 1, len(header)))
        a.sendall(header)
        a.sendall(struct.Struct("!Q").pack(8))  # 8 bytes, but shape says 16
        a.sendall(bytes(8))

    t = threading.Thread(target=sender)
    t.start()
    with pytest.raises(TransportError):
        recv_message(b)
    t.join()
    a.close(), b.close()


# ------------------------------------------------------------------ assembly
def test_spmm_assembly_places_and_clips_rows():
    asm = SpmmAssembly(n_rows=10, n_dense=3, num_shards=2)
    asm.add(0, 0, np.ones((4, 3), np.float32))
    # Tail shard overruns n_rows by 2: clipped like the shm scatter.
    asm.add(1, 4, np.full((8, 3), 2.0, np.float32))
    out = asm.result()
    np.testing.assert_array_equal(out[:4], 1.0)
    np.testing.assert_array_equal(out[4:], 2.0)


def test_spmm_assembly_rejects_overlap_duplicate_and_missing():
    asm = SpmmAssembly(n_rows=8, n_dense=2, num_shards=3)
    asm.add(0, 0, np.ones((4, 2), np.float32))
    with pytest.raises(AssemblyError):  # overlapping rows
        asm.add(1, 2, np.ones((2, 2), np.float32))
    with pytest.raises(AssemblyError):  # duplicate shard id
        asm.add(0, 4, np.ones((2, 2), np.float32))
    with pytest.raises(AssemblyError, match="twice"):  # identical re-delivery
        asm.add(0, 0, np.ones((4, 2), np.float32))
    with pytest.raises(AssemblyError):  # unknown shard id
        asm.add(7, 6, np.ones((2, 2), np.float32))
    asm2 = SpmmAssembly(n_rows=8, n_dense=2, num_shards=2)
    asm2.add(0, 0, np.ones((4, 2), np.float32))
    with pytest.raises(AssemblyError):  # shard 1 never arrived
        asm2.result()


def test_sddmm_assembly_scatters_disjoint_vectors():
    """SDDMM shards place like SpMM's: each owns the contiguous run of
    nonzero vectors ``window_ptr[w0]:window_ptr[w1]`` of ``vector_values``."""
    asm = SpmmAssembly(6, 8, num_shards=2)  # out_shape = (vectors, v)
    asm.add(1, 3, np.full((2, 8), 2.0, np.float32))  # arrival order is free
    asm.add(0, 0, np.full((2, 8), 1.0, np.float32))
    out = asm.result()
    np.testing.assert_array_equal(out[0:2], 1.0)
    np.testing.assert_array_equal(out[3:5], 2.0)
    np.testing.assert_array_equal(out[[2, 5]], 0.0)


def test_sddmm_assembly_rejects_overlap_and_range():
    asm = SpmmAssembly(6, 4, num_shards=2)
    asm.add(0, 0, np.ones((2, 4), np.float32))
    with pytest.raises(AssemblyError):  # vector 1 written twice
        asm.add(1, 1, np.ones((2, 4), np.float32))
    asm2 = SpmmAssembly(6, 4, num_shards=1)
    with pytest.raises(AssemblyError):  # slab starts past the last vector
        asm2.add(0, 6, np.ones((1, 4), np.float32))
    with pytest.raises(AssemblyError):  # slab of the wrong vector size
        asm2.add(0, 0, np.ones((1, 8), np.float32))


# ---------------------------------------------------------------- rendezvous
def test_rendezvous_is_deterministic_and_total():
    hosts = [f"host-{i}" for i in range(4)]
    rank1 = rendezvous_rank("some-content-key", hosts)
    rank2 = rendezvous_rank("some-content-key", list(reversed(hosts)))
    assert rank1 == rank2  # input order is irrelevant
    assert sorted(rank1) == sorted(hosts)  # a total order over the hosts


def test_rendezvous_spreads_keys_roughly_evenly():
    hosts = [f"host-{i}" for i in range(4)]
    counts = {h: 0 for h in hosts}
    for k in range(2000):
        counts[rendezvous_rank(f"key-{k}", hosts)[0]] += 1
    for h, n in counts.items():
        assert 350 <= n <= 650, f"{h} got {n}/2000 keys — far from uniform"


def test_rendezvous_removal_only_moves_the_dead_hosts_keys():
    hosts = [f"host-{i}" for i in range(4)]
    survivors = [h for h in hosts if h != "host-2"]
    moved = same = 0
    for k in range(500):
        key = f"key-{k}"
        before = rendezvous_rank(key, hosts)[0]
        after = rendezvous_rank(key, survivors)[0]
        if before == "host-2":
            moved += 1
        else:
            assert after == before  # survivors keep their keys
            same += 1
    assert moved > 0 and same > 0
