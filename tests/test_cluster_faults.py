"""Fault-injection harness unit behaviour + worker malformed-input hardening.

First half: :class:`FaultPlan` / :class:`FaultSocket` over plain
socketpairs — each named fault fires at its scheduled frame, with the
scheduled effect, deterministically under a seed.  Second half (ISSUE
satellite): a worker host fed garbage — truncated frame mid-buffer,
corrupt JSON header, oversized declaration — must drop that connection
and be back at ``accept`` for the next one, with the oversized rejection
counted in its status frames.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.cluster.transport import (
    _BUF_LEN,
    _PREFIX,
    CHUNK_BYTES,
    MAGIC,
    VERSION,
    ConnectionClosedError,
    FrameIntegrityError,
    FrameTooLargeError,
    TransportError,
    client_handshake,
    recv_message,
    send_message,
)
from repro.cluster.worker import run_worker
from repro.testing import FaultPlan

TIMEOUT = 30


def _pair():
    a, b = socket.socketpair()
    a.settimeout(TIMEOUT)
    b.settimeout(TIMEOUT)
    return a, b


# ------------------------------------------------------------ FaultSocket
def test_drop_connection_fires_at_the_scheduled_frame():
    plan = FaultPlan(seed=0).drop_connection(nth=2, type="task")
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")
    send_message(wrapped, {"type": "task", "n": 1})  # frame 1 passes
    header, _, _ = recv_message(b)
    assert header["n"] == 1
    with pytest.raises(ConnectionClosedError):
        send_message(wrapped, {"type": "task", "n": 2})  # frame 2 drops
    assert plan.fired_kinds() == ["drop_connection"]
    b.close()


def test_frame_type_filter_skips_heartbeat_noise():
    """A schedule aimed at task frames must not advance on pings — frame
    counting is what keeps fault schedules deterministic under heartbeats."""
    plan = FaultPlan(seed=0).drop_connection(nth=1, type="task")
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")
    for _ in range(3):
        send_message(wrapped, {"type": "ping"})
        recv_message(b)
    assert plan.fired_kinds() == []
    with pytest.raises(ConnectionClosedError):
        send_message(wrapped, {"type": "task"})
    b.close()


def test_scope_filter_isolates_hosts():
    plan = FaultPlan(seed=0).drop_connection(nth=1, type="task", scope="h1")
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")  # different scope: fault never fires
    send_message(wrapped, {"type": "task"})
    recv_message(b)
    assert plan.fired_kinds() == []
    a.close(), b.close()


def test_delay_send_sleeps_the_scheduled_milliseconds():
    plan = FaultPlan(seed=0).delay_send(120, nth=1, type="task")
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")
    t0 = time.perf_counter()
    send_message(wrapped, {"type": "task"})
    elapsed = time.perf_counter() - t0
    recv_message(b)
    assert elapsed >= 0.12
    assert plan.fired_kinds() == ["delay_send"]
    a.close(), b.close()


def test_worker_end_fires_only_frame_typed_send_faults():
    """One plan serves both ends: the worker end (``socket_wrapper``)
    applies the faults aimed at a frame type it sends and leaves recv-side
    and untyped faults to the head."""
    plan = (
        FaultPlan(seed=0)
        .drop_connection(nth=1, side="recv")
        .drop_connection(nth=1, type=None)
        .corrupt_checksum(nth=1, type="result")
    )
    a, b = _pair()
    wrapped = plan.socket_wrapper(scope="h0")(a)
    send_message(b, {"type": "task"})
    recv_message(wrapped)  # the recv-side drop is the head's
    send_message(wrapped, {"type": "pong"})  # so is the untyped drop
    recv_message(b)
    send_message(wrapped, {"type": "result"}, [np.arange(4, dtype=np.float32)])
    with pytest.raises(FrameIntegrityError):
        recv_message(b)
    assert plan.fired_kinds() == ["corrupt_checksum"]
    a.close(), b.close()


def test_an_unpickled_worker_end_fires_its_own_copy_of_the_plan():
    """A host started by spawn receives its wrapper pickled: the copy
    carries the armed fault and a lock of its own, and what it fires is
    logged in the copy, not in the head's plan."""
    plan = FaultPlan(seed=0).corrupt_checksum(nth=1, type="result")
    copy = pickle.loads(pickle.dumps(plan.socket_wrapper(scope="h0")))
    a, b = _pair()
    send_message(copy(a), {"type": "result"}, [np.arange(4, dtype=np.float32)])
    with pytest.raises(FrameIntegrityError):
        recv_message(b)
    assert copy.plan.fired_kinds() == ["corrupt_checksum"]
    assert plan.fired == []
    a.close(), b.close()


def test_truncate_frame_leaves_peer_with_midframe_eof():
    plan = FaultPlan(seed=0).truncate_frame(nth=1, type="task")
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")
    with pytest.raises(ConnectionClosedError):
        send_message(wrapped, {"type": "task", "payload": "x" * 64})
    with pytest.raises(TransportError, match="mid-frame"):
        recv_message(b)
    b.close()


def _send_in_thread(sock, header, arrays):
    """``send_message`` from a thread (a multi-chunk frame outgrows the
    socketpair's buffer); returns the thread and a box for its outcome."""
    box = {}

    def send():
        try:
            box["sent"] = send_message(sock, header, arrays)
        except TransportError as exc:
            box["error"] = exc

    thread = threading.Thread(target=send, daemon=True)
    thread.start()
    return thread, box


def test_multi_chunk_buffers_stream_their_checksum():
    a, b = _pair()
    big = np.arange(3 * CHUNK_BYTES // 4 + 17, dtype=np.float32)  # 4 chunks
    thread, box = _send_in_thread(a, {"type": "task"}, [big, big[:5]])
    header, arrays, received = recv_message(b)
    thread.join(TIMEOUT)
    assert box["sent"] == received
    np.testing.assert_array_equal(arrays[0], big)
    np.testing.assert_array_equal(arrays[1], big[:5])
    a.close(), b.close()


def test_payload_fault_targets_its_buffer_whatever_the_chunk_count():
    """The wrapper learns buffer boundaries from the transport, not by
    counting ``sendall`` calls: buffer 1 is hit even behind a buffer 0 that
    is written in several chunks."""
    plan = FaultPlan(seed=21).corrupt_payload(nth=1, type="task", buffer=1)
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")
    big = np.zeros(CHUNK_BYTES // 2 + 3, dtype=np.float32)  # 3 chunks
    thread, _ = _send_in_thread(wrapped, {"type": "task"}, [big, np.ones(8, np.float32)])
    with pytest.raises(FrameIntegrityError, match="buffer 1"):
        recv_message(b)
    thread.join(TIMEOUT)
    a.close(), b.close()


@pytest.mark.parametrize(
    "fault, error, match",
    [
        (dict(kind="corrupt_checksum"), FrameIntegrityError, "CRC32"),
        (dict(kind="truncate_frame", at="buffer"), TransportError, "mid-frame"),
        (dict(kind="truncate_frame", at="trailer"), TransportError, "mid-frame"),
    ],
    ids=["lying-trailer", "cut-inside-buffer", "missing-trailer"],
)
def test_streamed_buffer_faults_are_transport_errors(fault, error, match):
    """A lying trailer, a stream cut inside a streamed buffer and a buffer
    whose trailer never comes: each is a :class:`TransportError` subclass
    on the receiving side, never arrays."""
    params = dict(fault)
    plan = getattr(FaultPlan(seed=22), params.pop("kind"))(nth=1, type="task", buffer=1, **params)
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")
    big = np.arange(CHUNK_BYTES // 2 + 3, dtype=np.float32)  # 3 chunks
    thread, _ = _send_in_thread(wrapped, {"type": "task"}, [np.ones(4, np.float32), big])
    with pytest.raises(error, match=match):
        recv_message(b)
    thread.join(TIMEOUT)
    assert not thread.is_alive()
    assert len(plan.fired) == 1
    a.close(), b.close()


def test_corrupt_header_is_undecodable_and_seeded():
    plan = FaultPlan(seed=42).corrupt_header(nth=1, type="task")
    a, b = _pair()
    wrapped = plan.wrap(a, scope="h0")
    send_message(wrapped, {"type": "task", "payload": "y" * 64})
    with pytest.raises(TransportError, match="undecodable"):
        recv_message(b)
    assert plan.fired_kinds() == ["corrupt_header"]
    # Seeded corruption is replayable.
    assert FaultPlan(seed=42).corruption(4) == FaultPlan(seed=42).corruption(4)
    assert FaultPlan(seed=42).corruption(4) != FaultPlan(seed=43).corruption(4)
    a.close(), b.close()


def test_refuse_connect_budget_and_kill_host_schedule():
    plan = FaultPlan(seed=0).refuse_connect(2, scope="h0").kill_host(step=3, host="h1")
    for _ in range(2):
        with pytest.raises(ConnectionRefusedError):
            plan.check_connect(scope="h0")
    plan.check_connect(scope="h0")  # budget spent: passes
    plan.check_connect(scope="other")  # never matched
    assert plan.actions_at(2) == []
    assert plan.actions_at(3) == [("kill_host", "h1")]
    assert plan.actions_at(9) == []  # one-shot
    assert plan.fired_kinds() == ["refuse_connect", "refuse_connect", "kill_host"]


def test_recv_message_enforces_per_connection_frame_limit():
    a, b = _pair()
    send_message(a, {"type": "task"}, [np.zeros(4096, np.float32)])
    with pytest.raises(FrameTooLargeError, match="max_frame_bytes"):
        recv_message(b, max_frame_bytes=1024)
    a.close(), b.close()


# --------------------------------------- worker malformed-input hardening
@pytest.fixture()
def worker():
    """One worker host in a daemon thread; yields its address."""
    box = {}
    ready = threading.Event()

    def announce(addr):
        box["addr"] = addr
        ready.set()

    thread = threading.Thread(
        target=run_worker,
        kwargs={"host": "127.0.0.1", "port": 0, "ready": announce, "max_frame_bytes": 1 << 20},
        daemon=True,
    )
    thread.start()
    assert ready.wait(TIMEOUT), "worker never announced its address"
    yield box["addr"]
    # Clean shutdown so the thread (and its listener) exits.
    conn = _connect(box["addr"])
    send_message(conn, {"type": "shutdown"})
    recv_message(conn)
    conn.close()
    thread.join(TIMEOUT)
    assert not thread.is_alive()


def _connect(address) -> socket.socket:
    """Dial the worker and clear its connection handshake (v2 transport:
    nothing else flows on a fresh stream until the handshake passes)."""
    conn = socket.create_connection(address, timeout=TIMEOUT)
    conn.settimeout(TIMEOUT)
    client_handshake(conn)
    return conn


def _ping(address) -> dict:
    conn = _connect(address)
    send_message(conn, {"type": "ping"})
    header, _, _ = recv_message(conn)
    conn.close()
    assert header["type"] == "pong"
    return header


def test_worker_survives_truncated_frame_mid_buffer(worker):
    conn = _connect(worker)
    header = b'{"type":"task","arrays":[{"dtype":"<f4","shape":[25],"crc32":0}]}'
    conn.sendall(_PREFIX.pack(MAGIC, VERSION, 1, len(header)) + header)
    conn.sendall(_BUF_LEN.pack(100) + b"\x00" * 10)  # 10 of 100 bytes, then gone
    conn.close()
    assert _ping(worker)["type"] == "pong"  # back at accept, cache intact


def test_worker_survives_corrupt_json_header(worker):
    conn = _connect(worker)
    garbage = b"\xff" * 32  # declared as header, not valid UTF-8/JSON
    conn.sendall(_PREFIX.pack(MAGIC, VERSION, 0, len(garbage)) + garbage)
    conn.close()
    assert _ping(worker)["type"] == "pong"


def test_worker_rejects_oversized_declaration_and_keeps_serving(worker):
    conn = _connect(worker)
    # A tiny header followed by a buffer declaring 1 GiB: the worker must
    # refuse *before* allocating and drop the connection.
    header = b'{"type":"task","arrays":[{"dtype":"<f4","shape":[268435456],"crc32":0}]}'
    conn.sendall(_PREFIX.pack(MAGIC, VERSION, 1, len(header)) + header)
    conn.sendall(_BUF_LEN.pack(1 << 30))
    # The worker closes on us rather than reading the (never-sent) payload.
    conn.settimeout(TIMEOUT)
    assert conn.recv(1) == b""
    conn.close()
    status = _ping(worker)
    assert status["frames_oversized"] == 1  # counted in the status frames


def test_worker_fault_wrapper_hook():
    """`run_worker(socket_wrapper=...)` threads a FaultPlan into the
    worker side: a worker-side recv drop resets the head's connection.

    The wrapper sits below the handshake, so the hello the worker reads is
    recv frame 1 on its schedule — the first post-handshake ping is frame 2.
    """
    plan = FaultPlan(seed=9).drop_connection(nth=3, side="recv", scope="w0")
    box = {}
    ready = threading.Event()

    def announce(addr):
        box["addr"] = addr
        ready.set()

    thread = threading.Thread(
        target=run_worker,
        kwargs={
            "host": "127.0.0.1",
            "port": 0,
            "ready": announce,
            "socket_wrapper": lambda c: plan.wrap(c, scope="w0"),
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(TIMEOUT)
    conn = _connect(box["addr"])  # handshake hello = worker recv frame 1
    send_message(conn, {"type": "ping"})
    assert recv_message(conn)[0]["type"] == "pong"  # frame 2 served
    # The worker counts its 3rd recv frame and drops before reading it, so
    # our 2nd ping fails on send or on the reply read, depending on timing.
    with pytest.raises((TransportError, OSError)):
        send_message(conn, {"type": "ping"})
        recv_message(conn)
    conn.close()
    assert plan.fired_kinds() == ["drop_connection"]
    # The worker survived its own injected drop and serves the next
    # connection (frame counting continues on the new wrapper).
    conn = _connect(box["addr"])
    send_message(conn, {"type": "shutdown"})
    recv_message(conn)
    conn.close()
    thread.join(TIMEOUT)
    assert not thread.is_alive()
