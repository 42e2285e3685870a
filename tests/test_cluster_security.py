"""Trusted data plane: handshake auth, TLS, payload integrity, recovery.

The transport's security contract, end to end:

* the HELLO/CHALLENGE handshake admits the right token and rejects the
  wrong one — and a rejected peer never wedges the worker's accept loop;
* a peer writing any other protocol version byte receives a *structured*
  reject frame it can parse, not a hang — and a frame with a foreign
  version byte on an established connection never reaches a kernel;
* TLS-wrapped clusters produce bit-identical results to plaintext ones;
* a corrupted frame — payload bit-flip or a lying checksum — surfaces as
  :class:`FrameIntegrityError`, is counted, and the request still
  completes **bit-identically** with zero failed shards (the corruption
  costs a retry, never numerics);
* transport byte accounting covers handshakes and rejected frames, and
  the oversized-declaration pre-scan names the offending descriptor.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from helpers import random_csr, raw_frame, scripted_worker

from repro.cluster import ClusterScheduler
from repro.cluster.transport import (
    _PREFIX,
    MAGIC,
    VERSION,
    AuthenticationError,
    FrameIntegrityError,
    FrameTooLargeError,
    HandshakeError,
    RetryPolicy,
    TransportError,
    VersionMismatchError,
    client_handshake,
    make_client_ssl_context,
    recv_message,
    send_message,
    server_handshake,
)
from repro.cluster.worker import run_worker
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK as FLASH_GROUP
from repro.kernels.sddmm_tcu16 import VECTORS_PER_OUTPUT_BLOCK as TCU16_GROUP
from repro.precision.types import Precision, quantize
from repro.serve.scheduler import ShardScheduler
from repro.testing import FaultPlan, loopback_tls_files, tls_available

TIMEOUT = 30
TOKEN = "test-cluster-secret"

_FORMATS = {
    "mebcrs": (MEBCRSMatrix, FLASH_GROUP),
    "sgt16": (SGT16Matrix, TCU16_GROUP),
}


def _workload(fmt_name="mebcrs", seed=21, n=9, rows=180, cols=170, density=0.06):
    cls, group = _FORMATS[fmt_name]
    csr = random_csr(rows, cols, density, seed=seed)
    fmt = cls.from_csr(csr, precision="fp16")
    rng = np.random.default_rng(seed)
    b_q = quantize(rng.standard_normal((cols, n)), Precision.FP16).astype(np.float32)
    a_q = quantize(rng.standard_normal((rows, n)), Precision.FP16).astype(np.float32)
    ref = ShardScheduler()
    base = ref.run_spmm(fmt, b_q, Precision.FP16, csr)
    sbase = ref.run_sddmm(fmt, a_q, b_q, Precision.FP16, group, csr)
    return csr, fmt, group, a_q, b_q, base, sbase


def _pair():
    a, b = socket.socketpair()
    a.settimeout(TIMEOUT)
    b.settimeout(TIMEOUT)
    return a, b


def _handshake_pair(client_token, server_token):
    """Run both handshake sides over a socketpair; returns (client, server)
    outcomes — a (sent, received) byte-count tuple on success, the
    exception on failure."""
    a, b = _pair()
    out = {}

    def server():
        try:
            out["server"] = server_handshake(b, auth_token=server_token)
        except Exception as exc:  # noqa: BLE001 - recorded for assertions
            out["server"] = exc

    thread = threading.Thread(target=server)
    thread.start()
    try:
        out["client"] = client_handshake(a, auth_token=client_token)
    except Exception as exc:  # noqa: BLE001
        out["client"] = exc
    finally:
        # Mirror production: a client whose handshake failed hangs up at
        # once (the head's dial path closes on any handshake exception),
        # which is what unblocks a server still waiting on a hello.
        a.close()
    thread.join(TIMEOUT)
    b.close()
    return out["client"], out["server"]


# ---------------------------------------------------------------- handshake
def test_handshake_happy_path_counts_bytes():
    client, server = _handshake_pair(TOKEN, TOKEN)
    c_sent, c_received = client
    s_sent, s_received = server
    assert c_sent > 0 and c_received > 0
    # Byte totals mirror each other exactly: what one side sent, the
    # other received — the reconciliation the accounting satellite needs.
    assert (c_sent, c_received) == (s_received, s_sent)


def test_handshake_open_mode_without_token():
    client, server = _handshake_pair(None, None)
    assert isinstance(client, tuple) and isinstance(server, tuple)


def test_wrong_token_rejected_both_sides():
    client, server = _handshake_pair("wrong-" + TOKEN, TOKEN)
    assert isinstance(client, AuthenticationError)  # structured reject parsed
    assert isinstance(server, AuthenticationError)


def test_missing_token_fails_before_sending_credentials():
    client, server = _handshake_pair(None, TOKEN)
    assert isinstance(client, AuthenticationError)
    # The client saw ``auth_required`` in the challenge and bailed without
    # a hello; the server observes the hung-up stream as a handshake loss.
    assert isinstance(server, HandshakeError)


def test_legacy_peer_sending_tasks_directly_gets_protocol_reject():
    """A peer that ignores the challenge and opens with a
    task frame is told so, structurally."""
    a, b = _pair()
    errs = {}

    def server():
        try:
            server_handshake(b)
        except Exception as exc:  # noqa: BLE001
            errs["server"] = exc

    thread = threading.Thread(target=server)
    thread.start()
    recv_message(a)  # the challenge, ignored
    send_message(a, {"type": "ping"})
    reject, _, _ = recv_message(a)
    thread.join(TIMEOUT)
    assert reject["type"] == "reject" and reject["reason"] == "protocol"
    assert isinstance(errs["server"], HandshakeError)
    a.close(), b.close()


# ------------------------------------------------------------ worker listener
@pytest.fixture()
def auth_worker():
    """A token-guarded worker host in a daemon thread; yields its address."""
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
            "auth_token": TOKEN,
            "handshake_timeout_s": TIMEOUT,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(TIMEOUT), "worker never announced its address"
    yield box["addr"]
    conn = socket.create_connection(box["addr"], timeout=TIMEOUT)
    conn.settimeout(TIMEOUT)
    client_handshake(conn, auth_token=TOKEN)
    send_message(conn, {"type": "shutdown"})
    recv_message(conn)
    conn.close()
    thread.join(TIMEOUT)
    assert not thread.is_alive()


def _authed_status(address) -> dict:
    """Dial the worker with the right token and read one pong (its gauges)."""
    conn = socket.create_connection(address, timeout=TIMEOUT)
    conn.settimeout(TIMEOUT)
    client_handshake(conn, auth_token=TOKEN)
    send_message(conn, {"type": "ping"})
    header, _, _ = recv_message(conn)
    conn.close()
    return header


def test_worker_rejects_wrong_token_and_keeps_serving(auth_worker):
    conn = socket.create_connection(auth_worker, timeout=TIMEOUT)
    conn.settimeout(TIMEOUT)
    with pytest.raises(AuthenticationError):
        client_handshake(conn, auth_token="not-the-token")
    conn.close()
    # The listener survived the reject and serves the next (authorised)
    # connection, with the reject counted in its status frames.
    header = _authed_status(auth_worker)
    assert header["type"] == "pong"
    assert header["security"]["auth_rejects"] == 1
    assert header["security"]["integrity_failures"] == 0


def test_worker_counts_garbage_handshake_and_keeps_serving(auth_worker):
    conn = socket.create_connection(auth_worker, timeout=TIMEOUT)
    conn.settimeout(TIMEOUT)
    recv_message(conn)  # the challenge
    conn.sendall(_PREFIX.pack(b"NOPE", VERSION, 0, 0))  # not our protocol
    assert conn.recv(1) == b""  # dropped, no hang
    conn.close()
    header = _authed_status(auth_worker)
    assert header["security"]["handshake_failures"] == 1


def test_version_mismatch_peer_gets_structured_reject_not_a_hang(auth_worker):
    """One protocol, one rule: a hello whose prefix carries any other
    version byte is answered with a parseable ``reject`` (reason
    ``version``) and dropped — counted, and the next accept is served."""
    conn = socket.create_connection(auth_worker, timeout=TIMEOUT)
    conn.settimeout(TIMEOUT)
    challenge, _, _ = recv_message(conn)
    assert challenge["type"] == "challenge" and challenge["version"] == VERSION
    conn.sendall(raw_frame(VERSION + 1, {"type": "hello", "arrays": []}))
    reject, _, _ = recv_message(conn)  # parseable and structured, not a hang
    assert reject["type"] == "reject" and reject["reason"] == "version"
    assert reject["version"] == VERSION
    assert conn.recv(1) == b""  # then dropped
    conn.close()
    # The client side of the same rule: a challenge in a foreign version.
    a, b = _pair()
    b.sendall(raw_frame(VERSION - 1, {"type": "challenge", "arrays": []}))
    with pytest.raises(VersionMismatchError):
        client_handshake(a)
    a.close(), b.close()
    header = _authed_status(auth_worker)
    assert header["security"]["handshake_failures"] == 1


def _unchecksummed_v1(header: dict, array: np.ndarray) -> bytes:
    """A version-1 frame carrying ``array`` with no CRC32 in its descriptor —
    what the pre-checksum protocol put on the wire."""
    desc = {"dtype": array.dtype.str, "shape": list(array.shape)}
    return raw_frame(1, dict(header, arrays=[desc]), [array.tobytes()], trailers=False)


def test_post_handshake_v1_frame_is_refused_by_the_worker(auth_worker):
    """An established connection gets no integrity discount: a version-1
    task frame without checksums costs the connection before any kernel
    (or even the task parser) sees it."""
    conn = socket.create_connection(auth_worker, timeout=TIMEOUT)
    conn.settimeout(TIMEOUT)
    client_handshake(conn, auth_token=TOKEN)
    payload = np.ones(16, np.float32)
    conn.sendall(_unchecksummed_v1({"type": "task", "op": "spmm"}, payload))
    try:
        assert conn.recv(1) == b""  # dropped without a reply ...
    except ConnectionResetError:
        pass  # ... (by reset: the payload was left unread)
    conn.close()
    a, b = _pair()
    a.sendall(_unchecksummed_v1({"type": "task"}, payload))
    with pytest.raises(TransportError, match="protocol version 1"):
        recv_message(b)
    a.close(), b.close()
    header = _authed_status(auth_worker)
    assert header["tasks_done"] == 0


def test_post_handshake_v1_result_never_reaches_assembly():
    """Head side of the same rule: a worker that clears the handshake and
    then answers tasks with version-1, checksum-free result frames (wrong
    numbers inside) is treated as a broken stream — the shards recover
    through retry and in-parent execution, bit-identically."""
    csr, fmt, _, _, b_q, base, _ = _workload(seed=28)

    def lying_result(conn, header):
        rows = np.full((fmt.shape[0], b_q.shape[1]), 7.0, np.float32)
        conn.sendall(_unchecksummed_v1({"type": "result", "row0": 0}, rows))

    address, thread = scripted_worker(on_task=lying_result)
    with ClusterScheduler(
        addresses=[address],
        retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.01, seed=6),
        probe_interval_s=None,
    ) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=10_000, csr=csr)
        snap = sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)
    assert snap["hosts"]["host-0"]["last_failure"]["cause_type"] == "VersionMismatchError"
    assert snap["tasks_completed"] == 0 and snap["inline_fallbacks"] > 0


def test_head_refuses_wrong_token_cluster_but_worker_survives():
    """A head with the wrong token cannot join — and its rejected dials
    don't cost the worker, which keeps serving the rightful head."""
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
            "auth_token": TOKEN,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(TIMEOUT)
    with pytest.raises(AuthenticationError):
        ClusterScheduler(
            addresses=[box["addr"]],
            auth_token="wrong-" + TOKEN,
            probe_interval_s=None,
        )
    with ClusterScheduler(
        addresses=[box["addr"]], auth_token=TOKEN, probe_interval_s=None
    ) as sched:
        csr, fmt, _, _, b_q, base, _ = _workload(seed=22)
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        np.testing.assert_array_equal(out, base)
        snap = sched.stats_snapshot()
        # The worker-reported gauge carries the earlier reject into this
        # head's snapshot.
        assert snap["auth_rejects"] >= 1
        assert snap["task_failures"] == 0
    # The rightful head's close() sent the shutdown frame: worker exits.
    thread.join(TIMEOUT)
    assert not thread.is_alive()


# ------------------------------------------------------------------- TLS
needs_tls = pytest.mark.skipif(not tls_available(), reason="cryptography unavailable")


@needs_tls
def test_tls_round_trip_parity_vs_plaintext():
    csr, fmt, group, a_q, b_q, base, sbase = _workload(seed=23)
    cert, key = loopback_tls_files()
    with ClusterScheduler(hosts=2, tls_cert=cert, tls_key=key) as tls_sched:
        out = tls_sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        vals = tls_sched.run_sddmm(
            fmt, a_q, b_q, Precision.FP16, group, target_blocks=7, csr=csr
        )
        snap = tls_sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)   # == plaintext single-host oracle
    np.testing.assert_array_equal(vals, sbase)
    assert snap["task_failures"] == 0 and snap["handshake_failures"] == 0


@needs_tls
@pytest.mark.parametrize("fmt_name", ["mebcrs", "sgt16"])
def test_auth_tls_cluster_kernel_format_parity_grid(fmt_name):
    """The acceptance grid: an auth+TLS cluster matches the single-host
    oracle bit-for-bit for both kernels in both formats."""
    csr, fmt, group, a_q, b_q, base, sbase = _workload(fmt_name, seed=24)
    cert, key = loopback_tls_files()
    with ClusterScheduler(
        hosts=2, auth_token=TOKEN, tls_cert=cert, tls_key=key
    ) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        vals = sched.run_sddmm(
            fmt, a_q, b_q, Precision.FP16, group, target_blocks=7, csr=csr
        )
        snap = sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)
    np.testing.assert_array_equal(vals, sbase)
    assert snap["task_failures"] == 0


@needs_tls
def test_plaintext_head_cannot_reach_tls_worker():
    """A non-TLS client against a TLS listener fails the TLS layer; the
    worker counts it and keeps serving TLS peers."""
    cert, key = loopback_tls_files()
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
            "tls_cert": cert,
            "tls_key": key,
            "handshake_timeout_s": 2.0,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(TIMEOUT)
    plain = socket.create_connection(box["addr"], timeout=TIMEOUT)
    plain.settimeout(TIMEOUT)
    # A plaintext frame prefix is not a TLS ClientHello: the worker's TLS
    # layer rejects the stream and drops us without wedging the accept loop.
    plain.sendall(_PREFIX.pack(MAGIC, VERSION, 0, 0))
    try:
        assert plain.recv(1) == b""  # closed on us, not hung
    except OSError:
        pass  # a reset counts as dropped too
    plain.close()
    # A TLS peer still gets through, and the failed negotiation was counted.
    ctx = make_client_ssl_context(cert)
    conn = ctx.wrap_socket(socket.create_connection(box["addr"], timeout=TIMEOUT))
    conn.settimeout(TIMEOUT)
    client_handshake(conn)
    send_message(conn, {"type": "ping"})
    header, _, _ = recv_message(conn)
    assert header["type"] == "pong"
    assert header["security"]["handshake_failures"] >= 1
    send_message(conn, {"type": "shutdown"})
    recv_message(conn)
    conn.close()
    thread.join(TIMEOUT)
    assert not thread.is_alive()


# ------------------------------------------------------- corruption recovery
def test_corrupted_result_frame_recovers_bit_identically():
    """The tentpole end-to-end: a result frame corrupted on the worker side
    fails its CRC at the head, the task is re-sent through the retry
    machinery, and the request completes bit-identically with zero failed
    shards."""
    csr, fmt, _, _, b_q, base, _ = _workload(seed=26)
    # scope=None: whichever host rendezvous routing picks, its first
    # result frame is the corrupted one.
    plan = FaultPlan(seed=3).corrupt_payload(nth=1, type="result")
    with ClusterScheduler(
        hosts=2,
        faults=plan,
        retry_policy=RetryPolicy(seed=0),
    ) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        snap = sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)
    assert snap["integrity_failures"] >= 1
    assert snap["task_failures"] == 0
    # The failure is attributed to whichever host served the frame.
    assert any(h["integrity_failures"] >= 1 for h in snap["hosts"].values())
    assert snap["reconnects"] >= 1  # recovered through the retry machinery


def test_corrupted_task_frame_detected_by_worker_and_recovered():
    """The other direction: a frame corrupted head→worker is caught by
    the worker's CRC check (never computed on), costs the connection, and
    the head's resend completes the request exactly.  The operand bytes
    ride the first task frame as pushed bundles — buffers 0-1 the
    pattern, 2 the values, 3 the dense panel — so the corruption is seeded
    in the panel's buffer."""
    csr, fmt, _, _, b_q, base, _ = _workload(seed=27)
    plan = FaultPlan(seed=5).corrupt_payload(nth=1, type="task", buffer=3)
    with ClusterScheduler(
        hosts=2,
        faults=plan,
        retry_policy=RetryPolicy(seed=0),
    ) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        snap = sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)
    # Detected on the worker side; the gauge travels back in status frames.
    assert snap["integrity_failures"] >= 1
    assert snap["task_failures"] == 0
    assert plan.fired_kinds().count("corrupt_payload") == 1


def test_one_fault_plan_corrupts_both_directions():
    """One ``faults=`` plan serves both ends of the wire: the ``task``
    fault fires where the head writes task frames, the ``result`` fault
    where a worker writes its first result.  Both are caught by a CRC
    check and cost a resend; the request still completes exactly."""
    csr, fmt, _, _, b_q, base, _ = _workload(seed=28)
    plan = (
        FaultPlan(seed=17)
        .corrupt_payload(nth=1, type="task", buffer=3)
        .corrupt_checksum(nth=1, type="result")
    )
    with ClusterScheduler(hosts=2, faults=plan, retry_policy=RetryPolicy(seed=0)) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        snap = sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)
    assert snap["integrity_failures"] >= 2
    assert snap["task_failures"] == 0
    assert plan.fired_kinds() == ["corrupt_payload"]


@pytest.mark.parametrize(
    "side, fault",
    [
        ("head", dict(kind="corrupt_checksum", type="task", buffer=3)),
        ("head", dict(kind="truncate_frame", type="task", at="buffer", buffer=3)),
        ("head", dict(kind="truncate_frame", type="task", at="trailer", buffer=3)),
        ("worker", dict(kind="corrupt_checksum", type="result", buffer=0)),
    ],
    ids=["task-lying-trailer", "task-cut-in-buffer", "task-missing-trailer", "result-lying-trailer"],
)
def test_trailer_faults_recover_bit_identically(side, fault):
    """Each v8 framing fault — a lying CRC32 trailer, a stream cut inside
    a streamed buffer, a trailer that never comes — costs the connection
    and a resend, never a wrong result or a failed shard.  On the head
    side the fault hits the first task frame's pushed panel (buffer 3,
    behind the pattern and the values)."""
    csr, fmt, _, _, b_q, base, _ = _workload(seed=29)
    params = dict(fault)
    plan = getattr(FaultPlan(seed=7), params.pop("kind"))(nth=1, **params)
    with ClusterScheduler(hosts=2, retry_policy=RetryPolicy(seed=0), faults=plan) as sched:
        out = sched.run_spmm(fmt, b_q, Precision.FP16, target_blocks=7, csr=csr)
        snap = sched.stats_snapshot()
    np.testing.assert_array_equal(out, base)
    assert snap["task_failures"] == 0
    assert snap["reconnects"] >= 1
    if fault["kind"] == "corrupt_checksum":
        assert snap["integrity_failures"] >= 1
    # The plan's log is the head's: a worker-end fault fires in the host's copy.
    assert len(plan.fired) == (1 if side == "head" else 0)


def test_lying_checksum_is_rejected_like_corruption():
    a, b = _pair()
    plan = FaultPlan(seed=11).corrupt_checksum(nth=1, type="task")
    wrapped = plan.wrap(a, scope="h0")
    payload = np.arange(64, dtype=np.float32)
    send_message(wrapped, {"type": "task"}, [payload])
    with pytest.raises(FrameIntegrityError, match="CRC32"):
        recv_message(b)
    assert plan.fired_kinds() == ["corrupt_checksum"]
    # The harness is frame-type aware: untargeted frames pass untouched.
    send_message(wrapped, {"type": "task"}, [payload])
    _, arrays, _ = recv_message(b)
    np.testing.assert_array_equal(arrays[0], payload)
    a.close(), b.close()


def test_corrupt_payload_targets_the_declared_buffer():
    a, b = _pair()
    plan = FaultPlan(seed=13).corrupt_payload(nth=1, type="task", buffer=1)
    wrapped = plan.wrap(a, scope="h0")
    first = np.arange(16, dtype=np.int64)
    second = np.ones(8, dtype=np.float32)
    send_message(wrapped, {"type": "task"}, [first, second])
    with pytest.raises(FrameIntegrityError, match="buffer 1"):
        recv_message(b)
    a.close(), b.close()


# --------------------------------------------------- accounting & size bugfix
def test_frame_too_large_pre_scan_names_offending_descriptor():
    """One huge descriptor hidden among small ones is rejected *before* the
    buffer loop allocates, by index — the recv_message bugfix."""
    a, b = _pair()
    small = {"dtype": "<f4", "shape": [8], "crc32": 0}
    huge = {"dtype": "<f4", "shape": [1 << 28], "crc32": 0}
    header = dict(type="task", arrays=[small, small, huge, small])
    import json

    raw = json.dumps(header, separators=(",", ":")).encode()
    a.sendall(_PREFIX.pack(MAGIC, VERSION, 4, len(raw)) + raw)
    with pytest.raises(FrameTooLargeError, match="descriptor 2") as info:
        recv_message(b, max_frame_bytes=1 << 20)
    # Rejected-frame bytes are reported for transport accounting.
    assert info.value.bytes_read == _PREFIX.size + len(raw)
    a.close(), b.close()


def test_handshake_bytes_counted_into_transport_totals():
    """Connecting alone (no tasks) must already move the byte counters:
    the handshake crossed the socket and the snapshot reconciles it."""
    with ClusterScheduler(hosts=1, auth_token=TOKEN, probe_interval_s=None) as sched:
        snap = sched.stats_snapshot()
    assert snap["tasks_sent"] == 0
    assert snap["bytes_sent"] > 0
    assert snap["bytes_received"] > 0


def test_v2_frames_without_checksums_are_protocol_violations():
    """A buffer with no CRC32 trailer behind it (what the pre-checksum
    protocol put on the wire) never passes as a frame: the stream ends
    where the trailer belongs, or the next frame's bytes fail as one."""
    payload = np.arange(4, dtype=np.float32)
    frame = raw_frame(
        VERSION,
        {"type": "task", "arrays": [{"dtype": "<f4", "shape": [4]}]},
        [payload.tobytes()],
        trailers=False,
    )
    a, b = _pair()
    a.sendall(frame)
    a.close()
    with pytest.raises(TransportError, match="mid-frame"):
        recv_message(b)
    b.close()
    a, b = _pair()
    a.sendall(frame + frame)
    with pytest.raises(FrameIntegrityError, match="CRC32"):
        recv_message(b)
    a.close(), b.close()
