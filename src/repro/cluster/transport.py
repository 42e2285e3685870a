"""Length-prefixed binary frame protocol for the shard transport.

One frame carries one message between the head and a worker host over a
TCP stream (the shape follows TVM's RPC runner: a fixed prefix, a small
metadata header, then the bulk payload as raw buffers):

``
+--------+---------+---------+------------+----------------+
| magic  | version | n_bufs  | header_len | header (JSON)  |
| 4 B    | 1 B     | 1 B     | 4 B        | header_len B   |
+--------+---------+---------+------------+----------------+
| buf_len (8 B) | raw buffer bytes | crc32 (4 B) | ... n_bufs × |
+-------------------------------------------------------------+
``

The **header** is a small JSON object holding the message type and scalar
metadata (shard ranges, content keys, per-array dtype/shape descriptors).
The **buffers** are the ndarray payloads — CSR arrays, dense operands,
result rows — sent as raw contiguous bytes, *never* pickled: pickle on a
network channel is an arbitrary-code-execution surface and also copies
through Python object land, while raw buffers go straight from the array
to the socket.  Array dtype and shape travel in ``header["arrays"]`` so
the receiver can rebuild each ndarray with ``np.frombuffer`` (backed by a
``bytearray``, so the rebuilt arrays are writable).

There is **one protocol version** (:data:`VERSION`, the prefix's version
byte).  A frame carrying any other version byte raises
:class:`VersionMismatchError` without being parsed — the prefix layout
is all that is assumed of a foreign peer.  During the handshake
the worker answers such a peer with a structured ``reject`` (reason
``"version"``) before dropping the connection, so a mismatched peer reads
a parseable refusal instead of hanging.

* **Payload integrity.**  Every buffer is followed by a 4-byte **trailer**:
  the zlib CRC32 of its raw bytes.  The CRC streams with the bytes: the
  sender folds each :data:`CHUNK_BYTES` chunk into the running CRC just
  before it writes that chunk, and the receiver folds each chunk in as it
  arrives, so neither end makes a separate pass over a buffer and the two
  ends' checksum work overlaps.  A flipped bit anywhere in an ndarray
  payload — NIC, switch, proxy, cosmic ray — surfaces as
  :class:`FrameIntegrityError` instead of flowing silently into
  SpMM/SDDMM numerics; a frame whose stream ends before a trailer is a
  :class:`TransportError`.
* **Connection handshake.**  Before any task flows, the server sends a
  CHALLENGE (its protocol version + a random nonce), the client answers
  with a HELLO (an HMAC-SHA256 of the nonce under the shared
  ``auth_token``), and the server replies WELCOME — or a structured
  REJECT naming the reason (``version`` / ``auth`` / ``protocol``).  See
  :func:`client_handshake` and :func:`server_handshake`.
* **Optional TLS.**  :func:`make_server_ssl_context` /
  :func:`make_client_ssl_context` build ``ssl.SSLContext`` objects for
  wrapping either side of the stream; the frame protocol (and the fault
  injection wrapper) layer on top unchanged.

Message types (the ``type`` header field) used by the cluster:

* ``challenge`` / ``hello`` / ``welcome`` / ``reject``: the connection
  handshake (before anything else on a fresh stream),
* ``task`` (head → worker): one window-aligned shard of one served op;
  the ``op`` header field names its :data:`repro.kernels.engine.SHARD_OPS`
  row (SpMM, SDDMM or the fused attention layer).  ``store_structure`` /
  ``store_values`` / ``store_operands`` name the ``[indptr, indices]``
  bundle, the ``[data]`` and the dense panels in the worker's pin store
  (:mod:`repro.cluster.store`), and ``structure_key`` / ``content_key``
  carry the matrix's two digests so the worker adopts them instead of
  rehashing.  The frame's buffers are the bundles the worker does not
  hold yet: ``push`` lists their store keys and array counts, in buffer
  order, and the worker pins them before it runs the shard.  ``release``
  names request-scoped keys the worker drops after this task.  The
  request's settings ride as the header fields ``precision`` / ``scale``
  / ``scale_by_mask`` (:func:`repro.kernels.engine.shard_params`, which
  the worker re-applies on receipt),
* ``store_miss`` (worker → head): a task referenced keys the worker does
  not hold (evicted, or a restarted process) — the head re-pushes them in
  the resent task,
* ``result`` / ``error`` (worker → head): the shard's output or the remote
  failure (message + traceback text); like ``store_miss`` they name the
  store keys the task's pushes evicted,
* ``ping`` / ``pong``: heartbeat probes; the pong carries the worker's
  translation-cache, pinned-store and security counters (plus the store's
  key inventory, which re-warms a readmitting head's ledger),
* ``shutdown`` (head → worker): drain and exit.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import random
import secrets
import socket
import struct
import zlib
from dataclasses import dataclass

import numpy as np

#: Frame prefix: magic, version, buffer count, header length.
_PREFIX = struct.Struct("!4sBBI")
_BUF_LEN = struct.Struct("!Q")
#: The per-buffer trailer: the CRC32 of the buffer's bytes.
_CRC = struct.Struct("!I")

MAGIC = b"FSRP"
#: The wire protocol version: the prefix byte of every frame this end
#: writes, and the only one it reads.  Since version 8 a task frame carries
#: the store bundles it pushes, and every buffer ends in a CRC32 trailer.
VERSION = 8

#: Bytes checksummed and then written (or read and then checksummed) per
#: step — small enough that the second pass finds the chunk still in L2.
CHUNK_BYTES = 256 * 1024

#: Sanity bounds — a corrupt or hostile prefix must not trigger a huge
#: allocation before the magic/shape checks can reject it.
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_BUFFERS = 64
MAX_BUFFER_BYTES = 16 * 1024**3

#: Handshake frames are tiny; anything bigger arriving mid-handshake is
#: not a handshake (e.g. a peer opening with a task frame).
HANDSHAKE_MAX_BYTES = 64 * 1024


class TransportError(RuntimeError):
    """Malformed frame, protocol violation or mid-frame stream loss.

    Instances raised out of :func:`recv_message` carry a ``bytes_read``
    attribute — how many bytes of the offending frame had already crossed
    the socket — so transport accounting reconciles even for frames that
    were rejected rather than parsed.
    """

    bytes_read: int = 0


class ConnectionClosedError(TransportError):
    """The peer closed the stream at a clean frame boundary."""


class FrameTooLargeError(TransportError):
    """A frame declared more bytes than this connection allows.

    Raised *before* the oversized allocation happens, so one malformed (or
    hostile) peer cannot balloon the receiver's memory up to the global
    :data:`MAX_BUFFER_BYTES` bound.  The per-connection limit is the
    ``max_frame_bytes`` argument of :func:`recv_message`; the cumulative
    check walks the header's declared descriptors before the buffer loop
    reads a single payload byte, so one huge descriptor hiding among small
    ones is caught by its index.
    """


class FrameIntegrityError(TransportError):
    """A payload buffer's bytes do not match its CRC32 trailer.

    Silent corruption made detectable: the receiver verifies every
    buffer's checksum before handing the arrays to the caller.  The head
    treats this exactly like a transport failure — the frame is
    discarded, the connection recycled and the shard re-sent — so a
    corrupted result costs a retry, never wrong numerics.
    """


class HandshakeError(TransportError):
    """The connection handshake failed (protocol violation either way)."""


class AuthenticationError(HandshakeError):
    """The peer's HMAC auth digest was missing or wrong for our token."""


class VersionMismatchError(HandshakeError):
    """The peer speaks an incompatible wire protocol version."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient transport failures.

    A host client consults this policy when a connection dies with a
    *transient* error (connect refused, timeout, reset): it makes up to
    ``max_attempts`` reconnect attempts, sleeping ``base_delay_s · 2ⁱ``
    (capped at ``cap_delay_s``) before attempt ``i``, with a multiplicative
    ``jitter`` so a fleet of heads does not re-dial in lockstep.  Only when
    every attempt fails is the host declared DEAD and its work failed over.

    ``seed`` makes the jitter sequence deterministic per ``delays(key)``
    stream — the fault-injection tests rely on replayable schedules.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    cap_delay_s: float = 2.0
    jitter: float = 0.1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")
        if self.base_delay_s < 0 or self.cap_delay_s < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be >= 0")

    def delays(self, key: str = ""):
        """Yield the backoff delay before each reconnect attempt."""
        rng = random.Random(None if self.seed is None else f"{self.seed}|{key}")
        for attempt in range(self.max_attempts):
            delay = min(self.cap_delay_s, self.base_delay_s * (2.0**attempt))
            if self.jitter > 0:
                delay *= 1.0 + rng.uniform(0.0, self.jitter)
            yield min(delay, self.cap_delay_s)


def _recv_exact(
    sock: socket.socket, n: int, *, at_boundary: bool = False
) -> tuple[bytearray, int]:
    """Read exactly ``n`` bytes (into a writable buffer) or raise; returns
    ``(buffer, crc)``, the CRC32 folded in chunk by chunk as the bytes
    land, while they are still in cache.

    EOF before the first byte of a frame is a clean close
    (:class:`ConnectionClosedError`); EOF anywhere inside a frame is a
    :class:`TransportError` — the peer died mid-message.
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = crc = 0
    while got < n:
        try:
            chunk = sock.recv_into(view[got:], min(n - got, CHUNK_BYTES))
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionClosedError(f"connection reset: {exc}") from exc
        if chunk == 0:
            if at_boundary and got == 0:
                raise ConnectionClosedError("peer closed the connection")
            raise TransportError(f"stream ended mid-frame ({got}/{n} bytes read)")
        crc = zlib.crc32(view[got : got + chunk], crc)
        got += chunk
    return buf, crc


def _send_buffer(sock: socket.socket, data: memoryview) -> int:
    """Write one payload buffer in :data:`CHUNK_BYTES` chunks, each folded
    into the CRC32 just before it leaves; returns the CRC (the caller
    writes it as the buffer's trailer)."""
    crc = 0
    for start in range(0, len(data), CHUNK_BYTES):
        chunk = data[start : start + CHUNK_BYTES]
        crc = zlib.crc32(chunk, crc)
        sock.sendall(chunk)
    return crc


def send_message(sock: socket.socket, header: dict, arrays=()) -> int:
    """Send one frame; returns the total bytes written.

    ``header`` must be JSON-serialisable; an ``arrays`` descriptor list
    (dtype and shape of each buffer) is added automatically.  Arrays are
    made contiguous (a no-op for the batch slices the cluster sends) and
    streamed as raw bytes, each followed by its CRC32 trailer.

    Injectable socket wrappers (the fault-injection harness) learn the
    frame's layout from two hooks instead of counting ``sendall`` calls:
    ``notify_frame_send(header)`` before the first byte, and
    ``notify_part_send(part, index)`` before each part — ``"prefix"``,
    ``"header"``, then per buffer ``"length"``, ``"buffer"`` (its chunks)
    and ``"trailer"``.
    """
    arrays = [np.ascontiguousarray(a) for a in arrays]
    if len(arrays) > MAX_BUFFERS:
        raise TransportError(f"too many buffers in one frame ({len(arrays)})")
    header = dict(
        header, arrays=[{"dtype": a.dtype.str, "shape": list(a.shape)} for a in arrays]
    )
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise TransportError(f"header too large ({len(header_bytes)} bytes)")
    notify = getattr(sock, "notify_frame_send", None)
    part = getattr(sock, "notify_part_send", None) or (lambda kind, index=None: None)
    total = _PREFIX.size + len(header_bytes)
    try:
        if notify is not None:
            notify(header)
        part("prefix")
        sock.sendall(_PREFIX.pack(MAGIC, VERSION, len(arrays), len(header_bytes)))
        part("header")
        sock.sendall(header_bytes)
        for index, array in enumerate(arrays):
            part("length", index)
            sock.sendall(_BUF_LEN.pack(array.nbytes))
            part("buffer", index)
            crc = _send_buffer(sock, memoryview(array).cast("B"))
            part("trailer", index)
            sock.sendall(_CRC.pack(crc))
            total += _BUF_LEN.size + array.nbytes + _CRC.size
    except (ConnectionResetError, BrokenPipeError) as exc:
        raise ConnectionClosedError(f"connection lost during send: {exc}") from exc
    return total


def recv_message(
    sock: socket.socket, max_frame_bytes: int | None = None
) -> tuple[dict, list[np.ndarray], int]:
    """Receive one frame; returns ``(header, arrays, total_bytes)``.

    Blocks until a full frame arrives (honouring any ``sock.settimeout``,
    whose expiry surfaces as the standard ``socket.timeout``).  The
    returned arrays are writable (backed by the receive buffer, no extra
    copy) and every buffer's CRC32, computed as its chunks arrived, has
    been checked against its trailer (:class:`FrameIntegrityError` on
    mismatch).  A prefix whose
    version byte is not :data:`VERSION` raises
    :class:`VersionMismatchError` before anything is parsed.

    ``max_frame_bytes`` bounds the *declared* total frame size for this
    connection.  The header's descriptor list is walked **before** the
    buffer loop allocates anything: the cumulative declared sizes are
    checked against the limit and a violation raises
    :class:`FrameTooLargeError` naming the offending descriptor index, so
    a single huge descriptor among small ones cannot slip past an
    aggregate check that only ran as buffers streamed in.

    Failures carry a ``bytes_read`` attribute (bytes consumed before the
    frame was rejected) so callers can keep byte accounting truthful.
    """
    progress = [0]
    try:
        return _recv_frame(sock, max_frame_bytes, progress)
    except TransportError as exc:
        exc.bytes_read = progress[0]
        raise


def _recv_frame(
    sock: socket.socket, max_frame_bytes: int | None, progress: list[int]
) -> tuple[dict, list[np.ndarray], int]:
    notify = getattr(sock, "notify_frame_recv", None)
    if notify is not None:
        notify()
    prefix, _ = _recv_exact(sock, _PREFIX.size, at_boundary=True)
    progress[0] += _PREFIX.size
    magic, version, n_bufs, header_len = _PREFIX.unpack(bytes(prefix))
    if magic != MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    if header_len > MAX_HEADER_BYTES:
        raise TransportError(f"header too large ({header_len} bytes)")
    total = _PREFIX.size + header_len
    if max_frame_bytes is not None and total > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame header declares {header_len} bytes; the frame already "
            f"exceeds this connection's max_frame_bytes={max_frame_bytes}"
        )
    raw_header = bytes(_recv_exact(sock, header_len)[0])
    progress[0] += header_len
    if version != VERSION:
        # Only the prefix layout is assumed of a foreign version.  Its
        # (bounded) header bytes were still consumed, unparsed, so a
        # buffer-less frame such as a hello leaves the stream at a frame
        # boundary and the handshake's reject is not chased by a reset.
        raise VersionMismatchError(
            f"peer wrote protocol version {version}, this end speaks {VERSION}"
        )
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except ValueError as exc:
        raise TransportError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise TransportError(f"frame header is not an object: {header!r}")
    descriptors = header.get("arrays", [])
    if len(descriptors) != n_bufs:
        raise TransportError(
            f"frame declares {n_bufs} buffers but header describes {len(descriptors)}"
        )
    # Pre-scan every descriptor before the buffer loop allocates anything:
    # the cumulative declared byte total must clear max_frame_bytes up
    # front.
    plan: list[tuple[np.dtype, tuple, int]] = []
    declared = total
    for i, desc in enumerate(descriptors):
        try:
            dtype = np.dtype(desc["dtype"])
            shape = tuple(int(s) for s in desc["shape"])
            if any(s < 0 for s in shape):
                raise ValueError(f"negative dimension in {shape}")
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"bad array descriptor {i}: {exc}") from exc
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes > MAX_BUFFER_BYTES:
            raise TransportError(f"buffer {i} too large ({nbytes} bytes)")
        declared += _BUF_LEN.size + nbytes + _CRC.size
        if max_frame_bytes is not None and declared > max_frame_bytes:
            raise FrameTooLargeError(
                f"descriptor {i} declares {nbytes} bytes, bringing the frame "
                f"to {declared} declared bytes — over this connection's "
                f"max_frame_bytes={max_frame_bytes}"
            )
        plan.append((dtype, shape, nbytes))
    arrays: list[np.ndarray] = []
    for i, (dtype, shape, expected) in enumerate(plan):
        (nbytes,) = _BUF_LEN.unpack(bytes(_recv_exact(sock, _BUF_LEN.size)[0]))
        progress[0] += _BUF_LEN.size
        if nbytes != expected:
            raise TransportError(
                f"buffer {i} wire length {nbytes} does not match its declared "
                f"dtype/shape ({expected} bytes)"
            )
        raw, crc = _recv_exact(sock, nbytes)
        progress[0] += nbytes
        (trailer,) = _CRC.unpack(bytes(_recv_exact(sock, _CRC.size)[0]))
        progress[0] += _CRC.size
        if crc != trailer:
            raise FrameIntegrityError(
                f"buffer {i} of {header.get('type')!r} frame failed its CRC32 "
                f"check — payload corrupted in flight"
            )
        arrays.append(np.frombuffer(raw, dtype=dtype).reshape(shape))
        total += _BUF_LEN.size + nbytes + _CRC.size
    return header, arrays, total


# ---------------------------------------------------------------- handshake
def _auth_digest(auth_token: str, nonce: str) -> str:
    """HMAC-SHA256 of the server's nonce under the shared token."""
    return hmac.new(
        auth_token.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256
    ).hexdigest()


def _raise_reject(header: dict) -> None:
    reason = header.get("reason")
    message = header.get("message", "")
    if reason == "auth":
        raise AuthenticationError(f"peer rejected our credentials: {message}")
    if reason == "version":
        raise VersionMismatchError(f"peer rejected our protocol version: {message}")
    raise HandshakeError(f"peer rejected the handshake ({reason}): {message}")


def _send_reject(sock, reason: str, message: str) -> None:
    """Best-effort structured reject (the peer may already be gone)."""
    try:
        send_message(
            sock,
            {"type": "reject", "version": VERSION, "reason": reason, "message": message},
        )
    except (TransportError, OSError):
        pass


def client_handshake(sock, auth_token: str | None = None) -> tuple[int, int]:
    """Authenticate a fresh connection from the client (head) side.

    Reads the server's CHALLENGE, answers with a HELLO carrying (when
    ``auth_token`` is set) the HMAC-SHA256 of the challenge nonce, then
    waits for the WELCOME.  Returns ``(bytes_sent, bytes_received)`` for
    transport accounting.  Raises :class:`AuthenticationError` /
    :class:`VersionMismatchError` / :class:`HandshakeError` when the server
    rejects us (structured reject frames map to the matching exception) or
    writes a foreign protocol version.
    """
    sent = received = 0
    try:
        header, _, n = recv_message(sock, max_frame_bytes=HANDSHAKE_MAX_BYTES)
    except VersionMismatchError:
        raise
    except TransportError as exc:
        raise HandshakeError(f"no challenge from peer: {exc}") from exc
    received += n
    kind = header.get("type")
    if kind == "reject":
        _raise_reject(header)
    if kind != "challenge":
        raise HandshakeError(f"expected a challenge frame, got {kind!r}")
    if auth_token is None and header.get("auth_required"):
        raise AuthenticationError(
            "server requires an auth token and none is configured on this end"
        )
    hello = {"type": "hello"}
    if auth_token is not None:
        hello["auth"] = _auth_digest(auth_token, str(header.get("nonce", "")))
    sent += send_message(sock, hello)
    try:
        header, _, n = recv_message(sock, max_frame_bytes=HANDSHAKE_MAX_BYTES)
    except TransportError as exc:
        raise HandshakeError(f"no welcome from peer: {exc}") from exc
    received += n
    if header.get("type") == "reject":
        _raise_reject(header)
    if header.get("type") != "welcome":
        raise HandshakeError(f"expected a welcome frame, got {header.get('type')!r}")
    return sent, received


def server_handshake(sock, auth_token: str | None = None) -> tuple[int, int]:
    """Authenticate a fresh connection from the server (worker) side.

    Sends the CHALLENGE (protocol version + a random nonce), validates the
    peer's HELLO — protocol version byte, frame shape, and (when
    ``auth_token`` is set) a constant-time comparison of the HMAC digest —
    and answers WELCOME.  A failing peer gets a structured REJECT (so a peer speaking another
    protocol version reads a parseable frame, not a hang) before the
    matching exception is raised to the caller, which should drop the
    connection and keep accepting.  Returns ``(bytes_sent, bytes_received)``.
    """
    nonce = secrets.token_hex(16)
    sent = send_message(
        sock,
        {
            "type": "challenge",
            "version": VERSION,
            "nonce": nonce,
            "auth_required": auth_token is not None,
        },
    )
    try:
        header, _, received = recv_message(sock, max_frame_bytes=HANDSHAKE_MAX_BYTES)
    except VersionMismatchError as exc:
        _send_reject(sock, "version", str(exc))
        raise
    except TransportError as exc:
        raise HandshakeError(f"no parseable hello from peer: {exc}") from exc
    if header.get("type") != "hello":
        _send_reject(sock, "protocol", f"expected a hello frame, got {header.get('type')!r}")
        raise HandshakeError(f"peer opened with {header.get('type')!r}, not hello")
    if auth_token is not None:
        digest = header.get("auth")
        if not isinstance(digest, str) or not hmac.compare_digest(
            digest, _auth_digest(auth_token, nonce)
        ):
            _send_reject(sock, "auth", "missing or invalid auth digest")
            raise AuthenticationError("peer presented a missing or invalid auth digest")
    sent += send_message(sock, {"type": "welcome"})
    return sent, received


# ----------------------------------------------------------------------- TLS
def make_server_ssl_context(certfile: str, keyfile: str, cafile: str | None = None):
    """``ssl.SSLContext`` for the worker (server) side of the transport.

    Loads the host certificate + key; when ``cafile`` is given, client
    certificates are also required and verified against it (mutual TLS).
    """
    import ssl

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certfile, keyfile)
    if cafile is not None:
        context.load_verify_locations(cafile)
        context.verify_mode = ssl.CERT_REQUIRED
    return context


def make_client_ssl_context(
    cafile: str, certfile: str | None = None, keyfile: str | None = None
):
    """``ssl.SSLContext`` for the head (client) side of the transport.

    The server certificate is verified against the pinned ``cafile`` (for
    a self-signed deployment, the server certificate itself).  Hostname
    checking is disabled — the CA pin is the trust anchor; cluster hosts
    are dialled by address, not stable names.  ``certfile``/``keyfile``
    present a client certificate when the server demands mutual TLS.
    """
    import ssl

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    context.check_hostname = False
    context.verify_mode = ssl.CERT_REQUIRED
    context.load_verify_locations(cafile)
    if certfile is not None:
        context.load_cert_chain(certfile, keyfile)
    return context
