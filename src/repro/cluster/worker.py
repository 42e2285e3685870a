"""Worker host: pins the head's bundles, executes window-aligned shards.

One worker host is one process serving shard tasks over the frame protocol
of :mod:`repro.cluster.transport`.  Per task it

1. pins the bundles the task frame pushed (the ``push`` header names their
   store keys and array counts, in buffer order) — a pattern bundle gets
   :class:`~repro.formats.csr.CSRMatrix`'s checks
   (:func:`~repro.formats.csr.check_csr_structure`) for the header's shape
   once, here, and the checked arrays are what is pinned — and acquires
   every key the task names: the matrix's pattern and values and the
   dense panels (already quantised by the head),
2. checks the matrix: the header's shape must be the one its pattern was
   checked for, and the values are checked on every use (1-D, real,
   ``nnz`` long), so a corrupt bundle is this task's ``error``, never bad
   numerics,
3. slices the task's window-aligned range out of the pinned CSR itself —
   every op, never a translation: the op's lane arrays
   (:func:`repro.kernels.engine.csr_lanes` — the stored values, cast to the
   storage precision, which SDDMM and the fused layer share; for SpMM its
   nonzeros, quantised) are built once per (values, precision) and kept in
   a small LRU, so a repeat task does no work and new values cost one cast
   (the LRU's counters travel back in every result and pong frame as the
   host's ``cache`` stats, the affinity signal),
4. runs the op's entry in the engine's shard table
   (:data:`repro.kernels.engine.SHARD_OPS`) — the same ``run`` the
   single-host scheduler and the head's in-parent fallback execute on the
   same arrays, hence bit-identical results — with the settings its
   header carries (``precision`` / ``scale`` / ``scale_by_mask``), decoded
   and re-checked by :func:`repro.kernels.engine.shard_params`,
5. drops the request-scoped keys the header lists in ``release``, and
6. streams the shard output back: one row slice and its ``row0`` (dense
   output rows for SpMM and fused layers; for SDDMM, one value per CSR
   entry of the shard's rows, placed at its first entry), with the store
   keys its pushes evicted.

**Trust at the door.**  Every accepted connection must clear the
HELLO/CHALLENGE handshake (the protocol version byte plus, when an
``auth_token`` is configured, an HMAC-SHA256 proof over the worker's
nonce) before a single task frame is read; a peer that fails is sent a
structured reject, counted (``auth_rejects`` / ``handshake_failures`` in
the status frames) and dropped — the listener keeps serving the next
connection.  With ``tls_cert``/``tls_key`` the stream itself is wrapped
in TLS (``tls_ca`` additionally demands client certificates).  Incoming
payload buffers are CRC-verified by the transport; a corrupted frame is
counted (``integrity_failures``) and costs the connection, never wrong
numerics.

The host is single-threaded and serves one head connection at a time (the
head holds one long-lived connection per host); a dropped connection sends
it back to ``accept``, so a head that reconnects after a network blip finds
the host — and its pinned bundles and lane cache — still there.  A
``shutdown`` frame exits the process.

Run in-process under a spawned subprocess (what the head and the tests
do), or standalone on a real host::

    python -m repro.cluster.worker --host 0.0.0.0 --port 9070 \
        --auth-token "$REPRO_CLUSTER_AUTH_TOKEN" \
        --tls-cert host.pem --tls-key host.key
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from collections import OrderedDict

from repro.cluster.store import DEFAULT_STORE_BYTES, PinnedStore, StoreMissError
from repro.cluster.transport import (
    AuthenticationError,
    FrameIntegrityError,
    FrameTooLargeError,
    TransportError,
    make_server_ssl_context,
    recv_message,
    send_message,
    server_handshake,
)
from repro.formats.cache import FORMAT_CACHE_MAXSIZE, format_kind
from repro.formats.csr import check_csr_structure, check_csr_values
from repro.kernels.engine import SHARD_OPS, ShardRange, shard_params

#: Environment variable the CLI reads the shared auth token from.
AUTH_TOKEN_ENV = "REPRO_CLUSTER_AUTH_TOKEN"

#: A fresh connection must clear TLS + the frame handshake within this
#: budget, so a stalled (or non-TLS) peer cannot wedge the single-threaded
#: accept loop.
DEFAULT_HANDSHAKE_TIMEOUT_S = 10.0


class WorkerHost:
    """State of one worker host: its pin store, the lane cache over it
    (``cache_maxsize`` lane sets) and its task counters.  It holds no
    translation: every op runs on lanes of the pinned CSR."""

    def __init__(
        self,
        cache_maxsize: int = FORMAT_CACHE_MAXSIZE,
        max_frame_bytes: int | None = None,
        auth_token: str | None = None,
        store_bytes: int = DEFAULT_STORE_BYTES,
    ):
        #: Lane arrays by (builder, pattern key, values key, precision), at
        #: most ``cache_maxsize`` sets, and the LRU's counters.
        self.cache_maxsize = int(cache_maxsize)
        self._lane_cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._lane_stats = {"hits": 0, "misses": 0, "evictions": 0}
        #: The shape each pinned pattern bundle was checked for; an entry
        #: goes with its bundle.
        self._pattern_shapes: dict[str, tuple] = {}
        #: Pin store: CSR bundles and dense operand panels the head pushed
        #: once, referenced by key per task.
        self.store = PinnedStore(budget_bytes=store_bytes)
        self.tasks_done = 0
        #: Per-connection bound on declared frame sizes (None = unbounded):
        #: a hostile or corrupt frame cannot make the worker allocate
        #: arbitrary memory before a single payload byte has arrived.
        self.max_frame_bytes = max_frame_bytes
        #: Shared secret gating the connection handshake (None = open).
        self.auth_token = auth_token
        self.frames_oversized = 0
        #: Inbound frames whose payload CRC32 failed verification.
        self.integrity_failures = 0
        #: Handshakes dropped for a bad/missing auth digest.
        self.auth_rejects = 0
        #: Handshakes dropped for any non-auth reason (version mismatch,
        #: protocol garbage, TLS failure) — disjoint from auth_rejects.
        self.handshake_failures = 0

    # --------------------------------------------------------------- helpers
    def _status(self) -> dict:
        return {
            "cache": dict(self._lane_stats, size=len(self._lane_cache)),
            "store": self.store.stats(),
            "tasks_done": self.tasks_done,
            "frames_oversized": self.frames_oversized,
            "security": {
                "integrity_failures": self.integrity_failures,
                "auth_rejects": self.auth_rejects,
                "handshake_failures": self.handshake_failures,
            },
        }

    def _lanes(self, header: dict, op, indptr, indices, data, precision: str) -> tuple:
        """The op's whole-matrix lane arrays for the pinned values, built
        once per (builder, values, pattern, precision) — SDDMM and the
        fused layer share a builder, so they share the set — and kept in a
        small LRU: a stream of fresh values then reuses the memory of the
        lanes it evicts instead of growing the host by a lane set per
        request."""
        key = (op.csr_lanes, header["store_structure"], header["store_values"], precision)
        lanes = self._lane_cache.get(key)
        if lanes is None:
            self._lane_stats["misses"] += 1
            lanes = self._lane_cache[key] = op.csr_lanes(indptr, indices, data, precision)
            while len(self._lane_cache) > self.cache_maxsize:
                self._lane_cache.popitem(last=False)
                self._lane_stats["evictions"] += 1
        else:
            self._lane_stats["hits"] += 1
            self._lane_cache.move_to_end(key)
        return lanes

    def _pin(self, header: dict, arrays: list, evicted: list) -> None:
        """Pin the bundles the task frame pushed, in buffer order,
        collecting the keys each put evicted into ``evicted``.  The task's
        pattern is checked for the header's shape before it is pinned."""
        offset = 0
        for key, count in header.get("push") or ():
            key, count = str(key), int(count)
            bundle = arrays[offset : offset + count]
            if len(bundle) != count:
                raise ValueError(f"push of {key!r} names {count} arrays past the frame's end")
            offset += count
            if key == header.get("store_structure"):
                shape = tuple(int(n) for n in header["shape"])
                indptr, indices = bundle
                evicted += self.store.put(key, check_csr_structure(indptr, indices, shape))
                self._pattern_shapes[key] = shape
            else:
                evicted += self.store.put(key, bundle)
        self._forget(*evicted)
        if offset != len(arrays):
            raise ValueError(f"task frame carries {len(arrays) - offset} unnamed buffers")

    def _forget(self, *keys: str) -> None:
        """Drop the checked shapes of bundles no longer pinned."""
        for key in keys:
            if key not in self.store:
                self._pattern_shapes.pop(key, None)

    # ------------------------------------------------------------ task bodies
    def run_task(self, header: dict, arrays=()) -> tuple[dict, list]:
        """Execute one shard task; returns the reply ``(header, arrays)``.

        The frame's buffers are the bundles it pushes (``push``), pinned
        first.  ``store_structure`` names the ``[indptr, indices]`` bundle,
        ``store_values`` the ``[data]`` and ``store_operands`` the dense
        panels, in operand order.  The keys are acquired for the duration
        of the task (refcounted: eviction cannot pull a buffer out from
        under it).  A store that does not hold them all answers
        ``store_miss`` naming every absent key; any other failure answers
        ``error``.  Either way, and after a result, the keys in ``release``
        are dropped, and the reply names what the pushes evicted.
        """
        evicted: list[str] = []
        payload: list = []
        try:
            delay = float(header.get("delay_s") or 0.0)
            if delay > 0.0:  # failure-injection hook for the kill-mid-shard tests
                time.sleep(delay)
            self._pin(header, list(arrays), evicted)
            keys = (header["store_structure"], header["store_values"], *header["store_operands"])
            bundles = self.store.acquire(*keys)
            try:
                structure, (data,), *panels = bundles
                reply, payload = self._run_shard(
                    header, structure, data, [panel[0] for panel in panels]
                )
            finally:
                self.store.release(*keys)
            self.tasks_done += 1
        except StoreMissError as exc:
            # The task referenced keys this store no longer holds (evicted,
            # or a restarted process).  Not a failure: the head re-pushes
            # and resends.
            reply = {"type": "store_miss", "missing": exc.missing}
        except Exception as exc:  # computation error: report, stay up
            reply = {
                "type": "error",
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        finally:
            released = header.get("release") or ()
            self.store.discard(*released)
            self._forget(*released)
        reply.update(task_id=header.get("task_id"), evicted=evicted, **self._status())
        return reply, payload

    def _run_shard(
        self, header: dict, structure: list, data, operands: list
    ) -> tuple[dict, list]:
        """One window-aligned shard of a table op on the pinned matrix."""
        op = SHARD_OPS.get(header["op"])
        if op is None:
            raise ValueError(f"unknown op {header['op']!r}")
        # Re-checked here, by the same function the head sent them through
        # (an absent setting takes its default): a tampered header fails as
        # this task's error, not as bad numerics.
        params = shard_params(
            header["precision"], header.get("scale"), header.get("scale_by_mask", False)
        )
        kind = format_kind(header.get("fmt", "mebcrs"))  # unknown: ValueError
        checked = self._pattern_shapes.get(header["store_structure"])
        if checked != tuple(header["shape"]):
            raise ValueError(
                f"pattern checked for shape {checked}, task names {header['shape']}"
            )
        indptr, indices = structure
        data = check_csr_values(data)
        if data.shape[0] != indptr[-1]:
            raise ValueError(
                f"values bundle holds {data.shape[0]} values for {indptr[-1]} entries"
            )
        r = ShardRange(int(header["lo"]), int(header["hi"]), int(header["w0"]), int(header["w1"]))
        source = self._lanes(header, op, indptr, indices, data, params["precision"])
        sliced = op.slice(source, r, kind.vector_size)
        outputs, timings = op.run(sliced, operands, params)
        reply = {"type": "result", "row0": sliced["row0"]}
        if timings:
            reply["timings"] = timings
        return reply, outputs

    # ------------------------------------------------------------ connection
    def handshake(self, conn: socket.socket) -> bool:
        """Gate one fresh connection; False means drop it and keep accepting.

        A failed peer was already answered with a structured reject frame
        (where the stream allowed one) and counted — ``auth_rejects`` for
        a bad or missing digest, ``handshake_failures`` for everything
        else (version mismatch, protocol garbage, stream loss).
        """
        try:
            server_handshake(conn, auth_token=self.auth_token)
            return True
        except AuthenticationError:
            self.auth_rejects += 1
            return False
        except (TransportError, OSError):
            self.handshake_failures += 1
            return False

    def serve_connection(self, conn: socket.socket) -> bool:
        """Serve one head connection; returns True when asked to shut down.

        Any transport failure — a recv *or* a reply send (the head may
        close the connection while a task is computing) — just ends this
        connection: the worker goes back to ``accept`` with its cache warm,
        so a reconnecting head finds the host still there.
        """
        while True:
            try:
                header, arrays, _ = recv_message(
                    conn, max_frame_bytes=self.max_frame_bytes
                )
            except FrameTooLargeError:
                # An over-limit declaration is counted, then treated like
                # any other unusable stream: drop the connection (the limit
                # was hit *before* allocating) and go back to accept.
                self.frames_oversized += 1
                return False
            except FrameIntegrityError:
                # A corrupted payload is detected, counted, and costs the
                # connection — it never reaches a kernel.  The head
                # re-sends on its fresh connection.
                self.integrity_failures += 1
                return False
            except (TransportError, OSError):
                return False  # head went away: back to accept
            kind = header.get("type")
            try:
                if kind == "ping":
                    # The pong carries the pin store's key inventory on top
                    # of the usual gauges: a readmitting head re-warms its
                    # per-host ledger from this ground truth instead of
                    # assuming a restarted process is still warm.
                    send_message(
                        conn,
                        {
                            "type": "pong",
                            "store_keys": self.store.keys(),
                            **self._status(),
                        },
                    )
                elif kind == "shutdown":
                    try:
                        send_message(conn, {"type": "bye", **self._status()})
                    except (TransportError, OSError):
                        pass
                    return True
                elif kind == "task":
                    send_message(conn, *self.run_task(header, arrays))
                else:
                    send_message(
                        conn,
                        {"type": "error", "message": f"unknown message type {kind!r}"},
                    )
            except (TransportError, OSError):
                return False  # reply undeliverable: back to accept


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    ready=None,
    cache_maxsize: int = FORMAT_CACHE_MAXSIZE,
    max_frame_bytes: int | None = None,
    socket_wrapper=None,
    auth_token: str | None = None,
    tls_cert: str | None = None,
    tls_key: str | None = None,
    tls_ca: str | None = None,
    handshake_timeout_s: float = DEFAULT_HANDSHAKE_TIMEOUT_S,
    store_bytes: int = DEFAULT_STORE_BYTES,
) -> None:
    """Bind, announce the bound address, and serve until told to shut down.

    ``ready`` receives the bound ``(host, port)`` — a ``multiprocessing``
    pipe connection (its ``send`` is used) or any callable.  ``port=0``
    lets the kernel pick a free port, which is how the head spawns loopback
    hosts without port coordination.  ``max_frame_bytes`` bounds what any
    single incoming frame may declare; ``socket_wrapper`` wraps each
    accepted connection (the fault-injection hook — e.g.
    ``lambda c: plan.wrap(c, scope="worker-0")``) *above* TLS, so injected
    faults hit plaintext frames exactly as on a clear stream.

    ``auth_token`` arms the connection handshake; ``tls_cert``/``tls_key``
    serve the stream over TLS (``tls_ca`` demands client certificates
    too).  Every accepted connection must clear TLS + the handshake within
    ``handshake_timeout_s`` — a peer that stalls there is dropped without
    blocking the accept loop for anyone else.

    ``store_bytes`` budgets the pin store (push/pin).
    """
    state = WorkerHost(
        cache_maxsize=cache_maxsize,
        max_frame_bytes=max_frame_bytes,
        auth_token=auth_token,
        store_bytes=store_bytes,
    )
    ssl_context = (
        make_server_ssl_context(tls_cert, tls_key, cafile=tls_ca)
        if tls_cert is not None
        else None
    )
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, int(port)))
        listener.listen(1)
        address = listener.getsockname()
        if ready is not None:
            (ready.send if hasattr(ready, "send") else ready)(address)
        while True:
            conn, _ = listener.accept()
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(handshake_timeout_s)
                if ssl_context is not None:
                    try:
                        conn = ssl_context.wrap_socket(conn, server_side=True)
                    except (OSError, ValueError):
                        # TLS negotiation failed (plaintext peer, bad cert,
                        # stall): counted, dropped, next connection served.
                        state.handshake_failures += 1
                        continue
                if socket_wrapper is not None:
                    conn = socket_wrapper(conn)
                if not state.handshake(conn):
                    continue
                conn.settimeout(None)
                if state.serve_connection(conn):
                    return
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
    finally:
        listener.close()


def main(argv=None) -> None:  # pragma: no cover - thin CLI wrapper
    """``python -m repro.cluster.worker``: run one standalone worker host."""
    import argparse

    parser = argparse.ArgumentParser(description="FlashSparse cluster worker host")
    parser.add_argument("--host", default="127.0.0.1", help="interface to bind")
    parser.add_argument("--port", type=int, default=0, help="port (0 = kernel-picked)")
    parser.add_argument(
        "--cache-size",
        type=int,
        default=FORMAT_CACHE_MAXSIZE,
        help="lane-cache capacity (lane sets of pinned matrices)",
    )
    parser.add_argument(
        "--max-frame-bytes",
        type=int,
        default=None,
        help="reject frames declaring more than this many bytes (default: unbounded)",
    )
    parser.add_argument(
        "--store-bytes",
        type=int,
        default=DEFAULT_STORE_BYTES,
        help="pin-store budget for pushed matrix and operand bytes",
    )
    parser.add_argument(
        "--auth-token",
        default=os.environ.get(AUTH_TOKEN_ENV),
        help=(
            "shared secret heads must prove in the connection handshake "
            f"(default: ${AUTH_TOKEN_ENV}; unset = open access)"
        ),
    )
    parser.add_argument(
        "--tls-cert", default=None, help="PEM certificate to serve TLS with"
    )
    parser.add_argument(
        "--tls-key", default=None, help="PEM private key for --tls-cert"
    )
    parser.add_argument(
        "--tls-ca",
        default=None,
        help="PEM CA bundle; when set, client certificates are required",
    )
    args = parser.parse_args(argv)
    run_worker(
        host=args.host,
        port=args.port,
        ready=lambda addr: print(f"worker host listening on {addr[0]}:{addr[1]}", flush=True),
        cache_maxsize=args.cache_size,
        max_frame_bytes=args.max_frame_bytes,
        auth_token=args.auth_token,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
        tls_ca=args.tls_ca,
        store_bytes=args.store_bytes,
    )


if __name__ == "__main__":  # pragma: no cover
    main()
