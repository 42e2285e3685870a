"""Cluster head: host registry, affinity routing, fault-tolerant dispatch.

The :class:`ClusterScheduler` is the multi-host counterpart of the
in-process ``ShardScheduler`` and presents the
same execution interface (``run_spmm`` / ``run_sddmm`` / ``run_layer``,
``close``, ``stats_snapshot``), so the serving frontend plugs it in
unchanged.  What changes underneath:

* **Hosts, not processes.**  Each worker host is a separate process owning
  its own pin store and lane cache, reached over a long-lived TCP
  connection (loopback subprocesses here; the worker also runs standalone
  via ``python -m repro.cluster.worker`` on real machines).
* **Content-affinity routing.**  Shards are routed by the matrix's
  :meth:`~repro.formats.csr.CSRMatrix.content_key` under rendezvous
  (highest-random-weight) hashing: the same matrix always lands on the
  same host — whose pinned bundles and lane cache then serve every later
  request for it — while distinct matrices spread evenly, and removing a
  host only remaps the keys that pointed at it (DGL's partition-affinity routing,
  with rendezvous instead of a static partition book).
* **Health state machine, not a dead flag.**  Every host moves through
  ``HEALTHY → SUSPECT → DEAD → RECOVERING → HEALTHY``
  (:mod:`repro.cluster.membership`).  A transient transport failure —
  connect refused, timeout, reset — makes the host SUSPECT and triggers
  bounded exponential-backoff reconnects under a configurable
  :class:`~repro.cluster.transport.RetryPolicy`; only when every attempt
  fails is the host DEAD and its pending shards re-dispatched down the
  key's rendezvous order (in-parent as the last resort).  A network blip
  no longer costs a host forever.  Each shard has exactly one copy in
  flight: it waits out its host's re-dial, or fails over once the host
  is DEAD.
* **Live membership.**  ``add_host`` / ``remove_host`` change the fleet at
  runtime (removal is drain-aware: in-flight shards finish before the
  socket closes), and a background :class:`MembershipProbe` re-dials DEAD
  hosts and readmits them through a cache warm-up ping — rendezvous
  routing then naturally restores the readmitted host's affinity keys.
* **Trusted data plane.**  Every dial — first connect, backoff re-dial,
  membership probe — clears the authenticated handshake (and TLS, when
  configured) before any frame flows, and every inbound payload buffer is
  CRC-verified by the transport.  A corrupted shard result surfaces as
  :class:`~repro.cluster.transport.FrameIntegrityError` and is handled
  exactly like a transport failure: the connection recycles, the shard
  re-sends, and the request completes bit-identically — corruption costs
  a retry, never wrong numerics.
* **Push/pin data plane, one trip per shard.**  Operand bytes ship
  **once per (host, store key)**, not once per task: each host client
  keeps a ledger of what its worker has pinned (:mod:`repro.cluster.store`)
  and puts every ledger-missing bundle in the task frame that needs it —
  a served shard costs one frame each way, with no separate push round
  trip.  A matrix ships as its pattern (keyed by structure) and its
  values (keyed by content), so new values on a pattern a host already
  pinned cost one ``data`` push — and, on the worker, one cast: every op
  runs on the pinned CSR, never a translation.  A dense panel is
  content-keyed (one sha256 over the caller's operand and the
  precision) only when its source array is an object the head saw in an
  earlier request; any other panel gets a request-scoped key with no
  digest, and the request's last task on each host releases it.  A panel
  is quantised only when a frame pushes it.  A ``store_miss`` (eviction,
  cold restart) is handled like a transient transport failure — re-push,
  bounded; a shard whose store keeps missing (a budget smaller than one
  request's working set) runs in-parent instead, so a thrashing store
  costs throughput, never the request.
* **Checked assembly.**  Shard results return as transport payloads and
  are reassembled by :mod:`repro.cluster.assembly` with
  overlap/completeness checks — a result that arrives twice or never is
  caught, not silently placed.

Bit-exactness carries over from the in-process scheduler: workers run the
same shard-table entries (:data:`repro.kernels.engine.SHARD_OPS`) on the
same sources — lanes built from the same CSR arrays — so the cluster
result equals the single-process one-shot result exactly, for any shard
size, any host count, and across mid-shard host deaths and reconnects.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import queue
import secrets
import socket
import threading
import time
import weakref
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.assembly import SpmmAssembly
from repro.cluster.errors import HostDeadError, MembershipError, WorkerTaskError
from repro.cluster.membership import (
    ACCEPTING_STATES,
    DEFAULT_PROBE_INTERVAL_S,
    PREFERRED_STATES,
    HostHealth,
    MembershipProbe,
)
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.store import (
    StoreMissError,
    make_store_key,
    operand_store_key,
    request_store_key,
)
from repro.cluster.transport import (
    AuthenticationError,
    FrameIntegrityError,
    FrameTooLargeError,
    HandshakeError,
    RetryPolicy,
    TransportError,
    client_handshake,
    make_client_ssl_context,
    recv_message,
    send_message,
)
from repro.cluster.worker import run_worker
from repro.formats.blocked import BlockedVectorFormat
from repro.formats.cache import format_kind
from repro.formats.csr import CSRMatrix
from repro.kernels.engine import SHARD_OPS, shard_params
from repro.precision.types import Precision, quantize

#: Idle gap after which a host client probes its host with a ping.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.5
#: Pong wait before an idle host is suspected.
DEFAULT_HEARTBEAT_TIMEOUT_S = 5.0
#: Result wait per shard task before the host is suspected (generous: an
#: outright-killed host is detected immediately via the socket reset — this
#: bound only catches a wedged-but-connected host).
DEFAULT_TASK_TIMEOUT_S = 120.0
#: Default shards per request, as a multiple of the host count: fine enough
#: that a mid-request host death loses only a slice of the work.
SHARDS_PER_HOST = 2


def rendezvous_rank(content_key: str, host_ids) -> list[str]:
    """Host ids ordered by rendezvous (highest-random-weight) hash.

    Every (key, host) pair gets an independent pseudo-random score; the
    ranking is the descending score order.  Properties the cluster relies
    on: deterministic, uniform across hosts over many keys, and *minimally
    disruptive* — removing a host leaves the relative order of the
    survivors unchanged, so only the dead host's keys move (and a
    readmitted host gets exactly its old keys back).
    """
    scored = sorted(
        (
            hashlib.blake2b(
                f"{content_key}|{host_id}".encode(), digest_size=8
            ).digest(),
            host_id,
        )
        for host_id in host_ids
    )
    return [host_id for _, host_id in reversed(scored)]


class _Stop:
    """Inbox sentinel shutting a host client down."""


class _Bundle:
    """The arrays behind one store key of a request's store plan, ready to
    ship: ``count`` arrays of ``nbytes`` in all."""

    def __init__(self, arrays: list):
        self._arrays = arrays
        self.count = len(arrays)
        self.nbytes = sum(int(a.nbytes) for a in arrays)

    def arrays(self) -> list:
        """The bundle's arrays, in push order."""
        return self._arrays


class _Panel(_Bundle):
    """A dense operand panel, held as the caller passed it and quantised on
    the first :meth:`arrays` call — when a task frame pushes it or a shard
    runs in-parent.  A panel every host already pins is never quantised,
    and one that ships is quantised once per request: host-client threads
    and the in-parent fallback may ask at the same time, and the first one
    quantises under the lock."""

    def __init__(self, operand: np.ndarray, precision: str):
        self._arrays = None
        self._operand, self._precision = operand, precision
        self._lock = threading.Lock()
        self.count, self.nbytes = 1, 4 * int(operand.size)

    def arrays(self) -> list:
        with self._lock:
            if self._arrays is None:
                # In the operand's own dtype: a float64 panel rounds to fp16
                # once, not through float32.
                quantised = quantize(self._operand, self._precision)
                self._arrays = [np.ascontiguousarray(quantised, dtype=np.float32)]
                self._operand = None
            return self._arrays


@dataclass
class _Task:
    """One shard task travelling through a host client.

    ``store_plan`` lists ``(store_key, bundle)`` pairs — the matrix's
    pattern, its values, then one :class:`_Panel` per dense operand.  The
    client names every key in the task header and carries the bundles its
    ledger says the worker lacks as the frame's buffers.
    """

    header: dict
    store_plan: list
    future: Future = field(default_factory=Future)


def _describe_task(header: dict) -> str:
    """Post-mortem description of a task (what was on the wire at death)."""
    key = str(header.get("content_key") or "")[:12]
    return (
        f"{header.get('op')} shard {header.get('task_id')} "
        f"blocks [{header.get('lo')},{header.get('hi')}) of {key or '?'}"
    )


class _HostClient(threading.Thread):
    """Owns the connection to one worker host.

    One thread per host: it drains an inbox of shard tasks (send frame,
    wait for the reply frame), and pings the host when the inbox has been
    idle for a heartbeat interval.  A transport failure — connect, send,
    recv, ping — no longer kills the host outright: the client turns
    SUSPECT and re-dials under its :class:`RetryPolicy` (resending the
    in-flight task on the fresh connection); only when every backoff
    attempt fails does the host go DEAD — the in-flight task and
    everything still queued then fail with :class:`HostDeadError` and the
    submitting request re-routes them.
    """

    def __init__(
        self,
        host_id: str,
        address: tuple,
        metrics: ClusterMetrics,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        connect_timeout_s: float = 10.0,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        max_frame_bytes: int | None = None,
        auth_token: str | None = None,
        ssl_context=None,
        initial_state: HostHealth = HostHealth.HEALTHY,
    ):
        super().__init__(name=f"repro-cluster-{host_id}", daemon=True)
        self.host_id = host_id
        self.address = (address[0], int(address[1]))
        self.metrics = metrics
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.max_frame_bytes = max_frame_bytes
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self._inbox: "queue.Queue[_Task | _Stop]" = queue.Queue()
        self._lock = threading.Lock()
        self._sock = None
        self.state = initial_state
        self.draining = False
        self._stopping = False
        self._wake = threading.Event()  # interrupts backoff sleeps on stop()
        #: Set once the host answered the shutdown frame: its worker is
        #: exiting.  A host without it never got the frame (no live
        #: connection at close) and is terminated instead of waited for.
        self.said_bye = False
        self._in_flight = False
        self._reconnect_epoch = 0  # keys the jitter stream per SUSPECT episode
        #: Store keys the head believes this worker has pinned.  It lives
        #: on the client, so a DEAD host's ledger dies with it (a restarted
        #: worker is never assumed warm) and readmission starts from the
        #: inventory the warm-up pong actually reports.  Only this client's
        #: thread mutates it (tasks and heartbeats are serialised there).
        self.ledger: set[str] = set()

    # ------------------------------------------------------------- liveness
    @property
    def alive(self) -> bool:
        """Whether the head still considers this host usable."""
        return self.state is not HostHealth.DEAD

    @property
    def accepting(self) -> bool:
        """Whether new shard submissions may be handed to this host."""
        return (
            not self._stopping
            and not self.draining
            and self.state in ACCEPTING_STATES
        )

    @property
    def idle(self) -> bool:
        """No queued and no in-flight task (the drain-complete signal)."""
        return self._inbox.empty() and not self._in_flight

    # -------------------------------------------------------------- lifecycle
    def _dial(self):
        """One connect attempt: TCP → TLS → fault wrapper → handshake.

        The fault wrapper sits *above* TLS so injected faults hit the
        plaintext frame stream exactly as they would a clear socket.  The
        connection is only returned once the handshake cleared; a reject
        is recorded (``auth_rejects`` / ``handshake_failures``) and
        re-raised — to the retry machinery it is one more failed dial.
        """
        if self.fault_plan is not None:
            self.fault_plan.check_connect(scope=self.host_id)
        sock = socket.create_connection(self.address, timeout=self.connect_timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.ssl_context is not None:
                sock = self.ssl_context.wrap_socket(sock)
            if self.fault_plan is not None:
                sock = self.fault_plan.wrap(sock, scope=self.host_id)
            sent, received = client_handshake(sock, auth_token=self.auth_token)
        except BaseException as exc:
            try:
                sock.close()
            except OSError:
                pass
            if isinstance(exc, HandshakeError):
                self.metrics.record_handshake_failure(
                    self.host_id, auth=isinstance(exc, AuthenticationError)
                )
            raise
        self.metrics.record_transport_bytes(self.host_id, sent=sent, received=received)
        return sock

    def connect(self) -> None:
        """Establish the host connection (called before the thread starts)."""
        self._sock = self._dial()

    def warmup(self) -> None:
        """Cache warm-up ping gating readmission (RECOVERING → HEALTHY).

        Verifies the host answers frames end to end, pulls its
        lane-cache counters into the head's metrics, and re-warms
        the pinned-store ledger from the inventory the pong reports — a
        worker that survived the outage keeps its pushed matrices without
        a re-push, while a restarted (cold) process reports an empty
        inventory and gets everything pushed again on first use.
        """
        self._sock.settimeout(self.heartbeat_timeout_s)
        sent = send_message(self._sock, {"type": "ping"})
        header, _, received = recv_message(
            self._sock, max_frame_bytes=self.max_frame_bytes
        )
        self.metrics.record_transport_bytes(self.host_id, sent=sent, received=received)
        if header.get("type") != "pong":
            raise TransportError(f"unexpected warm-up reply {header.get('type')!r}")
        self.ledger = set(header.get("store_keys") or ())
        self.metrics.record_heartbeat(
            self.host_id,
            ok=True,
            cache=header.get("cache"),
            security=header.get("security"),
            store=header.get("store"),
        )
        self._set_state(HostHealth.HEALTHY)

    def submit(self, task: _Task) -> bool:
        """Enqueue a task; False when the host cannot take it (dead,
        draining, or shutting down)."""
        with self._lock:
            if not self.accepting:
                return False
            self._inbox.put(task)
            return True

    def stop(self) -> None:
        """Ask the client thread to shut its host down and exit."""
        with self._lock:
            self._stopping = True
            self._wake.set()
            if self.state is not HostHealth.DEAD and self.is_alive():
                self._inbox.put(_Stop())
                return
        self._close_socket()

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                # shutdown(), not just close(): worker processes forked
                # after this connection was dialled inherit a dup of its
                # FD, and close() alone would leave the peer blocked in
                # recv on a stream only the dup keeps alive.  shutdown()
                # tears the TCP stream down regardless of dup FDs.
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------- state machine
    def _set_state(self, new: HostHealth) -> None:
        with self._lock:
            old = self.state
            if old is new:
                return
            self.state = new
        self.metrics.record_state_transition(self.host_id, old.value, new.value)

    def _mark_dead(
        self,
        cause: BaseException | None,
        in_flight: str | None = None,
        record: bool = True,
    ) -> None:
        """Flip to DEAD and fail everything queued (idempotent).

        ``record=False`` is the graceful-shutdown path: the state still
        moves (the machine stays truthful) but no host death or failure
        forensics are logged.
        """
        with self._lock:
            if self.state is HostHealth.DEAD:
                return
            old = self.state
            self.state = HostHealth.DEAD
            drained: list[_Task] = []
            while True:
                try:
                    item = self._inbox.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _Task):
                    drained.append(item)
        self._close_socket()
        self.metrics.record_state_transition(self.host_id, old.value, "dead")
        if record:
            self.metrics.record_host_death(self.host_id, cause=cause, in_flight=in_flight)
        for task in drained:
            self.metrics.record_task_failure(self.host_id)
            task.future.set_exception(
                HostDeadError(
                    f"host {self.host_id} died before running the shard: {cause}"
                )
            )

    def _recover_connection(self, cause: BaseException, in_flight: str | None = None) -> bool:
        """Transient transport failure: SUSPECT → bounded backoff re-dial.

        Returns True with a fresh connection up (state back to HEALTHY) —
        the caller resends whatever was on the wire — or False after the
        host went DEAD (RetryPolicy exhausted, or the client is stopping).
        """
        self._set_state(HostHealth.SUSPECT)
        self._close_socket()
        self._reconnect_epoch += 1
        key = f"{self.host_id}#{self._reconnect_epoch}"
        last: BaseException = cause
        for delay in self.retry_policy.delays(key):
            if self._wake.wait(delay) or self._stopping:
                break
            try:
                sock = self._dial()
            except (OSError, TransportError) as exc:
                # OSError covers refused/reset dials; TransportError covers
                # a failed handshake (auth reject, version mismatch) — the
                # dial already recorded which.  Either way: one attempt.
                self.metrics.record_reconnect_attempt(self.host_id, ok=False)
                last = exc
                continue
            self._sock = sock
            self.metrics.record_reconnect_attempt(self.host_id, ok=True)
            self._set_state(HostHealth.HEALTHY)
            return True
        self._mark_dead(last, in_flight=in_flight, record=not self._stopping)
        return False

    # -------------------------------------------------------------- mainloop
    def run(self) -> None:  # pragma: no branch - loop structure
        try:
            while not self._stopping and self.state is not HostHealth.DEAD:
                try:
                    item = self._inbox.get(timeout=self.heartbeat_interval_s)
                except queue.Empty:
                    self._heartbeat()
                    continue
                if isinstance(item, _Stop):
                    self._shutdown_host()
                    return
                self._run_task(item)
        except BaseException as exc:  # pragma: no cover - defensive backstop
            # Whatever escapes, the host must never look alive with a dead
            # client thread behind it: queued tasks would hang forever.
            self._mark_dead(exc)
            raise
        # Stopped between tasks, with the stop sentinel still queued behind
        # the rest: fail those tasks over and close the socket.
        self._mark_dead(None, record=False)

    def _task_frame(self, task: _Task) -> tuple[dict, list, list]:
        """``(header, pushed, arrays)`` for one send of ``task``.

        Every plan bundle the ledger says the worker lacks is pushed once in
        this frame: ``pushed`` lists its ``(key, bundle)`` pairs in buffer
        order, ``arrays`` their arrays, and the header's ``push`` names
        their keys and array counts.  Bundles already pinned (or pushed
        earlier in this frame) are counted as ``bytes_saved`` — the payload
        that did not have to cross the wire again — and a panel among them
        is not quantised.
        """
        pushed: dict[str, _Bundle] = {}
        for key, bundle in task.store_plan:
            if key in self.ledger or key in pushed:
                self.metrics.record_store_hit(self.host_id, bundle.nbytes)
            else:
                pushed[key] = bundle
        keys = [key for key, _ in task.store_plan]
        header = dict(
            task.header,
            store_structure=keys[0],
            store_values=keys[1],
            store_operands=keys[2:],
            push=[[key, bundle.count] for key, bundle in pushed.items()],
        )
        arrays = [a for bundle in pushed.values() for a in bundle.arrays()]
        return header, list(pushed.items()), arrays

    def _settle_ledger(self, task: _Task, pushed: list, reply: dict) -> None:
        """Bring the ledger up to date with a reply to ``task``: what its
        frame pushed is pinned, minus what the pushes evicted, what the
        worker reports missing and the request-scoped keys it released."""
        self.ledger.update(key for key, _ in pushed)
        self.ledger.difference_update(reply.get("evicted") or ())
        self.ledger.difference_update(reply.get("missing") or ())
        self.ledger.difference_update(task.header.get("release") or ())

    def _run_task(self, task: _Task) -> None:
        self._in_flight = True
        recoveries = 0
        miss_retries = 0
        try:
            while True:
                try:
                    header, pushed, arrays = self._task_frame(task)
                except Exception as exc:
                    # A panel failed to quantise: the request's error, and
                    # nothing has touched the stream.
                    task.future.set_exception(exc)
                    return
                try:
                    self._sock.settimeout(DEFAULT_TASK_TIMEOUT_S)
                    sent = send_message(self._sock, header, arrays)
                    self.metrics.record_task_sent(self.host_id, sent)
                    for _, bundle in pushed:
                        self.metrics.record_store_put(self.host_id, bundle.nbytes)
                    header, arrays, received = recv_message(
                        self._sock, max_frame_bytes=self.max_frame_bytes
                    )
                except Exception as exc:
                    # Transport errors, timeouts, *and* anything a corrupt
                    # or hostile reply frame raises while being parsed: the
                    # stream is unusable either way.  The host turns
                    # SUSPECT and the connection is re-dialled with backoff
                    # — a blip costs one resend, not the host.
                    if isinstance(exc, FrameTooLargeError):
                        self.metrics.record_oversized_frame(self.host_id)
                    elif isinstance(exc, FrameIntegrityError):
                        # A shard result failed its payload CRC32: the
                        # corruption is detected *here*, before assembly —
                        # the retry below re-runs the shard, so the request
                        # still completes bit-identically.
                        self.metrics.record_integrity_failure(self.host_id)
                    # Bytes of the rejected frame still crossed the socket.
                    self.metrics.record_transport_bytes(
                        self.host_id, received=getattr(exc, "bytes_read", 0)
                    )
                    # The worker may have run the task and dropped its
                    # released keys: the resend pushes them again.
                    self.ledger.difference_update(task.header.get("release") or ())
                    recoveries += 1
                    # Bounded reconnect-and-resend cycles *per task*: a
                    # persistent failure (say, a result frame that always
                    # exceeds max_frame_bytes) must not livelock the client
                    # in an eternally-successful reconnect loop.
                    in_budget = recoveries <= max(1, self.retry_policy.max_attempts)
                    if in_budget and self._recover_connection(
                        exc, in_flight=_describe_task(task.header)
                    ):
                        continue  # resend the task on the fresh connection
                    if not in_budget:
                        self._mark_dead(exc, in_flight=_describe_task(task.header))
                    self.metrics.record_task_failure(self.host_id)
                    task.future.set_exception(
                        HostDeadError(f"host {self.host_id} died mid-shard: {exc}")
                    )
                    return
                self._settle_ledger(task, pushed, header)
                if header.get("type") == "store_miss":
                    # The worker no longer holds keys the ledger promised
                    # (evicted under budget pressure, or a restarted cold
                    # process).  Treated like a transient failure: the
                    # stale entries are out of the ledger, so the resend
                    # re-pushes them, bounded.  Past the budget the store
                    # is thrashing (smaller than this request's working
                    # set): hand the shard back for in-parent execution —
                    # the host itself is fine.
                    self.metrics.record_store_miss(self.host_id)
                    self.metrics.record_transport_bytes(
                        self.host_id, received=received, frame_type="store_miss"
                    )
                    missing = list(header.get("missing", ()))
                    miss_retries += 1
                    if miss_retries > max(1, self.retry_policy.max_attempts):
                        task.future.set_exception(StoreMissError(missing))
                        return
                    continue
                if header.get("type") == "error":
                    # The *computation* failed on a live host: deterministic,
                    # so it is propagated rather than retried elsewhere.
                    self.metrics.record_task_failure(self.host_id)
                    task.future.set_exception(
                        WorkerTaskError(
                            f"shard failed on host {self.host_id}: {header.get('message')}\n"
                            f"{header.get('traceback', '')}"
                        )
                    )
                    return
                self.metrics.record_task_completed(
                    self.host_id,
                    received,
                    header.get("cache"),
                    security=header.get("security"),
                    store=header.get("store"),
                )
                task.future.set_result((header, arrays))
                return
        finally:
            self._in_flight = False

    def _heartbeat(self) -> None:
        if self._sock is None:  # pragma: no cover - defensive
            return
        try:
            self._sock.settimeout(self.heartbeat_timeout_s)
            sent = send_message(self._sock, {"type": "ping"})
            self.metrics.record_transport_bytes(self.host_id, sent=sent)
            header, _, received = recv_message(
                self._sock, max_frame_bytes=self.max_frame_bytes
            )
            self.metrics.record_transport_bytes(self.host_id, received=received)
            if header.get("type") != "pong":
                raise TransportError(f"unexpected heartbeat reply {header.get('type')!r}")
        except Exception as exc:  # transport failure or unparseable pong
            if isinstance(exc, FrameIntegrityError):
                self.metrics.record_integrity_failure(self.host_id)
            self.metrics.record_transport_bytes(
                self.host_id, received=getattr(exc, "bytes_read", 0)
            )
            self.metrics.record_heartbeat(self.host_id, ok=False)
            self._recover_connection(exc)
            return
        # The pong's key inventory is ground truth for the ledger: a worker
        # that restarted behind the same address (cold store) stops looking
        # warm at the next idle beat instead of at the next store_miss.
        self.ledger = set(header.get("store_keys") or ())
        self.metrics.record_heartbeat(
            self.host_id,
            ok=True,
            cache=header.get("cache"),
            security=header.get("security"),
            store=header.get("store"),
        )

    def _shutdown_host(self) -> None:
        try:
            self._sock.settimeout(self.heartbeat_timeout_s)
            send_message(self._sock, {"type": "shutdown"})
            # The worker's "bye" — bounded like every other head-side read.
            recv_message(self._sock, max_frame_bytes=self.max_frame_bytes)
            self.said_bye = True
        except (TransportError, OSError):
            pass
        self._mark_dead(None, record=False)


@dataclass
class HostState:
    """One registered worker host as the head sees it."""

    host_id: str
    address: tuple
    client: _HostClient
    #: The local subprocess backing the host (None for external addresses).
    process: "mp.process.BaseProcess | None" = None
    #: Set once the host has been removed from the cluster (terminal).
    removed: bool = False

    @property
    def state(self) -> HostHealth:
        """Current health state (the readmission probe may swap the client
        behind this, so always read through it)."""
        return self.client.state

    @property
    def alive(self) -> bool:
        """Whether the head still considers this host usable."""
        return not self.removed and self.client.alive

    @property
    def accepting(self) -> bool:
        """Whether new shards may be routed here."""
        return not self.removed and self.client.accepting


def spawn_local_host(
    mp_context, host_id: str, **worker_kwargs
) -> tuple["mp.process.BaseProcess", tuple]:
    """Start one loopback worker-host subprocess; returns (process, address).

    The worker binds a kernel-picked port and reports it through a pipe, so
    any number of hosts start without port coordination.  Extra keyword
    arguments are passed to :func:`repro.cluster.worker.run_worker`.
    """
    recv_conn, send_conn = mp_context.Pipe(duplex=False)
    process = mp_context.Process(
        target=run_worker,
        kwargs={"host": "127.0.0.1", "port": 0, "ready": send_conn, **worker_kwargs},
        name=f"repro-cluster-worker-{host_id}",
        daemon=True,
    )
    process.start()
    send_conn.close()
    if not recv_conn.poll(30.0):
        process.terminate()
        raise RuntimeError(f"worker host {host_id} never reported its address")
    address = recv_conn.recv()
    recv_conn.close()
    return process, tuple(address)


class ClusterScheduler:
    """Head of a multi-host cluster; same ``run_*`` interface as the
    in-process ``ShardScheduler``.

    Parameters
    ----------
    hosts:
        Number of loopback worker-host subprocesses to spawn.  ``0`` runs
        every shard in-parent (the degenerate single-host cluster — no
        sockets, no subprocesses).
    addresses:
        Explicit ``(host, port)`` addresses of already-running worker
        hosts (``python -m repro.cluster.worker``); overrides ``hosts``.
    heartbeat_interval_s / heartbeat_timeout_s:
        Failure-detector knobs (see :class:`_HostClient`); a shard result
        is awaited :data:`DEFAULT_TASK_TIMEOUT_S` before its host is
        suspected.
    retry_policy:
        :class:`~repro.cluster.transport.RetryPolicy` for transient
        transport failures (default: 3 attempts, 50 ms base, 2 s cap).
        ``RetryPolicy(max_attempts=0)`` restores fail-fast host death.
    probe_interval_s / auto_readmit:
        Readmission probe cadence; ``auto_readmit=False`` disables the
        probe thread entirely (DEAD hosts then stay dead until
        ``add_host`` re-registers them).
    fault_plan:
        Optional :class:`repro.testing.faults.FaultPlan` wrapped around
        every head-side connection (deterministic fault injection).
    worker_fault_plan:
        Optional :class:`~repro.testing.faults.FaultPlan` installed on the
        *worker* side of every spawned loopback host (scoped by host id) —
        the hook that lets tests corrupt result frames where they are
        written.  Requires a platform where hosts fork.
    max_frame_bytes:
        Per-connection bound on declared frame sizes, enforced on both
        the head side and spawned loopback workers (see
        :class:`~repro.cluster.transport.FrameTooLargeError`).
    auth_token:
        Shared secret for the connection handshake: every head-side dial
        (task connections, heartbeat re-dials, membership probes — they
        all go through the same dial path) proves possession via an
        HMAC-SHA256 over the worker's challenge nonce.  Spawned loopback
        workers are configured with the same token; external workers must
        be started with ``--auth-token`` (or ``$REPRO_CLUSTER_AUTH_TOKEN``).
    tls_cert / tls_key / tls_ca:
        Enable TLS on every host connection.  The head verifies the
        worker certificate against ``tls_ca`` (or, for a self-signed
        deployment, ``tls_cert`` itself); when ``tls_ca`` is given the
        head also presents ``tls_cert``/``tls_key`` as its client
        certificate (mutual TLS).  Spawned loopback workers serve with
        the same certificate.
    store_bytes:
        Pin-store budget (bytes) for spawned loopback workers — the
        push/pin cache of matrix and operand bytes (default: the worker's
        own 256 MiB; external workers take ``--store-bytes``).
    """

    def __init__(
        self,
        hosts: int = 1,
        addresses=None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        retry_policy: RetryPolicy | None = None,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        auto_readmit: bool = True,
        fault_plan=None,
        worker_fault_plan=None,
        max_frame_bytes: int | None = None,
        auth_token: str | None = None,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        tls_ca: str | None = None,
        store_bytes: int | None = None,
    ):
        if addresses is None and int(hosts) < 0:
            raise ValueError("hosts must be >= 0")
        self.metrics = ClusterMetrics()
        #: Test hook: seconds every dispatched task asks the worker to sleep
        #: before executing (widens the kill-mid-shard window).  Stamped per
        #: dispatch round, so clearing it spares the failover re-dispatch.
        self.inject_task_delay_s = 0.0
        self.max_frame_bytes = max_frame_bytes
        self.auth_token = auth_token
        #: Source arrays of earlier requests' dense operands, by ``id`` (see
        #: ``_operand_keys``); weak, so a caller's dropped array is
        #: forgotten.  The random token keeps this head's request-scoped
        #: store keys apart from any other head a worker served before.
        self._seen: "weakref.WeakValueDictionary[int, np.ndarray]" = (
            weakref.WeakValueDictionary()
        )
        self._seen_lock = threading.Lock()
        self._request_token = secrets.token_hex(8)
        self._request_ids = itertools.count()
        ssl_context = None
        if tls_cert is not None or tls_ca is not None:
            ssl_context = make_client_ssl_context(
                tls_ca if tls_ca is not None else tls_cert,
                certfile=tls_cert if tls_ca is not None else None,
                keyfile=tls_key if tls_ca is not None else None,
            )
        # Hosts fork where the platform can (cheap startup, inherited
        # imports), else use its default start method.
        self._mp_context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        self.hosts: list[HostState] = []
        self._hosts_lock = threading.RLock()
        self._next_host_index = 0
        self._closed = False
        self._client_kwargs = {
            "heartbeat_interval_s": heartbeat_interval_s,
            "heartbeat_timeout_s": heartbeat_timeout_s,
            "retry_policy": retry_policy if retry_policy is not None else RetryPolicy(),
            "fault_plan": fault_plan,
            "max_frame_bytes": max_frame_bytes,
            "auth_token": auth_token,
            "ssl_context": ssl_context,
        }
        self.membership: MembershipProbe | None = None
        try:
            if addresses is not None:
                for address in addresses:
                    self._register(self._new_host_id(), tuple(address), None)
            else:
                worker_kwargs: dict = {}
                if max_frame_bytes is not None:
                    worker_kwargs["max_frame_bytes"] = max_frame_bytes
                if auth_token is not None:
                    worker_kwargs["auth_token"] = auth_token
                if tls_cert is not None:
                    worker_kwargs["tls_cert"] = tls_cert
                    worker_kwargs["tls_key"] = tls_key
                    worker_kwargs["tls_ca"] = tls_ca
                if store_bytes is not None:
                    worker_kwargs["store_bytes"] = int(store_bytes)
                for _ in range(int(hosts)):
                    host_id = self._new_host_id()
                    kwargs = dict(worker_kwargs)
                    if worker_fault_plan is not None:
                        kwargs["socket_wrapper"] = worker_fault_plan.socket_wrapper(
                            scope=host_id
                        )
                    process, address = spawn_local_host(
                        self._mp_context, host_id, **kwargs
                    )
                    self._register(host_id, address, process)
            if auto_readmit:
                self.membership = MembershipProbe(self, interval_s=probe_interval_s)
                self.membership.start()
        except Exception:
            self.close()
            raise

    def _new_host_id(self) -> str:
        with self._hosts_lock:
            while True:
                host_id = f"host-{self._next_host_index}"
                self._next_host_index += 1
                if all(h.host_id != host_id for h in self.hosts):
                    return host_id

    def _register(self, host_id, address, process) -> HostState:
        client = _HostClient(host_id, address, self.metrics, **self._client_kwargs)
        client.connect()
        client.start()
        state = HostState(host_id=host_id, address=address, client=client, process=process)
        with self._hosts_lock:
            self.hosts.append(state)
        return state

    # ------------------------------------------------------------- interface
    @property
    def workers(self) -> int:
        """Configured host count (1 for the in-parent degenerate cluster);
        the serving frontend reports this in result metadata."""
        return max(1, len(self.hosts))

    def _hosts_view(self) -> list[HostState]:
        with self._hosts_lock:
            return list(self.hosts)

    def live_hosts(self) -> list[HostState]:
        """Hosts currently considered usable."""
        return [h for h in self._hosts_view() if h.alive]

    def dead_hosts(self) -> list[HostState]:
        """Registered hosts currently DEAD (the readmission probe's input)."""
        return [
            h
            for h in self._hosts_view()
            if not h.removed and h.state is HostHealth.DEAD and not h.client._stopping
        ]

    def affinity_host(self, content_key: str) -> HostState | None:
        """The host that rendezvous routing assigns ``content_key``.

        Hosts in a preferred state (HEALTHY / RECOVERING) win; SUSPECT
        hosts are used only when no preferred host exists for the key, so
        routing does not flap on a sub-second blip but also does not pile
        new work onto a host that is busy re-dialling.
        """
        candidates = {h.host_id: h for h in self._hosts_view() if h.accepting}
        if not candidates:
            return None
        preferred = {
            host_id: h
            for host_id, h in candidates.items()
            if h.state in PREFERRED_STATES
        }
        pool = preferred or candidates
        for host_id in rendezvous_rank(content_key, list(pool)):
            return pool[host_id]
        return None  # pragma: no cover - pool is never empty here

    # ------------------------------------------------------------ membership
    def add_host(self, address, host_id: str | None = None) -> HostState:
        """Join an already-running worker host to the live cluster.

        Rendezvous routing immediately includes the new host: the keys it
        wins move over on their next request, everything else stays put.
        """
        if self._closed:
            raise MembershipError("cannot add a host to a closed cluster")
        with self._hosts_lock:
            if host_id is None:
                host_id = self._new_host_id()
            elif any(h.host_id == host_id for h in self.hosts):
                raise MembershipError(f"host id {host_id!r} is already registered")
        state = self._register(host_id, tuple(address), None)
        self.metrics.record_host_added(host_id)
        return state

    def remove_host(self, host_id: str, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Remove ``host_id`` from the cluster at runtime.

        With ``drain=True`` (default) the host stops receiving new shards
        immediately but its queued and in-flight shards finish before the
        socket closes; ``drain=False`` stops it after the shard on the wire
        (everything queued behind that shard fails over like a host death,
        minus the death record).
        """
        with self._hosts_lock:
            state = next(
                (h for h in self.hosts if h.host_id == host_id and not h.removed), None
            )
            if state is None:
                raise MembershipError(f"unknown host {host_id!r}")
            state.client.draining = True  # affinity_host() skips it from now on
        if drain:
            deadline = time.monotonic() + timeout_s
            while (
                state.client.alive
                and not state.client.idle
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        state.client.stop()
        state.client.join(timeout=10.0)
        with self._hosts_lock:
            state.removed = True
            self.hosts = [h for h in self.hosts if h is not state]
        self._reap_process(state)
        self.metrics.record_host_removed(host_id)

    def try_readmit(self, state: HostState) -> bool:
        """Re-dial a DEAD host; readmit it behind a cache warm-up ping.

        Called by the :class:`MembershipProbe` (or directly by tests).  On
        success the host's client is replaced with a fresh connected one
        and the host serves its affinity keys again — its pin store and
        lane cache survived on the worker side, so repeat traffic hits
        warm.
        """
        if self._closed or state.removed or state.client.state is not HostHealth.DEAD:
            return False
        client = _HostClient(
            state.host_id,
            state.address,
            self.metrics,
            initial_state=HostHealth.RECOVERING,
            **self._client_kwargs,
        )
        try:
            client.connect()
        except (OSError, TransportError):
            # The probe's re-dial authenticates like any other connection;
            # a host answering with the wrong token stays DEAD.
            self.metrics.record_probe_dial(state.host_id, ok=False)
            return False
        self.metrics.record_probe_dial(state.host_id, ok=True)
        self.metrics.record_state_transition(state.host_id, "dead", "recovering")
        try:
            client.warmup()  # RECOVERING → HEALTHY, cache counters refreshed
        except Exception:
            client._close_socket()
            self.metrics.record_state_transition(state.host_id, "recovering", "dead")
            return False
        with self._hosts_lock:
            if self._closed or state.removed:
                client.stop()
                return False
            client.start()
            state.client = client
        self.metrics.record_readmission(state.host_id)
        return True

    # -------------------------------------------------------------- snapshot
    def stats_snapshot(self) -> dict:
        """Lifetime counters (superset of the single-host scheduler's)."""
        snap = self.metrics.snapshot()
        # The single-host scheduler's vocabulary, so dashboards and the
        # serving snapshot read both backends uniformly.
        snap["retries"] = snap["shards_failed_over"]
        snap["fallbacks"] = snap["inline_fallbacks"]
        return snap

    def close(self) -> None:
        """Shut every host down (idempotent): graceful shutdown frame,
        bounded join, then terminate whatever is left."""
        self._closed = True
        if self.membership is not None:
            self.membership.stop()
        hosts = self._hosts_view()
        for state in hosts:
            state.client.stop()
        for state in hosts:
            state.client.join(timeout=10.0)
        for state in hosts:
            self._reap_process(state)

    @staticmethod
    def _reap_process(state: HostState) -> None:
        process = state.process
        if process is None:
            return
        if not state.client.said_bye:
            # No shutdown frame reached this worker (its connection was down
            # at close), so it would sit in accept() through the whole join.
            process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()

    def __enter__(self) -> "ClusterScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, tasks: list[dict], content_key: str, inline_body) -> list[tuple]:
        """Run shard ``tasks``, failing over dead hosts; returns one
        ``(header, arrays)`` payload per task (inline results are
        synthesised by ``inline_body``).

        The last task each round sends to a host carries ``release``: the
        request-scoped store keys of its plan, which that host unpins
        after it.

        Routing: all tasks go to the key's first preferred host in
        rendezvous order; every re-dispatch moves the *unfinished* tasks to
        the next live host.  When the rank is exhausted (or the cluster has
        no hosts) the head runs the remainder in-parent — as it does a
        shard whose host's store kept missing, which another trip to the
        same thrashing host would not fix.  Any other task error is a
        failed shard computation: deterministic, so it propagates rather
        than being retried elsewhere.
        """
        self.metrics.record_request(len(tasks))
        results: dict[int, tuple] = {}
        pending = list(range(len(tasks)))
        inline: list[int] = []
        first_attempt = True
        while pending:
            target = self.affinity_host(content_key)
            if target is None:
                break  # no live host: in-parent fallback below
            if not first_attempt:
                self.metrics.record_failover(len(pending))
            first_attempt = False
            submitted: list[tuple[int, _Task]] = []
            delay = float(self.inject_task_delay_s)  # read per round: a test may clear it
            for index in pending:
                frame = tasks[index]["frame"]
                header = frame["header"]
                if delay:
                    header = dict(header, delay_s=delay)
                if index == pending[-1]:
                    # This host's last task of the request: the worker
                    # drops the request-scoped panels after it.
                    release = {k for k, _ in frame["store_plan"] if k.startswith("req/")}
                    if release:
                        header = dict(header, release=sorted(release))
                task = _Task(header, frame["store_plan"])
                if not target.client.submit(task):
                    break  # died mid-submit: the rest re-route next round
                submitted.append((index, task))
            still_pending = pending[len(submitted) :]
            for index, task in submitted:
                exc = task.future.exception()
                if exc is None:
                    results[index] = task.future.result()
                elif isinstance(exc, HostDeadError):
                    still_pending.append(index)
                elif isinstance(exc, StoreMissError):
                    inline.append(index)
                else:
                    raise exc
            pending = sorted(still_pending)
        inline += pending
        if inline:
            self.metrics.record_inline_fallback(len(inline))
            for index in inline:
                results[index] = inline_body(tasks[index])
        return [results[i] for i in range(len(tasks))]

    # ------------------------------------------------------------ kernel ops
    def _operand_keys(self, operands: list[np.ndarray], sources, precision: str) -> list[str]:
        """One store key per dense operand panel.

        ``operands`` are the request's panels as the caller passed them,
        unquantised; ``sources`` holds, per operand, the caller's array it
        was made from, or ``None`` (a coalesced concatenation has no single
        source).  A panel whose source is an object this head saw in an
        earlier request is likely to come back, so it gets a content key
        (:func:`~repro.cluster.store.operand_store_key`: one sha256 over
        the operand's dtype, shape and bytes plus ``precision``, the width
        it ships at) and stays pinned across requests — a key a host holds
        then costs that digest and no quantise.  Any other panel gets a
        request-scoped key with no digest; operands sharing a source share
        a key, so an ``a is b`` layer ships one bundle.  Without
        ``sources`` (a direct ``run_*`` caller) every panel is
        content-keyed.
        """
        if sources is None:
            return [operand_store_key(o, precision) for o in operands]
        request = f"{self._request_token}.{next(self._request_ids)}"
        keys: list[str] = []
        by_source: dict[int, str] = {}
        for i, (operand, source) in enumerate(zip(operands, sources)):
            if not isinstance(source, np.ndarray):
                keys.append(request_store_key(request, i))
                continue
            key = by_source.get(id(source))
            if key is None:
                with self._seen_lock:
                    seen = self._seen.get(id(source)) is source
                    self._seen[id(source)] = source
                if seen:
                    key = operand_store_key(operand, precision)
                else:
                    key = request_store_key(request, i)
                by_source[id(source)] = key
            keys.append(key)
        return keys

    def _run(
        self,
        op_name: str,
        fmt: BlockedVectorFormat,
        operands: list[np.ndarray],
        params: dict,
        csr: CSRMatrix,
        group: int | None = None,
        target_blocks: int | None = None,
        content_key: str | None = None,
        sources=None,
    ) -> tuple[np.ndarray, dict]:
        """Plan → dispatch → assemble for one table op (see
        :data:`repro.kernels.engine.SHARD_OPS`) over ``csr``, the matrix
        ``fmt`` translates.

        ``params`` are the request's settings as
        :func:`~repro.kernels.engine.shard_params` returned them: every
        task header carries them and the in-parent fallback runs with them,
        so a worker decoding its header runs the shard the same way.
        ``operands`` are unquantised; ``sources`` decides how the dense
        panels are keyed (see :meth:`_operand_keys`).  Returns the
        assembled output plus the per-stage seconds the shards reported,
        summed.
        """
        op = SHARD_OPS[op_name]
        # The worker cuts its windows by the format's vector size, named
        # by the format kind, never its class (an SDDMM output is a plain
        # ``BlockedVectorFormat``); an unknown size raises here, before
        # anything is sent.
        kind = format_kind(fmt.vector_size)
        shards = max(2, SHARDS_PER_HOST * max(1, len(self.hosts)))
        ranges, out_shape = op.plan(fmt, operands, group, shards, target_blocks)
        if not ranges:
            return np.zeros(out_shape, dtype=np.float32), {}
        if content_key is None:
            content_key = csr.content_key()

        # One store plan per request: the pattern keyed by the structure
        # key, the values by the routing content key, each dense panel by
        # :meth:`_operand_keys` — every shard of this request references
        # the same keys, so a host receives the bytes once, not once per
        # shard.  Repeat requests for a pinned matrix ship no matrix bytes
        # at all, and new values on a pinned pattern ship ``data`` alone.
        # Panels that share a key share one :class:`_Panel`, which
        # quantises only if a frame pushes it or a shard runs in-parent.
        structure_key = csr.structure_key()
        operand_keys = self._operand_keys(operands, sources, params["precision"])
        panels: dict[str, _Panel] = {}
        for key, operand in zip(operand_keys, operands):
            panels.setdefault(key, _Panel(operand, params["precision"]))
        store_plan = [
            (make_store_key("struct", structure_key), _Bundle([csr.indptr, csr.indices])),
            (make_store_key("vals", content_key), _Bundle([csr.data])),
            *((key, panels[key]) for key in operand_keys),
        ]
        base = {
            "type": "task",
            "op": op_name,
            "fmt": kind.name,
            "shape": list(csr.shape),
            "content_key": content_key,
            **params,
        }
        tasks = []
        for i, r in enumerate(ranges):
            header = dict(base, task_id=i, lo=r.lo, hi=r.hi, w0=r.w0, w1=r.w1)
            tasks.append({"frame": {"header": header, "store_plan": store_plan}, "range": r})

        def inline(task: dict) -> tuple:
            quantised = [panels[key].arrays()[0] for key in operand_keys]
            source = op.source(fmt, csr, params["precision"])
            sliced = op.slice(source, task["range"], fmt.vector_size)
            outputs, timings = op.run(sliced, quantised, params)
            return {"row0": sliced["row0"], "timings": timings}, outputs

        assembly = SpmmAssembly(*out_shape, num_shards=len(ranges))
        stage_seconds: dict[str, float] = {}
        for i, (header, arrays) in enumerate(self._dispatch(tasks, content_key, inline)):
            assembly.add(i, header["row0"], arrays[0])
            for stage, s in (header.get("timings") or {}).items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + float(s)
        return assembly.result(), stage_seconds

    def run_spmm(
        self,
        fmt: BlockedVectorFormat,
        b_q: np.ndarray,
        precision: Precision,
        csr: CSRMatrix,
        target_blocks: int | None = None,
        content_key: str | None = None,
        sources=None,
    ) -> np.ndarray:
        """``A @ B`` sharded across the cluster; bit-identical to one-shot.

        ``b_q`` arrives as the caller has it, unquantised (an already
        quantised panel gives the same bits: quantisation is idempotent).
        The scheduler quantises it to ``precision`` in its own dtype — and
        only if a task frame has to push it or a shard runs in-parent.
        ``csr`` is the matrix ``fmt`` translates: its arrays ship to the
        hosts and its ``content_key`` (computed when omitted) routes the
        request.  ``sources`` names the caller's array behind each operand,
        which decides whether a panel is worth a content key (see
        :meth:`_operand_keys`).
        """
        out, _ = self._run(
            "spmm",
            fmt,
            [b_q],
            shard_params(precision),
            csr,
            target_blocks=target_blocks,
            content_key=content_key,
            sources=sources,
        )
        return out

    def run_sddmm(
        self,
        fmt: BlockedVectorFormat,
        a_q: np.ndarray,
        b_q: np.ndarray,
        precision: Precision,
        group: int,
        csr: CSRMatrix,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        content_key: str | None = None,
        sources=None,
    ) -> np.ndarray:
        """Sampled dense×dense sharded across the cluster (bit-identical).

        Each shard returns one value per CSR entry of its rows; the
        assembled entries are scattered once through the translation's
        entry map, so the result is the ``(num_nonzero_vectors,
        vector_size)`` value array in the layout of ``fmt.vector_values``.
        Operands (unquantised), ``csr``, routing arguments and ``sources``
        as for :meth:`run_spmm`.
        """
        entries, _ = self._run(
            "sddmm",
            fmt,
            [a_q, b_q],
            shard_params(precision, scale_by_mask=scale_by_mask),
            csr,
            group=int(group),
            target_blocks=target_blocks,
            content_key=content_key,
            sources=sources,
        )
        return fmt.partition.scatter(entries[:, 0], np.float32)

    def run_layer(
        self,
        fmt: BlockedVectorFormat,
        a_q: np.ndarray,
        b_q: np.ndarray,
        x_q: np.ndarray,
        precision: Precision,
        csr: CSRMatrix,
        scale: float | None = None,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        content_key: str | None = None,
        sources=None,
    ) -> tuple[np.ndarray, dict]:
        """One whole attention layer — SDDMM → scale → softmax → SpMM — in a
        single cluster round trip per shard.

        Every shard ships as one ``task`` frame: the CSR bundle and
        all three dense panels ride the pinned store (so repeat layers over
        a pinned matrix ship no operand bytes at all), the worker runs the
        fused engine hook on the pinned CSR's lanes, and only the final
        dense rows come back — the SDDMM intermediate and the
        per-evaluation attention matrix never touch the wire.  Operands
        (unquantised), ``csr`` (the mask, whose rows are the softmax
        segments), routing arguments and ``sources`` as for
        :meth:`run_spmm`.

        Returns ``(rows, stage_seconds)`` — the dense layer output plus
        the per-stage wall-clock split summed across shards, matching
        ``ShardScheduler.run_layer``.
        """
        return self._run(
            "layer",
            fmt,
            [a_q, b_q, x_q],
            shard_params(precision, scale, scale_by_mask),
            csr,
            target_blocks=target_blocks,
            content_key=content_key,
            sources=sources,
        )
