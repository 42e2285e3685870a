"""Deterministic fault injection for the cluster transport.

Recovery correctness used to rest on SIGKILL tests: real subprocesses,
real sockets, real races — and therefore real flakiness and no way to
exercise a *specific* failure path (a truncated frame, a refused
reconnect, a reply delayed past the suspicion threshold) on demand.  This
module replaces that with a **seeded schedule of named faults** threaded
into the transport through an injectable socket wrapper:

* :class:`FaultPlan` holds the schedule.  Faults are armed with builder
  methods (``drop_connection``, ``delay_send``, ``truncate_frame``,
  ``corrupt_header``, ``corrupt_payload``, ``corrupt_checksum``,
  ``refuse_connect``, ``kill_host``) and each fires exactly once, at a
  deterministic point: the *n*-th transport frame of a matching message
  type within a matching scope (scopes are arbitrary labels — the head
  names them after host ids, a worker after itself).  One plan serves
  both ends of a connection: a frame-typed send fault fires at the end
  that sends that frame type (the head sends ``task``, ``ping`` and
  ``shutdown``; a worker ``result``, ``error``, ``store_miss`` and
  ``pong``), while recv-side faults, untyped faults and
  ``refuse_connect`` fire at the head only.
* :class:`FaultSocket` wraps a real socket.  The transport announces each
  frame boundary through the ``notify_frame_send`` / ``notify_frame_recv``
  hooks (see :mod:`repro.cluster.transport`), so fault schedules count
  **frames, not bytes** — heartbeat noise cannot shift a schedule aimed at
  ``type="task"`` frames, the one frame type every op's shards travel in.
  Inside a frame, ``notify_part_send`` names each part before it is
  written (prefix, header, and per buffer its length, its payload chunks
  and its CRC32 trailer), and the wrapper applies the armed fault to the
  raw bytes of the part it targets.
* ``refuse_connect`` is consulted by the head's connect path through
  :meth:`FaultPlan.check_connect`, and ``kill_host`` is a *driver-level*
  action: a chaos driver polls :meth:`FaultPlan.actions_at` each step and
  performs the kill itself (the plan stays a pure schedule).

Every fired fault is appended to :attr:`FaultPlan.fired`, so a test
asserts not just that the system recovered but that the intended faults
actually happened.  The ``seed`` feeds corruption bytes and any future
randomised choices; two plans built identically with the same seed replay
identically.
"""

from __future__ import annotations

import random
import socket as socket_mod
import threading
import time
from dataclasses import dataclass, field


@dataclass
class FaultEvent:
    """One fault that actually fired (the plan's audit log entry)."""

    kind: str
    scope: str | None
    detail: str
    at_unix: float = field(default_factory=time.time)


@dataclass
class _ArmedFault:
    """One scheduled fault counting down to its trigger frame."""

    kind: str
    scope: str | None  # None matches every scope
    side: str  # "send" | "recv" | "connect" | "action"
    frame_type: str | None  # match only frames of this header type (send side)
    remaining: int  # fires when the countdown of matching events hits 0
    params: dict = field(default_factory=dict)
    fired: bool = False

    def matches(self, scope: str | None, frame_type: str | None) -> bool:
        if self.fired:
            return False
        if self.scope is not None and scope != self.scope:
            return False
        if self.frame_type is not None and frame_type != self.frame_type:
            return False
        return True


class FaultPlan:
    """A seeded, deterministic schedule of named transport faults.

    Build the schedule with the chainable fault methods, hand the plan to
    the component under test (``ClusterScheduler(faults=plan)`` wraps every
    head-side connection and serves every host it spawns behind
    :meth:`socket_wrapper`), then assert on :attr:`fired`.  That log is
    this process's: a spawned host fires faults in its own copy of the
    plan, taken when it starts.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.RLock()
        self._armed: list[_ArmedFault] = []
        self._actions: list[_ArmedFault] = []
        #: Audit log of every fault that fired, in firing order.
        self.fired: list[FaultEvent] = []

    def __getstate__(self) -> dict:
        # A lock cannot be pickled: a copy (a spawned host's) gets its own.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------- scheduling
    def _arm(self, fault: _ArmedFault) -> "FaultPlan":
        if fault.remaining < 1:
            raise ValueError("nth must be >= 1 (the nth matching frame fires the fault)")
        with self._lock:
            self._armed.append(fault)
        return self

    def drop_connection(
        self,
        *,
        nth: int = 1,
        type: str | None = "task",
        scope: str | None = None,
        side: str = "send",
    ) -> "FaultPlan":
        """Reset the connection at the ``nth`` matching frame boundary.

        ``side="send"`` drops before any byte of the frame leaves;
        ``side="recv"`` drops when the receiver starts reading its ``nth``
        frame in scope (recv-side frames have no type yet, so ``type`` is
        ignored there).
        """
        if side not in ("send", "recv"):
            raise ValueError("side must be 'send' or 'recv'")
        return self._arm(
            _ArmedFault(
                kind="drop_connection",
                scope=scope,
                side=side,
                frame_type=type if side == "send" else None,
                remaining=nth,
            )
        )

    def delay_send(
        self,
        ms: float,
        *,
        nth: int = 1,
        type: str | None = "task",
        scope: str | None = None,
    ) -> "FaultPlan":
        """Sleep ``ms`` milliseconds before sending the ``nth`` matching frame."""
        return self._arm(
            _ArmedFault(
                kind="delay_send",
                scope=scope,
                side="send",
                frame_type=type,
                remaining=nth,
                params={"ms": float(ms)},
            )
        )

    def truncate_frame(
        self,
        *,
        nth: int = 1,
        type: str | None = "task",
        scope: str | None = None,
        at: str = "header",
        buffer: int = 0,
    ) -> "FaultPlan":
        """Cut the ``nth`` matching frame short, then reset — the peer
        observes a mid-frame EOF.

        ``at="header"`` sends the prefix and half the header;
        ``at="buffer"`` sends half of buffer ``buffer``'s first chunk;
        ``at="trailer"`` sends buffer ``buffer`` whole but not its CRC32
        trailer.
        """
        if at not in ("header", "buffer", "trailer"):
            raise ValueError("at must be 'header', 'buffer' or 'trailer'")
        return self._arm(
            _ArmedFault(
                kind="truncate_frame",
                scope=scope,
                side="send",
                frame_type=type,
                remaining=nth,
                params={"at": at, "buffer": int(buffer)},
            )
        )

    def corrupt_header(
        self,
        *,
        nth: int = 1,
        type: str | None = "task",
        scope: str | None = None,
    ) -> "FaultPlan":
        """Flip header bytes of the ``nth`` matching frame (seeded positions);
        the peer observes an undecodable JSON header."""
        return self._arm(
            _ArmedFault(
                kind="corrupt_header",
                scope=scope,
                side="send",
                frame_type=type,
                remaining=nth,
            )
        )

    def corrupt_payload(
        self,
        *,
        nth: int = 1,
        type: str | None = "task",
        scope: str | None = None,
        buffer: int = 0,
    ) -> "FaultPlan":
        """Flip bits inside declared ndarray buffer ``buffer`` of the ``nth``
        matching frame (seeded positions).

        This is the silent-corruption fault: the frame stays structurally
        valid — magic, header, lengths all parse — but the payload bytes no
        longer match their CRC32 trailer, so the receiver detects it as a
        :class:`~repro.cluster.transport.FrameIntegrityError` instead of
        feeding the flipped bits straight into a kernel.
        """
        return self._arm(
            _ArmedFault(
                kind="corrupt_payload",
                scope=scope,
                side="send",
                frame_type=type,
                remaining=nth,
                params={"buffer": int(buffer)},
            )
        )

    def corrupt_checksum(
        self,
        *,
        nth: int = 1,
        type: str | None = "task",
        scope: str | None = None,
        buffer: int = 0,
    ) -> "FaultPlan":
        """Flip a bit of buffer ``buffer``'s CRC32 trailer in the ``nth``
        matching frame (payload bytes untouched).

        The inverse of :meth:`corrupt_payload`: the data is fine but its
        checksum lies, so the receiver must reject the frame rather than
        trust the trailer.
        """
        return self._arm(
            _ArmedFault(
                kind="corrupt_checksum",
                scope=scope,
                side="send",
                frame_type=type,
                remaining=nth,
                params={"buffer": int(buffer)},
            )
        )

    def refuse_connect(self, n: int = 1, *, scope: str | None = None) -> "FaultPlan":
        """Refuse the next ``n`` connect attempts in ``scope`` with
        ``ConnectionRefusedError`` (each refusal is one fired event)."""
        with self._lock:
            self._armed.append(
                _ArmedFault(
                    kind="refuse_connect",
                    scope=scope,
                    side="connect",
                    frame_type=None,
                    remaining=int(n),
                )
            )
        return self

    def kill_host(self, *, step: int, host: str) -> "FaultPlan":
        """Schedule a driver-level host kill at driver ``step`` (the chaos
        driver polls :meth:`actions_at` and performs the kill itself)."""
        with self._lock:
            self._actions.append(
                _ArmedFault(
                    kind="kill_host",
                    scope=host,
                    side="action",
                    frame_type=None,
                    remaining=1,
                    params={"step": int(step)},
                )
            )
        return self

    # ------------------------------------------------------------------ hooks
    def _record(self, fault: _ArmedFault, detail: str) -> None:
        fault.fired = True
        self.fired.append(FaultEvent(kind=fault.kind, scope=fault.scope, detail=detail))

    def _take(
        self, side: str, scope: str | None, frame_type: str | None, typed_only: bool = False
    ) -> list[_ArmedFault]:
        """Count this event against matching armed faults; return the firing
        ones (``typed_only``: only faults that name a frame type)."""
        firing: list[_ArmedFault] = []
        with self._lock:
            for fault in self._armed:
                if fault.side != side or not fault.matches(scope, frame_type):
                    continue
                if typed_only and fault.frame_type is None:
                    continue
                fault.remaining -= 1
                if fault.remaining == 0:
                    firing.append(fault)
        return firing

    def wrap(self, sock, scope: str | None = None, *, worker_end: bool = False):
        """Wrap ``sock`` so this plan's schedule applies to its frames
        (``worker_end``: only the send faults that name a frame type)."""
        return FaultSocket(self, sock, scope=scope, worker_end=worker_end)

    def socket_wrapper(self, scope: str | None = None) -> "PlanSocketWrapper":
        """The worker end of this plan, bound to ``scope``: a
        ``socket_wrapper`` for ``run_worker`` that applies the frame-typed
        send faults and leaves recv-side and untyped faults to the head.
        It pickles, so a host spawned by fork or by spawn takes its own
        copy of the plan."""
        return PlanSocketWrapper(self, scope)

    def check_connect(self, scope: str | None = None) -> None:
        """Connect-path hook: raises while armed refusals remain for ``scope``.

        Unlike frame faults (which count *up to* their trigger), a refusal
        fault fires on *every* consultation until its budget of ``n``
        refusals is spent — each refusal is one ``fired`` event.
        """
        with self._lock:
            for fault in self._armed:
                if fault.side != "connect" or fault.fired:
                    continue
                if fault.scope is not None and scope != fault.scope:
                    continue
                fault.remaining -= 1
                if fault.remaining <= 0:
                    fault.fired = True
                self.fired.append(
                    FaultEvent(
                        kind=fault.kind,
                        scope=fault.scope,
                        detail=f"connect refused (scope={scope})",
                    )
                )
                raise ConnectionRefusedError(
                    f"[fault injection] connection refused (scope={scope})"
                )

    def actions_at(self, step: int) -> list[tuple[str, str]]:
        """Driver-level actions due at or before ``step``: ``[(kind, host)]``."""
        due: list[tuple[str, str]] = []
        with self._lock:
            for fault in self._actions:
                if not fault.fired and fault.params["step"] <= int(step):
                    self._record(fault, f"scheduled at step {fault.params['step']}")
                    due.append((fault.kind, fault.scope))
        return due

    def corruption(self, n: int) -> list[int]:
        """``n`` deterministic byte positions drawn from the plan's seed."""
        with self._lock:
            return [self._rng.randrange(2**31) for _ in range(n)]

    def fired_kinds(self) -> list[str]:
        """The kinds of every fired fault, in firing order (assert helper)."""
        with self._lock:
            return [event.kind for event in self.fired]


class FaultSocket:
    """A socket proxy that applies a :class:`FaultPlan` at frame boundaries.

    The transport calls :meth:`notify_frame_send` / :meth:`notify_frame_recv`
    once per frame; the wrapper decides there (under the plan lock, from the
    deterministic frame count) which faults fire.  :meth:`notify_part_send`
    then names each part of the outgoing frame before its ``sendall``
    calls, and the wrapper applies the firing faults to the part they
    target.  Everything else is delegated to the wrapped socket.
    """

    def __init__(self, plan: FaultPlan, sock, scope: str | None = None, worker_end: bool = False):
        self.plan = plan
        self.scope = scope
        self.worker_end = worker_end
        self._sock = sock
        self._part: tuple[str, int | None] = ("prefix", None)
        self._faults: list[_ArmedFault] = []

    # ----------------------------------------------------- frame-boundary hooks
    def notify_frame_send(self, header: dict) -> None:
        frame_type = header.get("type")
        self._faults = self.plan._take("send", self.scope, frame_type, self.worker_end)
        for fault in self._faults:
            with self.plan._lock:
                self.plan._record(fault, f"frame type={frame_type!r} scope={self.scope}")

    def notify_part_send(self, part: str, index: int | None = None) -> None:
        self._part = (part, index)

    def notify_frame_recv(self) -> None:
        if self.worker_end:
            return
        for fault in self.plan._take("recv", self.scope, None):
            with self.plan._lock:
                self.plan._record(fault, f"recv frame scope={self.scope}")
            if fault.kind == "drop_connection":
                self._reset("connection dropped before recv")

    # ------------------------------------------------------------- socket API
    def _reset(self, why: str):
        try:
            # shutdown() so the peer observes the drop even when a forked
            # sibling process inherited a dup of this FD (see the head
            # client's _close_socket for the same pattern).
            self._sock.shutdown(socket_mod.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        raise ConnectionResetError(f"[fault injection] {why}")

    def _targets(self, fault: _ArmedFault) -> bool:
        """Whether ``fault`` applies to the part about to be written."""
        part, index = self._part
        if fault.kind in ("delay_send", "drop_connection"):
            return part == "prefix"
        if fault.kind == "corrupt_header":
            return part == "header"
        if fault.kind == "truncate_frame":
            at = fault.params["at"]
            return part == at and (at == "header" or index == fault.params["buffer"])
        if fault.kind == "corrupt_payload":
            return part == "buffer" and index == fault.params["buffer"]
        if fault.kind == "corrupt_checksum":
            return part == "trailer" and index == fault.params["buffer"]
        return False

    def sendall(self, data) -> None:
        for fault in [f for f in self._faults if self._targets(f)]:
            # Each fault acts on the first write of its part, once.
            self._faults.remove(fault)
            if fault.kind == "delay_send":
                time.sleep(fault.params["ms"] / 1000.0)
            elif fault.kind == "drop_connection":
                self._reset("connection dropped before send")
            elif fault.kind == "truncate_frame":
                if fault.params["at"] != "trailer":
                    self._sock.sendall(bytes(data)[: max(1, len(data) // 2)])
                self._reset(f"frame truncated at its {fault.params['at']}")
            elif fault.kind == "corrupt_header":
                raw = bytearray(bytes(data))
                # 0xFF is never valid UTF-8, so the peer's JSON decode fails
                # deterministically; positions come from the plan's seed.
                for pos in self.plan.corruption(max(1, len(raw) // 16)):
                    raw[pos % len(raw)] = 0xFF
                data = bytes(raw)
            elif fault.kind == "corrupt_payload":
                original = bytes(data)
                raw = bytearray(original)
                for pos in self.plan.corruption(max(1, min(8, len(raw)))):
                    raw[pos % len(raw)] ^= 1 << (pos % 8)
                if bytes(raw) == original:  # seeded flips cancelled out
                    raw[0] ^= 1
                data = bytes(raw)
            elif fault.kind == "corrupt_checksum":
                raw = bytearray(bytes(data))
                raw[-1] ^= 1
                data = bytes(raw)
        self._sock.sendall(data)

    def recv_into(self, buffer, nbytes: int = 0) -> int:
        return self._sock.recv_into(buffer, nbytes)

    def settimeout(self, timeout) -> None:
        self._sock.settimeout(timeout)

    def setsockopt(self, *args) -> None:
        self._sock.setsockopt(*args)

    def close(self) -> None:
        self._sock.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)


class PlanSocketWrapper:
    """A ``socket_wrapper`` that wraps each socket as the worker end of one
    plan, under one scope (see :meth:`FaultPlan.socket_wrapper`)."""

    def __init__(self, plan: FaultPlan, scope: str | None = None):
        self.plan = plan
        self.scope = scope

    def __call__(self, sock) -> FaultSocket:
        return self.plan.wrap(sock, scope=self.scope, worker_end=True)
