"""Content-addressed matrix push/pin: ship operand bytes once per host.

Before this module, every shard task re-shipped the matrix's full CSR
buffers (indptr/indices/data) plus the dense operands over TCP, even
though affinity routing sends all shards of a matrix to the same host and
repeat traffic keeps hitting the same content key.  This module replaces
that with the "place data once, reference it by name" shape of DGL's
distributed kvstore, layered over the checksummed frame protocol:

* The head keeps a **per-host ledger** of which keys each worker has
  pinned (it lives on the host client, so a DEAD host's ledger dies with
  its client and a restarted worker is never assumed warm).
* A bundle the ledger says the worker lacks rides the first task frame
  that needs it: the frame's ``push`` header lists the keys and array
  counts, its buffers carry the bytes (CRC-checked like any payload), and
  the worker pins them in its :class:`PinnedStore` before it runs the
  shard.  There is no separate push round trip.
* Every later task frame carries **only keys** for what is pinned.  A
  matrix is two bundles: its pattern and its values, so a matrix that
  keeps a pinned pattern and brings new values (an attention layer's
  weights) ships its ``data`` alone.  The N shards of one request ship
  each dense panel to a host once, not N times.
* A worker that evicted (or never had) a key answers ``store_miss``,
  which the head treats like a transient transport failure: re-push and
  resend under the retry budget.  A store too small for one request's
  working set keeps missing; past the budget the head runs that shard
  in-parent — an undersized store costs throughput, never a failed
  request.

Store keys are ``<kind>/<name>@<version>`` (:func:`make_store_key`), in
four kinds:

* ``struct`` — a matrix's ``[indptr, indices]``, by
  :meth:`~repro.formats.csr.CSRMatrix.structure_key`;
* ``vals`` — its ``[data]``, by
  :meth:`~repro.formats.csr.CSRMatrix.content_key` (the pattern is part
  of that digest, so a ``vals`` key never pairs with a foreign pattern);
* ``op`` — a **content-keyed** dense panel, by :func:`operand_store_key`.
  The head pays the sha256 only for a panel worth pinning across
  requests: one whose source array it has seen in an earlier request (or
  any panel of a caller that names no sources);
* ``req`` — a **request-scoped** panel, by :func:`request_store_key`: no
  digest at all.  It is pushed once per host per request, and the last
  task of the request on that host lists it in ``release``, so the worker
  drops it after that task.  A one-shot operand therefore never sits in
  the pin store beside the matrices that are worth keeping.

The **version** component is there from day one: the dynamic-graph
roadmap item mutates matrices in place, and bumping the version is how a
delta-translated matrix invalidates every pinned copy cluster-wide
without a new digest scheme.

The :class:`PinnedStore` itself is a byte-budgeted LRU: entries are
evicted oldest-first once ``pinned_bytes`` exceeds the budget, except
entries whose **refcount** is held by an in-flight task — those are never
evicted, even if that leaves the store temporarily over budget.  Gauges
(pinned bytes, entry count, put/hit/miss/eviction counters) travel in
every status and pong frame, and the pong additionally reports the full
key inventory so a readmitted host's ledger can be re-warmed from what
the worker actually still holds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.utils.digest import digest16

#: Default worker-side pin budget.  Sized so a handful of mid-sized serving
#: matrices stay resident; override per worker with ``--store-bytes`` /
#: ``ClusterScheduler(store_bytes=...)``.
DEFAULT_STORE_BYTES = 256 * 1024 * 1024


def make_store_key(kind: str, digest: str, version: int = 0) -> str:
    """Compose a store key: ``<kind>/<digest>@<version>``.

    ``kind`` namespaces the bundle kinds apart (``struct`` / ``vals`` /
    ``op`` / ``req``, see the module docstring); ``version`` is the cluster-wide
    invalidation hook — re-keying a mutated matrix is a version bump, not
    a digest change, so delta updates (ROADMAP: dynamic graphs) can
    invalidate every host's pinned copy without rehashing content.
    """
    return f"{kind}/{digest}@{int(version)}"


def operand_store_key(array: np.ndarray, precision: str, version: int = 0) -> str:
    """Store key for one dense operand panel, by content.

    Repeat requests with byte-identical operands deduplicate across
    requests: the panel stays pinned, and every later task references it
    by this key.  The digest covers the dtype, shape and bytes of
    ``array`` and the ``precision`` the panel ships quantised to — so a
    head keys the caller's operand as it is and quantises it only when a
    host lacks the key.
    """
    array = np.ascontiguousarray(array)
    prefix = f"{array.dtype.str}:{array.shape}:{precision}"
    digest = digest16(prefix.encode(), array)
    return make_store_key("op", digest, version)


def request_store_key(request: str, index: int) -> str:
    """Store key for operand ``index`` of one request, with no digest.

    ``request`` must be unique across every request a worker may serve
    (the head combines a per-scheduler random token with a counter); the
    key is released by the request's last task on each host.
    """
    return make_store_key("req", f"{request}.{int(index)}")


class StoreMissError(RuntimeError):
    """A task referenced store keys the worker does not hold.

    Carries the complete ``missing`` key list so the head re-pushes
    everything in one round trip.  On the wire this is the ``store_miss``
    reply frame; the head treats it like a transient transport failure
    (re-push under the retry budget, in-parent execution of the shard as
    the last resort), so it never surfaces as a failed request.
    """

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"store miss for {len(self.missing)} key(s): {self.missing}")


class _Entry:
    __slots__ = ("arrays", "nbytes", "refcount")

    def __init__(self, arrays: list[np.ndarray], nbytes: int):
        self.arrays = arrays
        self.nbytes = nbytes
        self.refcount = 0


class PinnedStore:
    """Byte-budgeted, refcounted LRU store of pinned ndarray bundles.

    One entry is one store key mapping to a list of arrays (two for a
    ``struct`` bundle, one for a ``vals`` bundle or a dense operand panel).
    ``put`` pins a bundle and evicts least-recently-used zero-refcount
    entries until the store is back under ``budget_bytes``; entries whose
    refcount is held (an in-flight task is computing on them) are
    **skipped** by eviction, so the store may sit over budget while such a
    task runs — correctness over budget exactness.  A bundle larger than the whole budget is still
    pinned (everything else evictable goes); it simply becomes the next
    eviction candidate once unreferenced.

    Thread-safe: the worker host is single-threaded today, but the store
    is lock-guarded so nothing breaks when worker-side concurrency lands.
    """

    def __init__(self, budget_bytes: int = DEFAULT_STORE_BYTES):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._pinned_bytes = 0
        self._puts = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------- mutation
    def put(self, key: str, arrays) -> list[str]:
        """Pin ``arrays`` under ``key``; returns the keys evicted to fit.

        Re-putting an existing key replaces its bundle in place (keeping
        its refcount — an in-flight task holding the old arrays keeps
        them alive through its own references).
        """
        arrays = [np.ascontiguousarray(a) for a in arrays]
        nbytes = sum(a.nbytes for a in arrays)
        with self._lock:
            self._puts += 1
            entry = self._entries.get(key)
            if entry is not None:
                self._pinned_bytes += nbytes - entry.nbytes
                entry.arrays, entry.nbytes = arrays, nbytes
                self._entries.move_to_end(key)
            else:
                self._entries[key] = _Entry(arrays, nbytes)
                self._pinned_bytes += nbytes
            return self._evict_to_budget(keep=key)

    def _evict_to_budget(self, keep: str) -> list[str]:
        """Evict LRU zero-refcount entries (never ``keep``) until within
        budget; called under the lock."""
        evicted: list[str] = []
        while self._pinned_bytes > self.budget_bytes:
            victim = next(
                (
                    k
                    for k, e in self._entries.items()
                    if k != keep and e.refcount == 0
                ),
                None,
            )
            if victim is None:
                break  # everything left is in use (or the fresh key): stay over budget
            entry = self._entries.pop(victim)
            self._pinned_bytes -= entry.nbytes
            self._evictions += 1
            evicted.append(victim)
        return evicted

    def acquire(self, *keys: str) -> list[list[np.ndarray]]:
        """Resolve ``keys`` and take one refcount on each (MRU-touching).

        Raises :class:`StoreMissError` naming **every** missing key — and
        takes no refcounts — so the head re-pushes the full set in one
        round instead of discovering misses one by one.
        """
        with self._lock:
            missing = [k for k in keys if k not in self._entries]
            if missing:
                self._misses += len(missing)
                self._hits += len(keys) - len(missing)
                raise StoreMissError(missing)
            bundles = []
            for key in keys:
                entry = self._entries[key]
                entry.refcount += 1
                self._entries.move_to_end(key)
                bundles.append(entry.arrays)
            self._hits += len(keys)
            return bundles

    def release(self, *keys: str) -> None:
        """Drop one refcount per key (missing keys are ignored: the entry
        may have been replaced while the task ran)."""
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None and entry.refcount > 0:
                    entry.refcount -= 1

    def discard(self, *keys: str) -> None:
        """Unpin ``keys`` now (a request-scoped panel after its request's
        last task here).  Absent keys are ignored; a key an in-flight task
        still holds stays until the next eviction pass finds it free."""
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None and entry.refcount == 0:
                    del self._entries[key]
                    self._pinned_bytes -= entry.nbytes

    # -------------------------------------------------------------- queries
    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Pinned keys, LRU-first — the inventory a pong frame reports so
        a readmitting head re-warms its ledger from ground truth."""
        with self._lock:
            return list(self._entries)

    @property
    def pinned_bytes(self) -> int:
        with self._lock:
            return self._pinned_bytes

    def stats(self) -> dict:
        """Gauges for status/pong frames (and the head's per-host view)."""
        with self._lock:
            return {
                "pinned_bytes": self._pinned_bytes,
                "budget_bytes": self.budget_bytes,
                "entries": len(self._entries),
                "puts": self._puts,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
