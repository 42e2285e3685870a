"""Content-addressed matrix push/pin: ship operand bytes once per host.

Affinity routing sends every shard of a matrix to the same host, so the
matrix and its operands are placed there once and referenced by name —
the shape of DGL's distributed kvstore, over the checksummed frames:

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
  any panel of a caller that names no sources).  It keeps a copy of the
  bytes it digested, so an unchanged repeat reuses the key after a byte
  compare, and a panel changed in place is digested again;
* ``req`` — a **request-scoped** panel, by :func:`request_store_key`: no
  digest at all.  It is pushed once per host per request, and the last
  task of the request on that host lists it in ``release``, so the worker
  drops it after that task.  A one-shot operand therefore never sits in
  the pin store beside the matrices that are worth keeping.

The **version** component is there from day one: the dynamic-graph
roadmap item mutates matrices in place, and bumping the version is how a
delta-translated matrix invalidates every pinned copy cluster-wide
without a new digest scheme.

The :class:`PinnedStore` itself is the package's one LRU counted in
bytes: entries are evicted oldest-first once ``pinned_bytes`` exceeds the
budget, except entries whose **refcount** is held by an in-flight task.
A worker also unpins a pattern's previous ``vals`` bundle when a task
pushes new values for it, so fresh values do not fill the budget.  Gauges
(pinned bytes, entry count, put/hit/miss/eviction counters) travel in
every status and pong frame, and the pong additionally reports the full
key inventory so a readmitted host's ledger can be re-warmed from what
the worker actually still holds.
"""

from __future__ import annotations

import numpy as np

from repro.utils.digest import digest16
from repro.utils.lru import LRU, total_nbytes

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


class PinnedStore(LRU):
    """Byte-budgeted, refcounted LRU store of pinned ndarray bundles: the
    package's :class:`~repro.utils.lru.LRU`, each bundle weighing its bytes.

    One entry is one store key mapping to a list of arrays (two for a
    ``struct`` bundle, one for a ``vals`` bundle or a dense operand panel).
    ``put`` pins a bundle and evicts least-recently-used entries until the
    store is back under ``budget_bytes``, skipping those an in-flight task
    has acquired — the store may sit over budget while such a task runs,
    correctness over budget exactness.  A bundle larger than the whole
    budget is still pinned (everything else evictable goes); it is the next
    eviction candidate once unreferenced.  Lock-guarded, though the worker
    host is single-threaded today.
    """

    def __init__(self, budget_bytes: int = DEFAULT_STORE_BYTES):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        super().__init__(budget_bytes, total_nbytes)
        self.budget_bytes = int(budget_bytes)
        self._puts = 0

    def put(self, key: str, arrays) -> list[str]:
        """Pin ``arrays`` under ``key``; returns the keys evicted to fit.

        Re-putting an existing key replaces its bundle in place (keeping
        its refcount — an in-flight task holding the old arrays keeps
        them alive through its own references).
        """
        with self.lock:
            self._puts += 1
            return super().put(key, [np.ascontiguousarray(a) for a in arrays])

    def acquire(self, *keys: str) -> list[list[np.ndarray]]:
        """Resolve ``keys`` and take one refcount on each (MRU-touching).

        Raises :class:`StoreMissError` naming **every** missing key — and
        takes no refcounts — so the head re-pushes the full set in one
        round instead of discovering misses one by one.
        """
        try:
            return super().acquire(*keys)
        except KeyError as exc:
            raise StoreMissError(exc.args[0]) from None

    @property
    def pinned_bytes(self) -> int:
        return self.weight

    def stats(self) -> dict:
        """Gauges for status/pong frames (and the head's per-host view)."""
        with self.lock:
            return {
                "pinned_bytes": self.weight,
                "budget_bytes": self.budget_bytes,
                "entries": len(self),
                "puts": self._puts,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
