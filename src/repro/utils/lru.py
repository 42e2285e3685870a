"""The one bounded cache: a refcounted LRU map, its capacity counted in the
caller's units.

Every cache that keeps request-derived memory is an :class:`LRU`: the
format translations (:class:`repro.formats.cache.TranslationCache`, one
unit an entry), what a sparsity pattern implies — block indexes, cost
counters, serving plans — on its partition
(:meth:`repro.formats.windows.WindowPartition.memo`, one unit), each
carrier's shard lane sets (:func:`repro.kernels.engine.lane_cache`, bytes) and a
worker host's pin store (:class:`repro.cluster.store.PinnedStore`, bytes).
A put evicts least-recently-used entries until the total weight fits the
capacity, passing over the entries a caller holds (:meth:`LRU.acquire`,
until :meth:`LRU.release`) — the map may sit over capacity meanwhile — and
the entry just put: one heavier than the whole capacity is kept, as the
next victim.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable


def total_nbytes(arrays) -> int:
    """The bytes of a set of ndarrays, views included: an entry keeps every
    array it holds alive."""
    return sum(array.nbytes for array in arrays)


class _Entry:
    __slots__ = ("value", "weight", "refcount")

    def __init__(self, value, weight: int):
        self.value, self.weight, self.refcount = value, weight, 0


class LRU:
    """Bounded, refcounted least-recently-used map; ``weigh(value)`` is an
    entry's weight (one unit by default).

    ``hits`` / ``misses`` count what :meth:`lookup` and :meth:`acquire`
    find (a caller with its own notion of a hit counts on them too), and
    ``evictions`` what puts pushed out.  Every method takes :attr:`lock`,
    which is reentrant, so a caller may hold it across a compound step.
    """

    def __init__(self, capacity: int, weigh: Callable[[object], int] = lambda value: 1):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity, self.weigh = int(capacity), weigh
        self.lock = threading.RLock()
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self.weight = self.hits = self.misses = self.evictions = 0

    def lookup(self, key: Hashable, build: Callable[[], object]):
        """The value under ``key``, or ``build()``'s, put under it (a hit or
        a miss).  ``build`` runs under the lock: one build per key."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                value = build()
                self.put(key, value)
                return value
            self.hits += 1
            self._entries.move_to_end(key)
            return entry.value

    def get(self, key: Hashable, default=None):
        """The value under ``key``, now most recently used, or ``default``
        (uncounted)."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            self._entries.move_to_end(key)
            return entry.value

    def put(self, key: Hashable, value) -> list:
        """Put ``value`` under ``key``, most recently used; returns the keys
        evicted.  A replaced entry keeps its holds."""
        weight = int(self.weigh(value))
        with self.lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Entry(value, 0)
            self._entries.move_to_end(key)
            self.weight += weight - entry.weight
            entry.value, entry.weight = value, weight
            evicted = []
            while self.weight > self.capacity:
                victim = next(
                    (k for k, e in self._entries.items() if k != key and not e.refcount), None
                )
                if victim is None:
                    break  # the rest is held, or is the fresh entry: stay over
                self.weight -= self._entries.pop(victim).weight
                self.evictions += 1
                evicted.append(victim)
            return evicted

    def acquire(self, *keys: Hashable) -> list:
        """The values under ``keys``, each held — never evicted — until
        :meth:`release`.  All or nothing: if any key is absent, raises
        :class:`KeyError` with the list of absent keys and holds none.
        Counts a hit per present key and a miss per absent one."""
        with self.lock:
            missing = [key for key in keys if key not in self._entries]
            self.misses += len(missing)
            self.hits += len(keys) - len(missing)
            if missing:
                raise KeyError(missing)
            for key in keys:
                self._entries[key].refcount += 1
                self._entries.move_to_end(key)
            return [self._entries[key].value for key in keys]

    def release(self, *keys: Hashable) -> None:
        """Drop one hold per key (absent keys are ignored)."""
        with self.lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None and entry.refcount > 0:
                    entry.refcount -= 1

    def discard(self, *keys: Hashable) -> list:
        """Remove the entries of ``keys`` nobody holds; returns the keys
        removed (a held one stays until a put finds it free)."""
        removed = []
        with self.lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None and entry.refcount == 0:
                    self.weight -= self._entries.pop(key).weight
                    removed.append(key)
        return removed

    def clear(self) -> None:
        """Drop every entry (the counters stay)."""
        with self.lock:
            self._entries.clear()
            self.weight = 0

    def keys(self) -> list:
        """The keys, least recently used first."""
        with self.lock:
            return list(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """``{"hits", "misses", "evictions", "size"}``."""
        with self.lock:
            return dict(
                hits=self.hits, misses=self.misses, evictions=self.evictions, size=len(self)
            )
