"""LRU cache for CSR → blocked-format translations.

The kernel entry points accept plain CSR matrices and translate them on the
fly (the paper's preprocessing kernel).  Call sites that sweep the same
matrix repeatedly — GNN training loops estimating per-epoch kernel times,
benchmark sweeps over dense widths/devices, serving frontends replaying the
same graph for every request — would otherwise re-run the translation on
every call.  This module memoises the translations keyed by the *identity*
of the CSR object: each cache entry keeps a strong reference to its source
matrix, so a key can never alias a different matrix whose id was recycled.

The key also fingerprints the three CSR array buffers (their base addresses
and nnz), so rebinding ``matrix.data``/``indices``/``indptr`` to new arrays
invalidates the entry.  What the cache cannot see is an *in-place* write to
an existing buffer (``matrix.data[k] = v``): that mutation returns stale
translations until :func:`clear_format_cache` is called or a fresh CSRMatrix
is built.  Every producer in this codebase treats CSR matrices as immutable
after construction.

Content-hash keying
-------------------
Passing ``by_content=True`` additionally keys the translation by
:meth:`~repro.formats.csr.CSRMatrix.content_key` — a digest over the CSR
arrays and shape — so two *equal* matrices loaded independently (the same
graph deserialised twice, replicas in a serving fleet) share one
translation.  Identity lookup stays the fast path: the O(nnz) hash runs
only on the first identity miss of a given object, after which the object's
identity key aliases the shared entry.  The serving subsystem
(:mod:`repro.serve`) keys by content by default — request payloads are
deserialised fresh per request, so identity keys would never hit.  The
server translates once per request group, for the plan and the cost pass;
no shard reads a translation (every carrier slices lane arrays of the
request's CSR, :func:`repro.kernels.engine.csr_lanes`), and a cluster
worker host keeps no translation cache at all.

Structure entries
-----------------
A content miss does not start from scratch.  The window partition
(:class:`~repro.formats.windows.WindowPartition`, with its entry map) reads
only ``indptr`` / ``indices``, so it is cached in the same LRU under
``("structure", structure_key, vector_size)`` —
:meth:`~repro.formats.csr.CSRMatrix.structure_key` digests the pattern
alone.  A matrix that keeps a cached pattern and brings new values (an
attention layer's weights, evaluation after evaluation) translates as one
value scatter through the cached entry map: no sort, and the
partition object — which the serving plan cache keys on — is shared by
every translation of the pattern.  Structure entries pin no source matrix.
Identity-only callers never touch them.

Observability
-------------
The cache counts hits, misses and evictions (:meth:`TranslationCache.stats`,
also reachable via the module-level :func:`format_cache_stats`); the serving
metrics (:mod:`repro.serve.metrics`) snapshot these counters per interval to
report translation-dedup effectiveness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import RLock
from typing import Callable

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.formats.windows import WindowPartition, partition_windows
from repro.precision.types import Precision

#: Maximum number of cached translations (each entry pins its source CSR and
#: the translated format in memory, so the cap bounds the working set).
FORMAT_CACHE_MAXSIZE = 32


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of a :class:`TranslationCache`.

    ``hits`` counts lookups served without running a translation (identity
    hits plus content hits); ``content_hits`` is the subset that was
    deduplicated across distinct-but-equal matrices via the content digest.
    ``misses`` counts translations actually built, ``evictions`` the entries
    dropped by the LRU cap.  ``structure_hits`` counts the misses whose
    window partition came from a structure entry (a values-only refresh);
    ``size`` counts every entry, structure entries included.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    content_hits: int = 0
    size: int = 0
    structure_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (1.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 1.0


class TranslationCache:
    """LRU of CSR → blocked-format translations with hit/miss accounting.

    A module-level default instance backs the ``cached_*`` functions; the
    class is separate so tests (and a future per-server cache) can hold an
    isolated instance.  All operations take the instance lock — the serving
    frontend looks up translations from its dispatch thread while clients
    submit from theirs.
    """

    def __init__(self, maxsize: int = FORMAT_CACHE_MAXSIZE):
        self.maxsize = int(maxsize)
        self._cache: "OrderedDict[tuple, tuple[CSRMatrix | None, object]]" = OrderedDict()
        self._lock = RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._content_hits = 0
        self._structure_hits = 0

    # ------------------------------------------------------------- internals
    def _store(self, key: tuple, source: CSRMatrix | None, fmt: object) -> None:
        self._cache[key] = (source, fmt)
        self._cache.move_to_end(key)
        while len(self._cache) > self.maxsize:
            self._cache.popitem(last=False)
            self._evictions += 1

    def lookup(
        self,
        key: tuple,
        source: CSRMatrix,
        build: Callable[[], object],
        content_key: tuple | None = None,
    ):
        """Return the cached translation for ``key``, building it on a miss."""
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None and entry[0] is source:
                self._cache.move_to_end(key)
                self._hits += 1
                return entry[1]
            if content_key is not None:
                # Content entries pin no source: equality is established by
                # the digest, not by object identity, so any equal matrix may
                # hit.
                entry = self._cache.get(content_key)
                if entry is not None:
                    self._cache.move_to_end(content_key)
                    # Alias this object's identity key to the shared
                    # translation so its next lookup skips the hash entirely.
                    self._store(key, source, entry[1])
                    self._hits += 1
                    self._content_hits += 1
                    return entry[1]
            fmt = build()
            self._misses += 1
            self._store(key, source, fmt)
            if content_key is not None:
                self._store(content_key, None, fmt)
            return fmt

    def partition(self, matrix: CSRMatrix, vector_size: int) -> WindowPartition:
        """``matrix``'s window partition at ``vector_size``, cached under its
        :meth:`~repro.formats.csr.CSRMatrix.structure_key` (see the module
        docstring): built on the pattern's first use, shared after."""
        key = ("structure", matrix.structure_key(), int(vector_size))
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self._structure_hits += 1
                return entry[1]
            partition = partition_windows(matrix, vector_size)
            self._store(key, None, partition)
            return partition

    # ------------------------------------------------------------ public API
    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                content_hits=self._content_hits,
                size=len(self._cache),
                structure_hits=self._structure_hits,
            )

    def reset_stats(self) -> None:
        """Zero the counters (entries are kept)."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0
            self._content_hits = self._structure_hits = 0

    def clear(self) -> None:
        """Drop every cached translation (and the pinned source matrices)."""
        with self._lock:
            self._cache.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)


#: The process-wide default cache every kernel entry point goes through.
DEFAULT_CACHE = TranslationCache()


@dataclass(frozen=True)
class FormatKind:
    """One blocked-format kind: its vector size, its ``name`` in cache keys
    and in the ``fmt`` field of a cluster task frame, and the format class
    whose ``from_csr`` translates to it."""

    vector_size: int
    name: str
    format_cls: type


#: The one table of format kinds.  The cached names below, the cluster head
#: (``vector_size`` → wire name) and the worker (wire name → translation)
#: all read it, so a format is never classified by ``isinstance``.
FORMAT_KINDS = (
    FormatKind(8, "mebcrs", MEBCRSMatrix),
    FormatKind(16, "sgt16", SGT16Matrix),
)


def format_kind(key: int | str) -> FormatKind:
    """The format kind with this ``vector_size`` or wire ``name``."""
    for kind in FORMAT_KINDS:
        if key in (kind.vector_size, kind.name):
            return kind
    raise ValueError(f"unknown blocked-format kind {key!r}")


def cached_format(
    matrix: CSRMatrix,
    kind: int | str,
    precision: Precision | str,
    by_content: bool = False,
    cache: TranslationCache | None = None,
) -> BlockedVectorFormat:
    """The translation of ``matrix`` into format ``kind`` (a ``vector_size``
    or wire name, see :func:`format_kind`) at ``precision``, memoised.

    ``by_content=True`` lets equal matrices share one translation, and a
    miss reuses the pattern's cached window partition (see the module
    docstring); the default keys by object identity only.  ``cache``
    selects the cache instance (tests and benchmarks pass an isolated one);
    the default is the process-global cache.
    """
    kind = format_kind(kind)
    precision = Precision(precision)
    cache = cache if cache is not None else DEFAULT_CACHE
    identity_key = (
        id(matrix),
        matrix.indptr.ctypes.data,
        matrix.indices.ctypes.data,
        matrix.data.ctypes.data,
        matrix.nnz,
        kind.name,
        precision,
    )

    def build() -> BlockedVectorFormat:
        partition = cache.partition(matrix, kind.vector_size) if by_content else None
        return kind.format_cls.from_csr(matrix, precision=precision, partition=partition)

    return cache.lookup(
        identity_key,
        matrix,
        build,
        ("content", matrix.content_key(), kind.name, precision) if by_content else None,
    )


def cached_mebcrs(
    matrix: CSRMatrix,
    precision: Precision | str,
    by_content: bool = False,
    cache: TranslationCache | None = None,
) -> MEBCRSMatrix:
    """The ME-BCRS (8×1) translation of ``matrix``: :func:`cached_format` at 8."""
    return cached_format(matrix, 8, precision, by_content, cache)


def cached_sgt16(
    matrix: CSRMatrix,
    precision: Precision | str,
    by_content: bool = False,
    cache: TranslationCache | None = None,
) -> SGT16Matrix:
    """The SGT (16×1) translation of ``matrix``: :func:`cached_format` at 16."""
    return cached_format(matrix, 16, precision, by_content, cache)


def clear_format_cache() -> None:
    """Drop every cached translation (and the pinned source matrices)."""
    DEFAULT_CACHE.clear()


def format_cache_stats() -> CacheStats:
    """Hit/miss/eviction snapshot of the default cache."""
    return DEFAULT_CACHE.stats()
