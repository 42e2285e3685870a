"""The one bounded cache (``repro.utils.lru.LRU``) and the lane sets every
carrier keeps in it.

The pin store's own contract (refcounts, all-or-nothing acquire, replace
in place) is ``test_cluster_store.py``'s; the translation cache's is
``test_formats_cache.py``'s.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

import numpy as np
import pytest

from helpers import random_csr

from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.windows import PATTERN_MEMO_SIZE, partition_windows
from repro.kernels.engine import LANE_CACHE_BYTES, SHARD_OPS, lane_cache
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK as FLASH_GROUP
from repro.precision.types import Precision
from repro.serve.scheduler import ShardScheduler
from repro.utils.lru import LRU, total_nbytes


def test_capacity_counts_the_callers_units():
    entries = LRU(2)
    assert entries.put("a", object()) == [] and entries.put("b", object()) == []
    entries.get("a")  # most recently used now
    assert entries.put("c", object()) == ["b"]
    assert entries.keys() == ["a", "c"]
    sized = LRU(10, weigh=len)
    sized.put("x", "abcd")
    sized.put("y", "abcd")
    assert sized.put("z", "abcd") == ["x"] and sized.weight == 8
    assert sized.stats() == {"hits": 0, "misses": 0, "evictions": 1, "size": 2}


def test_an_entry_heavier_than_the_capacity_is_kept_as_the_next_victim():
    entries = LRU(10, weigh=len)
    entries.put("small", "ab")
    assert entries.put("huge", "x" * 30) == ["small"]
    assert entries.keys() == ["huge"] and entries.weight == 30
    assert entries.put("next", "ab") == ["huge"]
    assert entries.keys() == ["next"]


def test_held_entries_are_passed_over_until_released():
    entries = LRU(1)
    entries.put("held", 1)
    assert entries.acquire("held") == [1]
    assert entries.put("other", 2) == []
    assert entries.discard("held") == []
    with pytest.raises(KeyError) as missing:
        entries.acquire("held", "gone")
    assert missing.value.args[0] == ["gone"]
    entries.release("held")
    assert entries.discard("held") == ["held"] and entries.weight == 1


def test_lookup_builds_once_and_counts():
    built = []
    entries = LRU(4)
    for key in ("a", "b", "a", "a"):
        entries.lookup(key, lambda key=key: built.append(key) or key.upper())
    assert built == ["a", "b"]
    assert entries.stats() == {"hits": 2, "misses": 2, "evictions": 0, "size": 2}


def test_concurrent_lookups_keep_the_counts_and_the_weight():
    entries, built = LRU(40, weigh=len), []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            key = rng.randrange(30)
            entries.lookup(key, lambda key=key: built.append(key) or "x" * (key % 7 + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = entries.stats()
    assert stats["hits"] + stats["misses"] == 8 * 2000 and stats["misses"] == len(built)
    assert entries.weight == sum(len(entries.get(key)) for key in entries.keys()) <= 40


def test_a_fresh_partition_memo_builds_each_key_once_under_threads():
    """The memo is made on a partition's first lookup, racing threads
    included: they share one LRU, so every key is built once."""
    partition = partition_windows(random_csr(64, 64, 0.1, seed=1), 8)
    built, start = [], threading.Barrier(8)

    def work(seed):
        start.wait(timeout=60)
        for i in range(200):
            key = (seed + i) % PATTERN_MEMO_SIZE
            partition.memo(key, lambda key=key: built.append(key) or object())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(built) == list(range(PATTERN_MEMO_SIZE))


def _lanes_of(csr, name="layer", precision="fp16"):
    return SHARD_OPS[name].csr_lanes(csr.indptr, csr.indices, csr.data, precision)


def test_lane_cache_never_holds_more_than_its_budget_but_one_oversize_set():
    cache = lane_cache()
    csr = random_csr(400, 300, 0.05, seed=1)
    set_bytes = total_nbytes(_lanes_of(csr))
    count = LANE_CACHE_BYTES // set_bytes + 5
    for seed in range(count):
        values = csr.with_values(csr.data + seed)
        arrays = (values.indptr, values.indices, values.data)
        SHARD_OPS["layer"].lanes(cache, values.content_key(), arrays, "fp16")
        assert cache.weight <= LANE_CACHE_BYTES
    assert cache.stats()["evictions"] > 0
    # One set past the whole budget is still kept, alone, until the next.
    big = random_csr(4000, 3000, 0.1, seed=2)
    assert total_nbytes(_lanes_of(big)) > LANE_CACHE_BYTES
    SHARD_OPS["layer"].lanes(cache, "big", (big.indptr, big.indices, big.data), "fp16")
    assert len(cache) == 1 and cache.weight > LANE_CACHE_BYTES
    SHARD_OPS["layer"].lanes(cache, "small", (csr.indptr, csr.indices, csr.data), "fp16")
    assert cache.weight <= LANE_CACHE_BYTES


def test_lane_sets_are_charged_for_views_too():
    """A set whose arrays are views of the CSR's own (a worker's lanes
    share the pinned bundles) is charged their bytes: the cache keeps them
    alive."""
    csr = random_csr(100, 80, 0.1, seed=3)
    indptr, indices, data = csr.indptr[:], csr.indices[:], csr.data[:]
    assert all(array.base is not None for array in (indptr, indices, data))
    cache = lane_cache()
    lanes = SHARD_OPS["layer"].lanes(cache, "key", (indptr, indices, data), "tf32")
    assert lanes[1] is indices and lanes[2] is indptr
    assert cache.weight == data.nbytes + indices.nbytes + indptr.nbytes > 0


def test_shard_scheduler_builds_each_lane_set_once(monkeypatch):
    built = []

    def counting(op):
        real = SHARD_OPS[op].csr_lanes

        def build(indptr, indices, data, precision):
            built.append((op, precision))
            return real(indptr, indices, data, precision)

        return build

    builders = {"spmm": counting("spmm"), "layer": counting("layer")}
    builders["sddmm"] = builders["layer"]  # SDDMM and the layer share a set
    for name, build in builders.items():
        monkeypatch.setitem(SHARD_OPS, name, dataclasses.replace(SHARD_OPS[name], csr_lanes=build))
    csr = random_csr(64, 48, 0.1, seed=4)
    tripled = csr.with_values(3 * csr.data)
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((64, 4)), rng.standard_normal((48, 4))
    sched = ShardScheduler()
    for _ in range(2):
        for matrix in (csr, tripled):
            for precision in (Precision.FP16, Precision.TF32):
                fmt = MEBCRSMatrix.from_csr(matrix, precision=precision)
                sched.run_spmm(fmt, b, precision, matrix)
                sched.run_sddmm(fmt, a, b, precision, FLASH_GROUP, matrix)
                sched.run_layer(fmt, a, b, b, precision, matrix)
    assert sorted(built) == sorted(
        (op, precision)
        for op in ("spmm", "layer")
        for precision in (Precision.FP16, Precision.TF32)
        for _ in range(2)  # two contents
    )
