"""LRU bookkeeping and the thread-safe score cache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve.cache import ScoreCache
from repro.utils.lru import LruTracker


class TestLruTracker:
    def test_touch_orders_by_recency(self):
        lru = LruTracker()
        for key in "abc":
            lru.touch(key)
        lru.touch("a")
        assert lru.keys() == ["b", "c", "a"]

    def test_pop_excess_drops_least_recent(self):
        lru = LruTracker(max_entries=2)
        for key in "abc":
            lru.touch(key)
        assert lru.pop_excess() == ["a"]
        assert lru.keys() == ["b", "c"]

    def test_unbounded_never_evicts(self):
        lru = LruTracker()
        for key in range(100):
            lru.touch(key)
        assert lru.pop_excess() == []
        assert len(lru) == 100

    def test_discard_and_contains(self):
        lru = LruTracker()
        lru.touch("x")
        assert "x" in lru
        lru.discard("x")
        lru.discard("x")  # no-op on absent keys
        assert "x" not in lru

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            LruTracker(max_entries=0)


class TestScoreCache:
    def test_hit_and_miss_accounting(self):
        cache = ScoreCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", np.ones((2, 3)))
        assert np.array_equal(cache.get("k"), np.ones((2, 3)))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_uncounted_miss_lookup(self):
        cache = ScoreCache(max_entries=2)
        assert cache.get("k", count_miss=False) is None
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (0, 0)
        cache.put("k", np.ones(1))
        cache.put("j", np.ones(1))
        assert cache.get("k", count_miss=False) is not None
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 0)
        cache.put("i", np.ones(1))  # the hit touched "k": "j" is evicted
        assert "k" in cache and "j" not in cache

    def test_eviction_follows_recency(self):
        cache = ScoreCache(max_entries=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.ones(1))
        cache.get("a")  # refresh "a"; "b" becomes least recent
        cache.put("c", np.full(1, 2.0))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_unbounded_cache(self):
        cache = ScoreCache(max_entries=None)
        for i in range(50):
            cache.put(str(i), np.zeros(1))
        assert len(cache) == 50
        assert cache.max_entries is None

    def test_entries_are_copied_and_frozen(self):
        cache = ScoreCache()
        source = np.ones((2, 3))
        cache.put("k", source)
        source[0, 0] = 99.0  # caller mutates its buffer afterwards
        stored = cache.get("k")
        assert stored[0, 0] == 1.0  # the cache kept its own copy
        with pytest.raises(ValueError):
            stored[0, 0] = -1.0  # hits are immutable

    def test_clear_keeps_counters(self):
        cache = ScoreCache()
        cache.put("k", np.zeros(1))
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1

    def test_thread_safety_smoke(self):
        cache = ScoreCache(max_entries=16)

        def worker(tid: int) -> None:
            for i in range(200):
                key = f"{tid}-{i % 8}"
                if cache.get(key) is None:
                    cache.put(key, np.full(2, float(i)))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 4 * 200
