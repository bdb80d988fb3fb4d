"""Unit tests for the shared LRU cache and its stats."""

import pytest

from repro.cache.lru import LruCache


class TestBasics:
    def test_get_put_roundtrip(self):
        cache = LruCache(max_entries=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_peek_does_not_count(self):
        cache = LruCache(max_entries=4)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("b", default=7) == 7
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_replace_updates_bytes(self):
        cache = LruCache(max_bytes=100)
        cache.put("a", 1, nbytes=60)
        cache.put("a", 2, nbytes=30)
        assert cache.stats.bytes == 30
        assert len(cache) == 1

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            LruCache(max_entries=0)
        with pytest.raises(ValueError):
            LruCache(max_bytes=-1)


class TestEviction:
    def test_entry_budget_evicts_lru(self):
        cache = LruCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a so b is now LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_byte_budget_evicts_until_under(self):
        cache = LruCache(max_bytes=100)
        cache.put("a", 1, nbytes=40)
        cache.put("b", 2, nbytes=40)
        cache.put("c", 3, nbytes=40)
        assert "a" not in cache
        assert cache.stats.bytes == 80

    def test_oversized_entry_not_admitted(self):
        cache = LruCache(max_bytes=100)
        cache.put("small", 1, nbytes=10)
        cache.put("huge", 2, nbytes=1000)
        assert "huge" not in cache
        assert "small" in cache  # nothing was evicted for the reject


class TestInvalidation:
    def test_clear(self):
        cache = LruCache()
        cache.put("a", 1, nbytes=5)
        cache.put("b", 2, nbytes=7)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes == 0
        assert cache.stats.invalidations == 2

    def test_hit_ratio(self):
        cache = LruCache()
        assert cache.stats.hit_ratio == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats.hit_ratio == 0.5
        assert cache.stats.snapshot()["hit_ratio"] == 0.5
