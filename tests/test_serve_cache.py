"""Tests for the LRU plan cache (repro.serve.cache)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.engine import GraphAttentionEngine
from repro.masks.presets import bigbird_mask, longformer_mask
from repro.masks.windowed import LocalMask
from repro.serve.cache import CacheStats, PlanCache
from repro.serve.plan import compile_plan, plan_cache_key


def _plan(window: int, length: int = 64):
    mask = LocalMask(window=window)
    return plan_cache_key(mask, length), compile_plan(mask, length)


class TestHitMissAccounting:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        key, plan = _plan(3)
        assert cache.get(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.put(key, plan)
        assert cache.get(key) is plan
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_get_or_compile_counts_once_per_shape(self):
        cache = PlanCache(capacity=4)
        key, _ = _plan(3)
        compiles = []

        def factory():
            plan = compile_plan(LocalMask(window=3), 64)
            compiles.append(plan)
            return plan

        first, hit_first = cache.get_or_compile(key, factory)
        second, hit_second = cache.get_or_compile(key, factory)
        assert (hit_first, hit_second) == (False, True)
        assert second is first
        assert len(compiles) == 1

    def test_contains_does_not_perturb_stats(self):
        cache = PlanCache(capacity=2)
        key, plan = _plan(3)
        cache.put(key, plan)
        assert key in cache
        assert cache.stats.lookups == 0

    def test_empty_cache_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_snapshot_is_independent(self):
        cache = PlanCache(capacity=2)
        cache.get("nope")
        snap = cache.stats.snapshot()
        cache.get("nope")
        assert snap.misses == 1 and cache.stats.misses == 2


class TestLRUEviction:
    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(capacity=2)
        key_a, plan_a = _plan(3)
        key_b, plan_b = _plan(4)
        key_c, plan_c = _plan(5)
        cache.put(key_a, plan_a)
        cache.put(key_b, plan_b)
        cache.get(key_a)  # refresh a; b becomes LRU
        cache.put(key_c, plan_c)
        assert key_b not in cache
        assert key_a in cache and key_c in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        key_a, plan_a = _plan(3)
        key_b, plan_b = _plan(4)
        key_c, plan_c = _plan(5)
        cache.put(key_a, plan_a)
        cache.put(key_b, plan_b)
        cache.put(key_a, plan_a)  # re-put refreshes a
        cache.put(key_c, plan_c)
        assert key_b not in cache and key_a in cache

    def test_capacity_bound_holds(self):
        cache = PlanCache(capacity=3)
        for window in range(2, 12):
            cache.put(*_plan(window))
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_keys_ordered_lru_to_mru(self):
        cache = PlanCache(capacity=3)
        key_a, plan_a = _plan(3)
        key_b, plan_b = _plan(4)
        cache.put(key_a, plan_a)
        cache.put(key_b, plan_b)
        cache.get(key_a)
        assert cache.keys() == [key_b, key_a]

    def test_clear_preserves_stats(self):
        cache = PlanCache(capacity=2)
        key, plan = _plan(3)
        cache.put(key, plan)
        cache.get(key)
        cache.clear()
        assert len(cache) == 0 and cache.stats.hits == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestCachedPlanCorrectness:
    """A cached composed-union plan must reproduce uncached engine output exactly."""

    @pytest.mark.parametrize(
        "mask_factory",
        [
            lambda: longformer_mask(reach=10, global_tokens=(0, 200)),
            lambda: bigbird_mask(reach=8, global_tokens=(0,), random_sparsity=0.01, seed=5),
        ],
        ids=["longformer", "bigbird"],
    )
    def test_cached_composed_plan_matches_uncached_engine_run(self, medium_qkv, mask_factory):
        q, k, v = medium_qkv
        length = q.shape[0]
        engine = GraphAttentionEngine()
        cache = PlanCache(capacity=4)

        mask = mask_factory()
        key = plan_cache_key(mask, length)
        plan, hit = cache.get_or_compile(key, lambda: compile_plan(mask, length))
        assert not hit
        cached_plan, hit = cache.get_or_compile(key, lambda: compile_plan(mask, length))
        assert hit and cached_plan is plan

        uncached = engine.run(q, k, v, mask_factory())
        served = cached_plan.execute(q, k, v)
        assert served.algorithm == uncached.algorithm == "composed"
        np.testing.assert_array_equal(served.output, uncached.output)
        np.testing.assert_array_equal(served.row_sum, uncached.row_sum)
        assert served.ops.dot_products == uncached.ops.dot_products


class TestConcurrentCompile:
    def test_racing_threads_compile_one_key_once(self):
        # more threads than the host's cores race on one key whose compile is
        # slow enough that an unlocked cache lets every thread miss
        threads_n = 4
        cache = PlanCache(capacity=4)
        key, plan = _plan(3)
        compiles = []

        def slow_compile():
            compiles.append(plan)
            time.sleep(0.05)
            return plan

        start = threading.Barrier(threads_n)
        results = []

        def worker():
            start.wait(timeout=10)
            results.append(cache.get_or_compile(key, slow_compile))

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: races show sooner
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == threads_n
        assert len(compiles) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == threads_n - 1
        assert all(got is plan for got, _ in results)
        assert sorted(hit for _, hit in results) == [False] + [True] * (threads_n - 1)
