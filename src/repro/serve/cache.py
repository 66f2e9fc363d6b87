"""LRU cache for compiled execution plans.

Compiling a plan for a composed mask materialises CSR components and runs set
algebra — work proportional to the mask's edge count.  A serving workload
sees a small set of mask shapes repeated across thousands of requests, so
:class:`PlanCache` keeps the most recently used plans keyed by their
canonical :func:`~repro.serve.plan.plan_cache_key` and tracks hit/miss/
eviction statistics so operators can size the cache from observed traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.obs.recorder import NULL_OBS, Observability
from repro.serve.plan import ExecutionPlan
from repro.utils.validation import require


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(hits=self.hits, misses=self.misses, evictions=self.evictions)


class PlanCache:
    """Least-recently-used cache of :class:`~repro.serve.plan.ExecutionPlan`.

    ``capacity`` bounds the number of cached plans; inserting beyond it evicts
    the least recently *used* entry (both :meth:`get` hits and :meth:`put`
    updates refresh recency).

    One lock covers the entries and the counters, and :meth:`get_or_compile`
    holds it across lookup, compile and insert, so threads racing on one key
    compile it once.  ``compile_fn`` runs under that lock: it may take
    leaf locks (the server's stats lock), but nothing may take this lock
    while holding one of those.
    """

    def __init__(self, capacity: int = 128, *, obs: Optional[Observability] = None):
        require(capacity >= 1, "cache capacity must be >= 1")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[str, ExecutionPlan]" = OrderedDict()
        self.stats = CacheStats()
        self.obs = obs if obs is not None else NULL_OBS
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # membership test does not count as a lookup and does not touch recency
        return key in self._entries

    def keys(self) -> List[str]:
        """Cached keys from least to most recently used."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[ExecutionPlan]:
        """Return the cached plan for ``key`` (refreshing recency) or ``None``."""
        with self._lock:
            return self._get(key)

    def _get(self, key: str) -> Optional[ExecutionPlan]:
        plan = self._entries.get(key)
        if plan is None:
            self.stats.misses += 1
            if self.obs.enabled:
                self.obs.plan_cache_events.labels(event="miss").inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if self.obs.enabled:
            self.obs.plan_cache_events.labels(event="hit").inc()
        return plan

    def put(self, key: str, plan: ExecutionPlan) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry beyond capacity."""
        with self._lock:
            self._put(key, plan)

    def _put(self, key: str, plan: ExecutionPlan) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = plan
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self.obs.enabled:
                self.obs.plan_cache_events.labels(event="eviction").inc()

    def get_or_compile(
        self, key: str, compile_fn: Callable[[], ExecutionPlan]
    ) -> Tuple[ExecutionPlan, bool]:
        """Fetch ``key`` or compile-and-insert it; returns ``(plan, was_hit)``."""
        with self._lock:
            plan = self._get(key)
            if plan is not None:
                return plan, True
            plan = compile_fn()
            self._put(key, plan)
            return plan, False

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        with self._lock:
            self._entries.clear()
