"""Request/response containers and server statistics for attention serving.

An :class:`AttentionRequest` carries one Q/K/V triple plus the mask it wants
attended; the :class:`~repro.serve.scheduler.AttentionServer` answers with an
:class:`AttentionResponse` holding the kernel result, the plan that executed
it, whether that plan came from the warm cache, and the request's kernel
latency.  :class:`ServerStats` aggregates a server's lifetime counters into
the throughput numbers the benchmarks report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.engine import MaskInput
from repro.core.result import AttentionResult
from repro.serve.cache import CacheStats
from repro.serve.paging import BlockPoolStats
from repro.utils.validation import check_real_finite, require


@dataclass(eq=False)
class AttentionRequest:
    """One attention computation to serve.

    ``q``/``k``/``v`` are ``(..., L, d)``: a bare single-head slice or any
    stack of batch/head slices (e.g. ``(B, H, L, d_head)`` for a whole
    multi-head layer) sharing one mask — the plan executes every leading axis
    in one vectorized kernel pass; they must be real floating point and
    finite.  ``request_id`` may be left ``None``; the server assigns one at
    submission.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    mask: MaskInput = None
    request_id: Optional[int] = None

    def __post_init__(self) -> None:
        self.q, self.k, self.v = np.asarray(self.q), np.asarray(self.k), np.asarray(self.v)
        require(self.q.ndim >= 2, "q must be a (..., L, d_k) array")
        require(self.k.shape == self.q.shape, "q and k must have matching shapes")
        require(
            self.v.shape[:-1] == self.q.shape[:-1],
            "v must cover the same batch axes and rows as q",
        )
        for name in ("q", "k", "v"):
            check_real_finite(getattr(self, name), name)

    @property
    def length(self) -> int:
        return int(self.q.shape[-2])

    @property
    def batch_shape(self) -> tuple:
        """Leading batch/head axes of the request tensors."""
        return tuple(int(s) for s in self.q.shape[:-2])


@dataclass
class AttentionResponse:
    """Served result of one request."""

    request_id: int
    result: AttentionResult
    plan_key: str
    cache_hit: bool
    latency_s: float

    @property
    def output(self) -> np.ndarray:
        return self.result.output


#: Counter/timer fields copied field-by-field into a snapshot (everything in
#: :class:`ServerStats` except the nested ``cache``/``pool`` stats and the lock).
_SERVER_COUNTER_FIELDS = (
    "requests",
    "batches",
    "flushes",
    "plans_compiled",
    "stacked_executions",
    "coalesced_requests",
    "wall_seconds",
    "kernel_seconds",
    "decode_sessions",
    "decode_steps",
    "decode_stacked_executions",
    "decode_coalesced_steps",
    "decode_wall_seconds",
    "prefill_chunks",
    "prefill_tokens",
    "prefill_stacked_executions",
    "prefill_coalesced_chunks",
    "prefill_wall_seconds",
    "sessions_closed",
    "admission_rejected",
)


@dataclass
class ServerStats:
    """Lifetime counters of one :class:`~repro.serve.scheduler.AttentionServer`.

    The owning server mutates these under :attr:`lock`; concurrent readers
    (benchmark reporters, the ops CLI) must use :meth:`snapshot` — reading
    the live fields mid-flush can tear (e.g. ``requests`` updated but
    ``wall_seconds`` not yet).
    """

    requests: int = 0
    batches: int = 0
    flushes: int = 0
    plans_compiled: int = 0
    stacked_executions: int = 0
    coalesced_requests: int = 0
    wall_seconds: float = 0.0
    kernel_seconds: float = 0.0
    decode_sessions: int = 0
    decode_steps: int = 0
    decode_stacked_executions: int = 0
    decode_coalesced_steps: int = 0
    decode_wall_seconds: float = 0.0
    prefill_chunks: int = 0
    prefill_tokens: int = 0
    prefill_stacked_executions: int = 0
    prefill_coalesced_chunks: int = 0
    prefill_wall_seconds: float = 0.0
    sessions_closed: int = 0
    admission_rejected: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: Live stats of the server's shared block pool (``None`` until one exists).
    pool: Optional[BlockPoolStats] = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def snapshot(self) -> "ServerStatsSnapshot":
        """Tear-free immutable copy of every counter (taken under the lock).

        The nested cache/pool stats are copied too; for a pool snapshot taken
        under the *pool's* lock use
        :meth:`~repro.serve.scheduler.AttentionServer.stats_snapshot`, which
        composes both locks correctly.
        """
        with self.lock:
            counters = {name: getattr(self, name) for name in _SERVER_COUNTER_FIELDS}
            cache = self.cache.snapshot()
            pool = self.pool.snapshot() if self.pool is not None else None
        return ServerStatsSnapshot(cache=cache, pool=pool, **counters)

    @property
    def throughput_rps(self) -> float:
        """Requests served per wall-clock second across all flushes."""
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean per-request kernel latency."""
        return self.kernel_seconds / self.requests if self.requests else 0.0

    @property
    def decode_steps_per_second(self) -> float:
        """Decode tokens served per wall-clock second across all step batches."""
        if self.decode_wall_seconds <= 0:
            return 0.0
        return self.decode_steps / self.decode_wall_seconds

    @property
    def block_occupancy(self) -> float:
        """Fraction of the shared pool's blocks mapped by live sessions."""
        return self.pool.occupancy if self.pool is not None else 0.0


@dataclass(frozen=True)
class ServerStatsSnapshot:
    """Immutable copy of :class:`ServerStats` (same derived accessors)."""

    requests: int
    batches: int
    flushes: int
    plans_compiled: int
    stacked_executions: int
    coalesced_requests: int
    wall_seconds: float
    kernel_seconds: float
    decode_sessions: int
    decode_steps: int
    decode_stacked_executions: int
    decode_coalesced_steps: int
    decode_wall_seconds: float
    prefill_chunks: int
    prefill_tokens: int
    prefill_stacked_executions: int
    prefill_coalesced_chunks: int
    prefill_wall_seconds: float
    sessions_closed: int
    admission_rejected: int
    cache: CacheStats
    pool: Optional[BlockPoolStats]

    throughput_rps = ServerStats.throughput_rps
    mean_latency_s = ServerStats.mean_latency_s
    decode_steps_per_second = ServerStats.decode_steps_per_second
    block_occupancy = ServerStats.block_occupancy

