"""The asyncio serving edge: streaming responses, tenant isolation, drain.

:class:`AsyncServingEdge` is the network-shaped front door the roadmap's
"millions of users" goal needs on top of the in-process
:class:`~repro.serve.loop.ContinuousBatchingScheduler`:

* **Streaming** — ``await edge.submit(request)`` returns a
  :class:`TokenStream`; iterating it (``async for chunk in stream``) yields
  attention-output chunks the moment the loop emits them, bridged through a
  per-stream ``asyncio.Queue`` fed by the scheduler's emit listeners.
* **Backpressure** — a consumer that stops reading lets its queue grow to
  ``max_buffered_chunks``; the edge then *holds* the stream (the scheduler
  skips it in admission and batch formation, without dropping its blocks)
  until the consumer drains below the threshold.  A stalled client therefore
  costs its own stream's progress, never the batch's.
* **Tenant isolation** — every request bills to a tenant whose
  :class:`TenantConfig` caps request rate (token bucket on the scheduler's
  clock), concurrent streams, and total KV block budget.  Violations raise
  :class:`TenantThrottled` *at admission*, before the request touches the
  loop, and are exported per tenant/reason through ``edge_throttled_total``.
* **Graceful drain** — ``await edge.shutdown(drain=True)`` rejects new
  submissions with :class:`EdgeClosed` while in-flight streams run to
  completion; ``drain=False`` cancels them, releasing their blocks.
* **Failure** — if a scheduler step raises, every open stream's consumer
  raises that exception, the edge refuses new streams with
  :class:`EdgeClosed`, and ``shutdown()`` re-raises the exception once.

The edge never spawns threads: one asyncio task drives ``scheduler.step()``
and cooperatively yields after every iteration, so consumers interleave with
the loop on one event loop.  On a
:class:`~repro.serve.loop.VirtualClock` the whole edge is deterministic —
the bit-exactness tests replay streamed chunks against per-request
:class:`~repro.serve.decode.DecodeSession` oracles.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.obs.recorder import Observability
from repro.perfmodel.decode import blocks_for_tokens
from repro.serve.loop import ContinuousBatchingScheduler, LoopRequest
from repro.utils.validation import require


class TenantThrottled(RuntimeError):
    """Admission refused by a tenant limit; ``reason`` is rate/quota/budget."""

    def __init__(self, tenant: str, reason: str, message: str) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class EdgeClosed(RuntimeError):
    """The edge is shut down, draining or failed, and accepts no new streams."""


class StreamCancelled(RuntimeError):
    """Delivered to a consumer whose stream was cancelled under it."""


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant isolation limits; every field ``None`` means unlimited.

    ``rate_per_second`` refills a token bucket on the scheduler's clock
    (virtual seconds under a :class:`~repro.serve.loop.VirtualClock`), with
    capacity ``burst`` (default: ``max(1, rate)``).  ``max_streams`` caps
    concurrently live streams; ``max_blocks`` caps the summed worst-case KV
    block footprint of the tenant's live streams, so one tenant cannot
    reserve the pool out from under the rest.
    """

    rate_per_second: Optional[float] = None
    burst: Optional[int] = None
    max_streams: Optional[int] = None
    max_blocks: Optional[int] = None

    def __post_init__(self) -> None:
        require(
            self.rate_per_second is None or self.rate_per_second > 0,
            "rate_per_second must be positive when given",
        )
        require(self.burst is None or self.burst >= 1, "burst must be >= 1 when given")
        require(
            self.max_streams is None or self.max_streams >= 1,
            "max_streams must be >= 1 when given",
        )
        require(
            self.max_blocks is None or self.max_blocks >= 1,
            "max_blocks must be >= 1 when given",
        )

    @property
    def bucket_capacity(self) -> float:
        if self.burst is not None:
            return float(self.burst)
        if self.rate_per_second is not None:
            return max(1.0, float(self.rate_per_second))
        return float("inf")


@dataclass
class _TenantState:
    """Live accounting for one tenant: bucket level + active stream blocks."""

    config: TenantConfig
    tokens: float
    last_refill: float
    #: request id -> worst-case block footprint charged at admission
    active: Dict[int, int] = field(default_factory=dict)

    @property
    def blocks_reserved(self) -> int:
        return sum(self.active.values())


@dataclass(eq=False)
class _EdgeStream:
    """Edge-private state of one streaming request."""

    request_id: int
    tenant: str
    blocks: int
    queue: "asyncio.Queue" = field(default_factory=asyncio.Queue)
    held: bool = False
    closed: bool = False
    span: Optional[object] = None


@dataclass
class EdgeStats:
    """Lifetime counters of one edge (admissions, throttles, backpressure)."""

    submitted: int = 0
    accepted: int = 0
    throttled: int = 0
    finished: int = 0
    cancelled: int = 0
    backpressure_holds: int = 0


class TokenStream:
    """Async handle for one stream: iterate it to receive output chunks.

    Chunks arrive as ``batch_shape + (t, d)`` arrays in emission order
    (prefill chunks first, then one row per decode step); concatenating them
    along ``axis=-2`` reproduces the loop's final result bit-exactly.
    ``collect()`` does exactly that.  Exhaustion (``StopAsyncIteration``)
    means the stream finished; :class:`StreamCancelled` / :class:`EdgeClosed`
    are raised mid-iteration if the stream is torn down under the consumer.
    """

    def __init__(self, edge: "AsyncServingEdge", state: _EdgeStream) -> None:
        self._edge = edge
        self._state = state
        self._finished = False

    @property
    def request_id(self) -> int:
        return self._state.request_id

    @property
    def tenant(self) -> str:
        return self._state.tenant

    def __aiter__(self) -> "TokenStream":
        return self

    async def __anext__(self) -> np.ndarray:
        if self._finished:
            raise StopAsyncIteration
        kind, payload = await self._state.queue.get()
        self._edge._after_get(self._state)
        if kind == "chunk":
            return payload
        self._finished = True
        if kind == "error":
            raise payload
        raise StopAsyncIteration

    async def collect(self) -> np.ndarray:
        """Drain the stream and concatenate its chunks along the token axis."""
        chunks = [chunk async for chunk in self]
        require(len(chunks) > 0, "stream produced no chunks (cancelled before start?)")
        return np.concatenate(chunks, axis=-2)

    async def cancel(self) -> bool:
        """Abandon the stream (client disconnect): frees its blocks now."""
        return await self._edge.cancel(self.request_id)


class AsyncServingEdge:
    """Asyncio front-end over one scheduler: streaming, quotas, drain.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.serve.loop.ContinuousBatchingScheduler` to drive.
        The edge owns stepping it while it has live streams; the scheduler's
        clock also times the tenant rate limiters.
    tenants:
        Mapping of tenant name to :class:`TenantConfig`.  Unknown tenants get
        ``default_tenant`` (unlimited by default), created on first use.
    default_tenant:
        The :class:`TenantConfig` applied to tenants absent from ``tenants``.
    max_buffered_chunks:
        Per-stream queue depth that triggers a backpressure hold; the hold
        releases when the consumer drains below it.
    obs:
        Observability recorder (defaults to the scheduler's): edge admission
        outcomes, throttles, per-tenant live-stream gauges, backpressure
        events, and ``edge_stream`` trace spans.
    """

    def __init__(
        self,
        scheduler: ContinuousBatchingScheduler,
        *,
        tenants: Optional[Dict[str, TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
        max_buffered_chunks: int = 8,
        obs: Optional[Observability] = None,
    ) -> None:
        require(max_buffered_chunks >= 1, "max_buffered_chunks must be >= 1")
        self.scheduler = scheduler
        self.clock = scheduler.clock
        self.obs = obs if obs is not None else scheduler.obs
        self.max_buffered_chunks = int(max_buffered_chunks)
        self.stats = EdgeStats()
        self._tenant_configs = dict(tenants or {})
        self._default_config = default_tenant if default_tenant is not None else TenantConfig()
        self._tenants: Dict[str, _TenantState] = {}
        self._streams: Dict[int, _EdgeStream] = {}
        self._task: Optional[asyncio.Task] = None
        self._work: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._draining = False
        self._closed = False
        #: the exception a scheduler step raised; the edge is dead after it
        self._failure: Optional[Exception] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done() and not self._closed

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "AsyncServingEdge":
        """Start the drive task (idempotent; ``submit`` calls it lazily)."""
        require(not self._closed, "this edge is shut down; build a new one")
        if self._work is None:
            self._work = asyncio.Event()
            self._idle = asyncio.Event()
            self._idle.set()
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._drive())
        return self

    async def __aenter__(self) -> "AsyncServingEdge":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown(drain=exc_info[0] is None)

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting streams; finish (``drain=True``) or cancel the rest.

        Draining requires the in-flight streams' consumers to keep reading —
        a held stream whose consumer is gone never finishes.  Cancel such
        streams (or use ``drain=False``) to tear down unconditionally.
        """
        if self._closed:
            return
        self._draining = True
        if self._work is not None:
            self._work.set()
        if drain and self._streams:
            await self._idle.wait()
        if not drain:
            for stream in list(self._streams.values()):
                self._teardown_stream(stream, error=EdgeClosed("edge shut down"))
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _tenant_state(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            config = self._tenant_configs.get(name, self._default_config)
            state = _TenantState(
                config=config,
                tokens=config.bucket_capacity,
                last_refill=self.clock.now(),
            )
            self._tenants[name] = state
        return state

    def _bucket_take(self, state: _TenantState, now: float) -> bool:
        config = state.config
        if config.rate_per_second is None:
            return True
        capacity = config.bucket_capacity
        state.tokens = min(
            capacity, state.tokens + (now - state.last_refill) * config.rate_per_second
        )
        state.last_refill = now
        if state.tokens >= 1.0:
            state.tokens -= 1.0
            return True
        return False

    def _record_outcome(self, tenant: str, outcome: str) -> None:
        if self.obs.enabled:
            self.obs.edge_requests.labels(tenant=tenant, outcome=outcome).inc()

    def _throttle(self, tenant: str, reason: str, message: str) -> TenantThrottled:
        self.stats.throttled += 1
        self._record_outcome(tenant, "throttled")
        if self.obs.enabled:
            self.obs.edge_throttles.labels(tenant=tenant, reason=reason).inc()
        return TenantThrottled(tenant, reason, message)

    async def submit(self, request: LoopRequest, *, tenant: Optional[str] = None) -> TokenStream:
        """Admit one stream (tenant limits enforced here) and start streaming.

        ``tenant`` overrides/sets ``request.tenant``; untagged requests bill
        to ``"default"``.  Raises :class:`TenantThrottled` (rate / quota /
        budget, in that order) or :class:`EdgeClosed`; on success the request
        is submitted to the loop and its :class:`TokenStream` returned.
        """
        self.stats.submitted += 1
        require(
            tenant is None or request.tenant is None or tenant == request.tenant,
            "tenant= disagrees with request.tenant",
        )
        name = tenant or request.tenant or "default"
        if self._failure is not None:
            self._record_outcome(name, "closed")
            raise EdgeClosed("the edge's scheduler failed; no new streams accepted") from self._failure
        if self._draining or self._closed:
            self._record_outcome(name, "closed")
            raise EdgeClosed("the edge is draining; no new streams accepted")
        await self.start()
        request.tenant = name
        state = self._tenant_state(name)
        config = state.config
        now = self.clock.now()
        if not self._bucket_take(state, now):
            raise self._throttle(
                name,
                "rate",
                f"tenant {name!r} exceeded {config.rate_per_second}/s "
                f"(burst {config.bucket_capacity:g})",
            )
        if config.max_streams is not None and len(state.active) >= config.max_streams:
            raise self._throttle(
                name,
                "quota",
                f"tenant {name!r} already has {len(state.active)} live streams "
                f"(limit {config.max_streams})",
            )
        blocks = blocks_for_tokens(request.total_tokens, self.scheduler.pool.block_size)
        if config.max_blocks is not None and state.blocks_reserved + blocks > config.max_blocks:
            raise self._throttle(
                name,
                "budget",
                f"tenant {name!r} would hold {state.blocks_reserved + blocks} KV "
                f"blocks (budget {config.max_blocks})",
            )
        rid = self.scheduler.submit(request)
        state.active[rid] = blocks
        stream = _EdgeStream(request_id=rid, tenant=name, blocks=blocks)
        self._streams[rid] = stream
        self.scheduler.add_emit_listener(rid, self._on_emit)
        self.stats.accepted += 1
        self._record_outcome(name, "accepted")
        obs = self.obs
        if obs.enabled:
            obs.edge_active_streams.labels(tenant=name).set(len(state.active))
            if obs.trace is not None:
                stream.span = obs.trace.start_span(
                    "edge_stream", now, request_id=rid, tenant=name
                )
        self._idle.clear()
        self._work.set()
        return TokenStream(self, stream)

    # ------------------------------------------------------------------ #
    # The drive task
    # ------------------------------------------------------------------ #
    def _on_emit(self, request_id: int, kind: str, output: np.ndarray) -> None:
        stream = self._streams.get(request_id)
        if stream is not None and not stream.closed:
            stream.queue.put_nowait(("chunk", output))

    def _apply_backpressure(self) -> None:
        for stream in self._streams.values():
            if not stream.held and stream.queue.qsize() >= self.max_buffered_chunks:
                self.scheduler.hold(stream.request_id)
                stream.held = True
                self.stats.backpressure_holds += 1
                if self.obs.enabled:
                    self.obs.edge_backpressure.labels(tenant=stream.tenant).inc()

    def _after_get(self, stream: _EdgeStream) -> None:
        """Consumer drained one item: release the hold once below threshold."""
        if stream.held and stream.queue.qsize() < self.max_buffered_chunks:
            stream.held = False
            if not stream.closed:
                self.scheduler.release_hold(stream.request_id)
            if self._work is not None:
                self._work.set()

    async def _drive(self) -> None:
        stalled = 0
        try:
            while True:
                if not self._streams or all(s.held for s in self._streams.values()):
                    # nothing to schedule (idle, or every consumer stalled):
                    # sleep until a submit / drain / cancel wakes us
                    self._work.clear()
                    await self._work.wait()
                    continue
                self._apply_backpressure()
                report = self.scheduler.step()
                for rid in report.finished:
                    stream = self._streams.get(rid)
                    if stream is not None:
                        self._finish_stream(stream)
                progressed = (
                    report.tokens > 0 or report.admitted or report.finished or report.preempted
                )
                if progressed:
                    stalled = 0
                elif any(s.held for s in self._streams.values()):
                    # blocked behind a held stream's blocks: a consumer drain
                    # will wake us, so park instead of spinning the clock
                    self._work.clear()
                    await self._work.wait()
                    continue
                else:
                    stalled += 1
                    if stalled >= 2:
                        error = RuntimeError(
                            "serving edge stalled: no admission, tokens, or finishes"
                        )
                        for stream in list(self._streams.values()):
                            self._teardown_stream(stream, error=error)
                        continue
                # yield after every iteration so consumers interleave
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            pass
        except Exception as error:
            # a step raised (a kernel error, say): every open stream's
            # consumer raises it rather than wait forever, no new stream is
            # accepted, and the task ends with it, so shutdown() re-raises it
            self._failure = error
            for stream in list(self._streams.values()):
                self._teardown_stream(stream, error=error)
            raise

    # ------------------------------------------------------------------ #
    # Completion / cancellation
    # ------------------------------------------------------------------ #
    def _release_tenant(self, stream: _EdgeStream) -> None:
        state = self._tenants.get(stream.tenant)
        if state is not None:
            state.active.pop(stream.request_id, None)
            if self.obs.enabled:
                self.obs.edge_active_streams.labels(tenant=stream.tenant).set(
                    len(state.active)
                )

    def _close_stream(self, stream: _EdgeStream, event: str) -> None:
        stream.closed = True
        self.scheduler.remove_emit_listener(stream.request_id)
        self._release_tenant(stream)
        self._streams.pop(stream.request_id, None)
        obs = self.obs
        if obs.enabled and obs.trace is not None and stream.span is not None:
            now = self.clock.now()
            obs.trace.event(
                event, now, span=stream.span, request_id=stream.request_id
            )
            obs.trace.end_span(stream.span, now)
            stream.span = None
        if not self._streams and self._idle is not None:
            self._idle.set()
        if self._work is not None:
            self._work.set()

    def _finish_stream(self, stream: _EdgeStream) -> None:
        # the loop concatenated the full output into scheduler.results; the
        # consumer already holds every chunk, so drop the duplicate — a
        # perpetual edge must not accumulate finished tensors
        self.scheduler.results.pop(stream.request_id, None)
        stream.queue.put_nowait(("done", None))
        self.stats.finished += 1
        self._close_stream(stream, "edge_finish")

    def _teardown_stream(self, stream: _EdgeStream, error: Optional[Exception]) -> None:
        self.scheduler.cancel(stream.request_id)
        self.scheduler.results.pop(stream.request_id, None)
        stream.queue.put_nowait(("done", None) if error is None else ("error", error))
        self.stats.cancelled += 1
        self._record_outcome(stream.tenant, "cancelled")
        self._close_stream(stream, "edge_cancel")

    async def cancel(self, request_id: int) -> bool:
        """Client disconnect: cancel the stream, releasing blocks and quota.

        The consumer (if still iterating) receives :class:`StreamCancelled`.
        Returns ``False`` for unknown / already-finished streams.
        """
        stream = self._streams.get(request_id)
        if stream is None:
            return False
        self._teardown_stream(
            stream, error=StreamCancelled(f"stream {request_id} cancelled")
        )
        return True


__all__ = [
    "AsyncServingEdge",
    "EdgeClosed",
    "EdgeStats",
    "StreamCancelled",
    "TenantConfig",
    "TenantThrottled",
    "TokenStream",
]
