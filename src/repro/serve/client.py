"""``ServingClient`` — the one public façade over the serving stack.

Every way to get attention served goes through one object:

* :meth:`ServingClient.generate` — synchronous end-to-end: submit one
  :class:`~repro.serve.loop.LoopRequest` (or raw ``q/k/v``) and drive the
  loop until it finishes.  Everything routes through the scheduler, so
  concurrent ``generate_many`` calls batch and preempt like real traffic.
* :meth:`ServingClient.agenerate` — the same contract ``async``, routed
  through a lazily-started :class:`~repro.serve.edge.AsyncServingEdge` on
  the current event loop (tenant limits and SLO scheduling included).
* :meth:`ServingClient.open_session` / :meth:`ServingClient.close_session`
  — the session-level escape hatch for callers that drive
  :class:`~repro.serve.decode.DecodeSession` steps themselves.  An open
  on the server's pool is admitted or rejected at once; requests that
  should wait for capacity go through the loop, whose policy-ranked queue
  is the one admission queue.

Constructor keywords follow the stack-wide normalized style (``obs=``,
``clock=``, ``policy=``, ``storage=``), validated by the shared
:func:`~repro.serve.loop.resolve_serving_kwargs` helper — the same one the
scheduler and the router use.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import MaskInput
from repro.obs.recorder import Observability
from repro.serve.edge import AsyncServingEdge, TenantConfig, TokenStream
from repro.serve.loop import (
    ContinuousBatchingScheduler,
    LoopRequest,
    RequestTelemetry,
    drain,
    resolve_serving_kwargs,
)
from repro.serve.paging import DEFAULT_BLOCK_SIZE, SwapStore
from repro.serve.quant import resolve_storage
from repro.serve.router import ReplicaRouter
from repro.serve.scheduler import AttentionServer
from repro.serve.decode import DecodeSession
from repro.utils.validation import require


@dataclass(frozen=True)
class GenerationResult:
    """One finished stream: its id, stacked output, and telemetry."""

    request_id: int
    #: ``batch_shape + (total_tokens, d_v)`` attention outputs, prompt included
    output: np.ndarray
    telemetry: RequestTelemetry

    @property
    def slo_attained(self) -> Optional[bool]:
        return self.telemetry.slo_attained


class ServingClient:
    """The blessed entry point: one object, every way to get served.

    Build it over an existing :class:`~repro.serve.scheduler.AttentionServer`
    (or scheduler), or let it assemble the stack itself:

    >>> client = ServingClient(key_dim=8, num_blocks=64)
    >>> result = client.generate(q, k, v, mask, prompt_tokens=16)

    Parameters
    ----------
    server:
        An existing server to wrap; built fresh when omitted.
    scheduler:
        An existing loop to route through (mutually exclusive with
        ``server`` and the stack-assembly keywords below).
    obs, clock, policy, policy_seed:
        Normalized observability / clock / scheduling-policy keywords
        (``policy`` accepts a registry name or an instance), validated by
        :func:`~repro.serve.loop.resolve_serving_kwargs`.
    storage, key_dim, value_dim, num_blocks, memory_budget_bytes,
    block_size, batch_shape, pool_dtype:
        Block-pool assembly: when ``key_dim`` is given and the server has no
        pool, one is created (sized by ``num_blocks`` — default 64 — or
        ``memory_budget_bytes``) with the requested ``storage`` format.
    max_streams, prefill_chunk, max_iteration_tokens, preemption,
    swap_store:
        Passed to the :class:`~repro.serve.loop.ContinuousBatchingScheduler`
        the client builds lazily on first loop-routed call.
    tenants, default_tenant, max_buffered_chunks:
        Tenant isolation config for the async edge ``agenerate`` uses.
    replicas, router_policy, rebalance_interval:
        ``replicas > 1`` assembles a :class:`~repro.serve.router.ReplicaRouter`
        instead of a single scheduler: each replica gets its own server and
        ``num_blocks``-sized pool, and ``generate``/``generate_many`` route
        by prompt-prefix affinity (outputs stay bit-identical to
        ``replicas=1``).  Requires ``key_dim`` and excludes ``server=``,
        ``scheduler=``, ``memory_budget_bytes=`` and the session/async entry
        points, which are single-server concepts.
    """

    def __init__(
        self,
        server: Optional[AttentionServer] = None,
        *,
        scheduler: Optional[ContinuousBatchingScheduler] = None,
        obs: Optional[Observability] = None,
        clock=None,
        policy=None,
        policy_seed: int = 0,
        storage: Optional[str] = None,
        key_dim: Optional[int] = None,
        value_dim: Optional[int] = None,
        num_blocks: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        batch_shape: Tuple[int, ...] = (),
        pool_dtype=np.float32,
        max_streams: int = 8,
        prefill_chunk: int = 32,
        max_iteration_tokens: Optional[int] = None,
        preemption: str = "swap",
        swap_store: Optional[SwapStore] = None,
        tenants: Optional[Dict[str, TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
        max_buffered_chunks: int = 8,
        replicas: int = 1,
        router_policy: str = "affinity",
        rebalance_interval: int = 8,
    ) -> None:
        require(replicas >= 1, "replicas must be >= 1")
        self._router: Optional[ReplicaRouter] = None
        if replicas > 1:
            require(
                server is None and scheduler is None,
                "replicas>1 builds its own per-replica servers; drop server=/scheduler=",
            )
            require(
                key_dim is not None,
                "replicas>1 needs key_dim= to size each replica's block pool",
            )
            require(
                memory_budget_bytes is None,
                "multi-replica pools are sized per replica by num_blocks=, "
                "not a global byte budget",
            )
            self._router = ReplicaRouter(
                replicas,
                key_dim=key_dim,
                value_dim=value_dim,
                num_blocks=num_blocks if num_blocks is not None else 64,
                block_size=block_size,
                batch_shape=batch_shape,
                pool_dtype=pool_dtype,
                storage=storage,
                policy=policy if policy is not None else "fcfs",
                policy_seed=policy_seed,
                router_policy=router_policy,
                clock=clock,
                obs=obs,
                max_streams=max_streams,
                prefill_chunk=prefill_chunk,
                max_iteration_tokens=max_iteration_tokens,
                preemption=preemption,
                rebalance_interval=rebalance_interval,
            )
            self.server = None
            self._scheduler = None
            self._policy = None
            self._clock = self._router.clock
            self._obs = self._router.obs
            self._storage = self._router.storage
            self._loop_kwargs = {}
            self._tenants = tenants
            self._default_tenant = default_tenant
            self._max_buffered_chunks = max_buffered_chunks
            self._edge = None
            self._edge_loop = None
            return
        if scheduler is not None:
            require(
                server is None,
                "pass either scheduler= or server=, not both",
            )
            require(
                policy is None and clock is None and obs is None,
                "policy/clock/obs are configured on the scheduler you passed; "
                "leave them unset here",
            )
            self.server = scheduler.server
            self._scheduler: Optional[ContinuousBatchingScheduler] = scheduler
            self._policy = scheduler.policy
            self._clock = scheduler.clock
            self._obs = scheduler.obs
        else:
            self.server = server if server is not None else AttentionServer(obs=obs)
            self._scheduler = None
            # policy/clock resolved now (fail fast on typos); obs defaults to
            # the server's recorder at scheduler-build time
            self._policy, self._clock, self._obs = resolve_serving_kwargs(
                policy=policy,
                policy_seed=policy_seed,
                clock=clock,
                obs=obs,
                default_obs=self.server.obs,
            )
        self._storage = (
            resolve_storage(storage, pool_dtype) if storage is not None else None
        )
        if key_dim is not None and self.server.block_pool is None:
            if num_blocks is None and memory_budget_bytes is None:
                num_blocks = 64
            self.server.create_block_pool(
                key_dim=key_dim,
                value_dim=value_dim,
                batch_shape=batch_shape,
                dtype=pool_dtype,
                storage=self._storage,
                num_blocks=num_blocks,
                memory_budget_bytes=memory_budget_bytes,
                block_size=block_size,
            )
        elif self._storage is not None and self.server.block_pool is not None:
            require(
                self.server.block_pool.storage == self._storage,
                f"server pool stores {self.server.block_pool.storage!r} but "
                f"storage={self._storage!r} was requested",
            )
        self._loop_kwargs = dict(
            max_streams=max_streams,
            prefill_chunk=prefill_chunk,
            max_iteration_tokens=max_iteration_tokens,
            preemption=preemption,
            swap_store=swap_store,
        )
        self._tenants = tenants
        self._default_tenant = default_tenant
        self._max_buffered_chunks = max_buffered_chunks
        self._edge: Optional[AsyncServingEdge] = None
        self._edge_loop = None

    # ------------------------------------------------------------------ #
    # The loop (built lazily: session-only clients need no block pool)
    # ------------------------------------------------------------------ #
    @property
    def router(self) -> Optional[ReplicaRouter]:
        """The multi-replica router (None unless built with ``replicas>1``)."""
        return self._router

    @property
    def scheduler(self) -> ContinuousBatchingScheduler:
        if self._scheduler is None:
            require(
                self._router is None,
                "a replicas>1 client routes through client.router, not one "
                "scheduler; use generate/generate_many or router.* directly",
            )
            require(
                self.server.block_pool is not None,
                "loop-routed generation needs a KV block pool: construct the "
                "client with key_dim=/num_blocks= (or call "
                "client.server.create_block_pool first)",
            )
            self._scheduler = ContinuousBatchingScheduler(
                self.server,
                policy=self._policy,
                clock=self._clock,
                obs=self._obs,
                **self._loop_kwargs,
            )
        return self._scheduler

    @property
    def clock(self):
        return self._clock

    @property
    def obs(self) -> Observability:
        return self._obs

    # ------------------------------------------------------------------ #
    # Synchronous generation
    # ------------------------------------------------------------------ #
    def _as_request(
        self,
        q,
        k,
        v,
        mask: MaskInput = None,
        *,
        prompt_tokens: int = 1,
        priority: float = 1.0,
        tenant: Optional[str] = None,
        slo_latency_seconds: Optional[float] = None,
    ) -> LoopRequest:
        return LoopRequest(
            q=q,
            k=k,
            v=v,
            mask=mask,
            prompt_tokens=prompt_tokens,
            priority=priority,
            tenant=tenant,
            slo_latency_seconds=slo_latency_seconds,
        )

    def submit(self, request: LoopRequest) -> int:
        """Queue a prepared request on the loop (or router); returns its id."""
        if self._router is not None:
            return self._router.submit(request)
        return self.scheduler.submit(request)

    def generate(
        self,
        q,
        k,
        v,
        mask: MaskInput = None,
        *,
        prompt_tokens: int = 1,
        priority: float = 1.0,
        tenant: Optional[str] = None,
        slo_latency_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
    ) -> GenerationResult:
        """Serve one stream end to end through the loop, synchronously."""
        request = self._as_request(
            q,
            k,
            v,
            mask,
            prompt_tokens=prompt_tokens,
            priority=priority,
            tenant=tenant,
            slo_latency_seconds=slo_latency_seconds,
        )
        rid = self.submit(request)
        drain(self._engine(), until=(rid,), max_iterations=max_iterations)
        return self._result(rid)

    def generate_many(
        self, requests: Sequence[LoopRequest], *, max_iterations: Optional[int] = None
    ) -> List[GenerationResult]:
        """Submit a batch and drive the loop until all of them finish."""
        rids = [self.submit(request) for request in requests]
        drain(self._engine(), until=rids, max_iterations=max_iterations)
        return [self._result(rid) for rid in rids]

    def _engine(self):
        """Whatever executes streams: the router, or the single loop."""
        return self._router if self._router is not None else self.scheduler

    def _result(self, rid: int) -> GenerationResult:
        engine = self._engine()
        output = engine.results.pop(rid)
        return GenerationResult(
            request_id=rid, output=output, telemetry=engine.telemetry[rid]
        )

    # ------------------------------------------------------------------ #
    # Async generation (routed through the edge)
    # ------------------------------------------------------------------ #
    async def _ensure_edge(self) -> AsyncServingEdge:
        require(
            self._router is None,
            "the async edge drives one scheduler; replicas>1 serves through "
            "generate/generate_many (or router.submit + router.step)",
        )
        loop = asyncio.get_running_loop()
        if self._edge is None or self._edge_loop is not loop or not self._edge.running:
            self._edge = AsyncServingEdge(
                self.scheduler,
                tenants=self._tenants,
                default_tenant=self._default_tenant,
                max_buffered_chunks=self._max_buffered_chunks,
                obs=self._obs,
            )
            self._edge_loop = loop
            await self._edge.start()
        return self._edge

    @property
    def edge(self) -> Optional[AsyncServingEdge]:
        """The edge backing ``agenerate`` (None until first async call)."""
        return self._edge

    async def astream(
        self, request: LoopRequest, *, tenant: Optional[str] = None
    ) -> TokenStream:
        """Admit one prepared request and stream its chunks through the edge.

        The streaming sibling of :meth:`submit`: tenant limits are enforced
        at admission and the returned :class:`~repro.serve.edge.TokenStream`
        yields output chunks as the loop emits them.
        """
        edge = await self._ensure_edge()
        return await edge.submit(request, tenant=tenant)

    async def agenerate(
        self,
        q,
        k,
        v,
        mask: MaskInput = None,
        *,
        prompt_tokens: int = 1,
        priority: float = 1.0,
        tenant: Optional[str] = None,
        slo_latency_seconds: Optional[float] = None,
    ) -> GenerationResult:
        """``generate``'s async twin: same stream, same bits, via the edge."""
        edge = await self._ensure_edge()
        request = self._as_request(
            q,
            k,
            v,
            mask,
            prompt_tokens=prompt_tokens,
            priority=priority,
            tenant=tenant,
            slo_latency_seconds=slo_latency_seconds,
        )
        handle = await edge.submit(request)
        output = await handle.collect()
        return GenerationResult(
            request_id=handle.request_id,
            output=output,
            telemetry=self.scheduler.telemetry[handle.request_id],
        )

    # ------------------------------------------------------------------ #
    # Session-level entry points
    # ------------------------------------------------------------------ #
    def open_session(
        self,
        mask: MaskInput,
        horizon: int,
        *,
        retain_outputs: bool = False,
        reserve_tokens: Optional[int] = None,
    ) -> DecodeSession:
        """Open a decode session (reject-mode admission on the server's pool).

        The session's KV cache pages through the server's block pool and
        holds blocks for ``reserve_tokens`` tokens (default: one block) up
        front, or the open raises :exc:`~repro.serve.paging.PoolExhausted`.
        A server without a pool gives the session a pool of its own; see
        :meth:`AttentionServer._open_decode_session
        <repro.serve.scheduler.AttentionServer._open_decode_session>`.
        """
        require(
            self.server is not None,
            "session entry points address one server; a replicas>1 client "
            "has no single server (use the replica handles on client.router)",
        )
        return self.server._open_decode_session(
            mask,
            horizon,
            retain_outputs=retain_outputs,
            reserve_tokens=reserve_tokens,
        )

    def close_session(self, session: DecodeSession) -> None:
        """Finish a session and return its blocks to the pool."""
        require(
            self.server is not None,
            "session entry points address one server; a replicas>1 client "
            "has no single server (use the replica handles on client.router)",
        )
        self.server.close_decode_session(session)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the server's worker pool (the edge task dies with its loop)."""
        if self._router is not None:
            self._router.close()
        else:
            self.server.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["GenerationResult", "ServingClient"]
