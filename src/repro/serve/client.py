"""``ServingClient`` — the one public façade over the serving stack.

Every way to get attention served goes through one object, built on a
:class:`~repro.serve.router.ReplicaRouter` at every replica count:

* :meth:`ServingClient.generate` — synchronous end-to-end: submit one
  :class:`~repro.serve.loop.LoopRequest` (or raw ``q/k/v``) and drive the
  router until it finishes.  Everything goes through the loops, so
  concurrent ``generate_many`` calls batch and preempt like real traffic.
* :meth:`ServingClient.agenerate` — the same contract ``async``, routed
  through a lazily-started :class:`~repro.serve.edge.AsyncServingEdge` on
  the current event loop (tenant limits and SLO scheduling included).  The
  edge drives one loop, so it serves a client of one replica.

A router of one replica is its loop (no fingerprints, no rebalancing, no
load gauges, and the loop ticks the clock), so
:attr:`ServingClient.scheduler` can be stepped directly with the same
streams, results and time.  Callers that step
:class:`~repro.serve.decode.DecodeSession`\\ s themselves open them on an
:class:`~repro.serve.scheduler.AttentionServer`
(:meth:`~repro.serve.scheduler.AttentionServer.open_session`).

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
)
from repro.serve.paging import DEFAULT_BLOCK_SIZE
from repro.serve.router import ReplicaRouter
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

    >>> client = ServingClient(key_dim=8, num_blocks=64)
    >>> result = client.generate(q, k, v, mask, prompt_tokens=16)

    Parameters
    ----------
    obs, clock, policy, policy_seed:
        Normalized observability / clock / scheduling-policy keywords
        (``policy`` accepts a registry name, or for one replica an
        instance), validated by :func:`~repro.serve.loop.resolve_serving_kwargs`.
    storage, key_dim, value_dim, num_blocks, block_size, batch_shape,
    pool_dtype:
        Block-pool geometry of each replica (``num_blocks`` blocks per
        replica) with the requested ``storage`` format.
    max_streams, prefill_chunk, max_iteration_tokens, preemption:
        Passed to each replica's
        :class:`~repro.serve.loop.ContinuousBatchingScheduler`.
    tenants, default_tenant, max_buffered_chunks:
        Tenant isolation config for the async edge ``agenerate`` uses.
    replicas, router_policy:
        The :class:`~repro.serve.router.ReplicaRouter` every call goes
        through: ``replicas`` loops, placed by prompt-prefix affinity under
        ``router_policy`` (outputs stay bit-identical to ``replicas=1``).
    """

    def __init__(
        self,
        *,
        key_dim: int,
        obs: Optional[Observability] = None,
        clock=None,
        policy="fcfs",
        policy_seed: int = 0,
        storage: Optional[str] = None,
        value_dim: Optional[int] = None,
        num_blocks: int = 64,
        block_size: int = DEFAULT_BLOCK_SIZE,
        batch_shape: Tuple[int, ...] = (),
        pool_dtype=np.float32,
        max_streams: int = 8,
        prefill_chunk: int = 32,
        max_iteration_tokens: Optional[int] = None,
        preemption: str = "swap",
        tenants: Optional[Dict[str, TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
        max_buffered_chunks: int = 8,
        replicas: int = 1,
        router_policy: str = "affinity",
    ) -> None:
        self.router = ReplicaRouter(
            replicas,
            key_dim=key_dim,
            value_dim=value_dim,
            num_blocks=num_blocks,
            block_size=block_size,
            batch_shape=batch_shape,
            pool_dtype=pool_dtype,
            storage=storage,
            policy=policy,
            policy_seed=policy_seed,
            router_policy=router_policy,
            clock=clock,
            obs=obs,
            max_streams=max_streams,
            prefill_chunk=prefill_chunk,
            max_iteration_tokens=max_iteration_tokens,
            preemption=preemption,
        )
        self._tenants = tenants
        self._default_tenant = default_tenant
        self._max_buffered_chunks = max_buffered_chunks
        self._edge: Optional[AsyncServingEdge] = None
        self._edge_loop = None

    @property
    def scheduler(self) -> ContinuousBatchingScheduler:
        """The one loop of a client of one replica (refused above one)."""
        require(
            self.router.num_replicas == 1,
            "a client of several replicas has no one scheduler; use "
            "generate/generate_many or client.router",
        )
        return self.router.replicas[0].scheduler

    @property
    def clock(self):
        return self.router.clock

    @property
    def obs(self) -> Observability:
        return self.router.obs

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
        """Place a prepared request through the router; returns its id."""
        return self.router.submit(request)

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
        """Serve one stream end to end through the router, synchronously."""
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
        drain(self.router, until=(rid,), max_iterations=max_iterations)
        return self._result(rid)

    def generate_many(
        self, requests: Sequence[LoopRequest], *, max_iterations: Optional[int] = None
    ) -> List[GenerationResult]:
        """Submit a batch and drive the router until all of them finish."""
        rids = [self.submit(request) for request in requests]
        drain(self.router, until=rids, max_iterations=max_iterations)
        return [self._result(rid) for rid in rids]

    def _result(self, rid: int) -> GenerationResult:
        return GenerationResult(
            request_id=rid,
            output=self.router.results.pop(rid),
            telemetry=self.router.telemetry[rid],
        )

    # ------------------------------------------------------------------ #
    # Async generation (routed through the edge)
    # ------------------------------------------------------------------ #
    async def _ensure_edge(self) -> AsyncServingEdge:
        loop = asyncio.get_running_loop()
        if self._edge is None or self._edge_loop is not loop or not self._edge.running:
            self._edge = AsyncServingEdge(
                self.scheduler,
                tenants=self._tenants,
                default_tenant=self._default_tenant,
                max_buffered_chunks=self._max_buffered_chunks,
                obs=self.obs,
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
            telemetry=self.router.telemetry[handle.request_id],
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the replicas' servers (the edge task dies with its loop)."""
        self.router.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["GenerationResult", "ServingClient"]
