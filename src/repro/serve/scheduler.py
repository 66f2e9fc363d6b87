"""Batched request scheduler: the attention serving front-end.

:class:`AttentionServer` accepts :class:`~repro.serve.session.AttentionRequest`
objects, groups compatible requests into batches keyed by their canonical plan
key, compiles (or fetches from the :class:`~repro.serve.cache.PlanCache`) one
:class:`~repro.serve.plan.ExecutionPlan` per batch, and executes every request
against the shared plan — so the mask materialisation and dispatch work is
paid once per mask shape per cache lifetime instead of once per request.

Within a plan batch, requests whose tensors share one shape and dtype are
**coalesced**: their Q/K/V are stacked along a new leading axis and the plan
executes the whole stack in a single vectorized kernel pass (the kernels
treat leading axes as first-class batch dimensions), after which the stacked
result is sliced back into per-request responses.  Requests with ragged
shapes simply form singleton groups and take the same code path one slice at
a time.  Groups execute one after another on the calling thread.

Autoregressive decoding streams through the same front-end: the
continuous-batching loop, and callers that step sessions themselves, open
:class:`~repro.serve.decode.DecodeSession` objects
(:meth:`AttentionServer.open_session`) whose decode-mode
plans share the server's plan cache, and :meth:`AttentionServer.decode_steps`
runs the steps of concurrent sessions — whatever their masks, horizons and
positions — as one ragged kernel pass (:meth:`~AttentionServer.prefill_chunks`
likewise).  Every session pages its KV cache through a block pool: the
server's shared pool when it has one, else a pool of the session's own.  An
open on the shared pool is one capacity grant, admitted or rejected at once;
the loop's policy-ranked waiting queue is the only place a request waits for
capacity.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import MaskInput
from repro.core.result import AttentionResult
from repro.masks.base import as_mask_spec
from repro.obs.recorder import Observability, default_observability
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.perfmodel.decode import blocks_for_tokens
from repro.perfmodel.devices import DeviceSpec
from repro.serve.cache import PlanCache
from repro.serve.decode import DecodeSession, stacked_decode_step, stacked_prefill
from repro.serve.paging import (
    DEFAULT_BLOCK_SIZE,
    BlockPool,
    PagedKVCache,
    PoolExhausted,
)
from repro.serve.plan import ExecutionPlan, compile_plan, plan_cache_key
from repro.serve.session import (
    AttentionRequest,
    AttentionResponse,
    ServerStats,
    ServerStatsSnapshot,
)
from repro.utils.validation import require


@dataclass
class RequestBatch:
    """Requests of one :meth:`AttentionServer.serve` call that share a plan."""

    plan: ExecutionPlan
    cache_hit: bool
    requests: List[AttentionRequest] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass
class ExecutionGroup:
    """Same-plan requests whose tensors stack into one kernel invocation.

    ``positions`` are the requests' indices within the serve call, used to
    restore response ordering after the stacked execution is sliced.
    """

    batch: RequestBatch
    positions: List[int] = field(default_factory=list)
    requests: List[AttentionRequest] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.requests)


class AttentionServer:
    """Serves attention requests through cached execution plans.

    One-shot requests go through :meth:`serve` (or :meth:`handle`), which
    executes exactly the requests it is given.  The plan cache takes its own
    lock, so threads opening sessions over one mask compile its plan once;
    the capacity grant behind a session open on the shared block pool is
    all-or-nothing under the pool's own lock, so concurrent opens can be
    refused but never over-commit the pool.

    Parameters
    ----------
    executor, scale:
        Kernel execution knobs, identical to
        :class:`~repro.core.engine.GraphAttentionEngine`.
    cache_capacity:
        Maximum number of plans the LRU cache retains.
    device:
        Optional :class:`~repro.perfmodel.devices.DeviceSpec`; when given,
        every compiled plan carries a predicted runtime for that device.
    head_dim:
        Head dimension assumed by runtime prediction (defaults to the plan
        compiler's constant).
    obs:
        An :class:`~repro.obs.recorder.Observability` recorder shared with
        the plan cache, any pool created by :meth:`create_block_pool`, and
        schedulers built on this server; defaults to
        :func:`~repro.obs.recorder.default_observability` (the no-op
        recorder unless ``REPRO_OBS=1`` is set in the environment).
    """

    def __init__(
        self,
        *,
        executor: str = "vectorized",
        scale: Optional[float] = None,
        cache_capacity: int = 64,
        device: Optional[DeviceSpec] = None,
        head_dim: Optional[int] = None,
        block_pool: Optional[BlockPool] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.executor = executor
        self.scale = scale
        self.device = device
        self.head_dim = head_dim
        # fall back to the process-wide recorder so REPRO_OBS=1 instruments
        # any serving stack without code changes (NULL_OBS when unset)
        self.obs = obs if obs is not None else default_observability()
        self.cache = PlanCache(cache_capacity, obs=self.obs)
        self.block_pool = block_pool
        self.stats = ServerStats(
            cache=self.cache.stats,
            pool=block_pool.stats if block_pool is not None else None,
        )
        self._ids = itertools.count()
        #: ``server_kernel_seconds`` children by (plan key, phase), each
        #: resolved once; streaming passes record through them
        self._kernel_seconds: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def key_for(self, mask: MaskInput, length: int, *, mode: str = "full") -> str:
        """Canonical plan key a request with this mask/length resolves to."""
        return plan_cache_key(
            mask,
            length,
            executor=self.executor,
            scale=self.scale,
            device=self.device,
            head_dim=self.head_dim,
            mode=mode,
        )

    def plan_for(self, mask: MaskInput, length: int, *, mode: str = "full") -> Tuple[ExecutionPlan, bool]:
        """Fetch or compile the plan for one mask shape; returns ``(plan, was_hit)``.

        Useful for warming the cache ahead of a traffic burst.
        """
        key = self.key_for(mask, length, mode=mode)
        return self._plan_for_key(key, mask, length, mode=mode)

    def _plan_for_key(
        self, key: str, mask: MaskInput, length: int, *, mode: str = "full"
    ) -> Tuple[ExecutionPlan, bool]:
        def _compile() -> ExecutionPlan:
            with self.stats.lock:
                self.stats.plans_compiled += 1
            return compile_plan(
                mask,
                length,
                executor=self.executor,
                scale=self.scale,
                device=self.device,
                head_dim=self.head_dim,
                mode=mode,
                key=key,  # already derived for the cache lookup; don't re-hash
            )

        return self.cache.get_or_compile(key, _compile)

    # ------------------------------------------------------------------ #
    # One-shot requests
    # ------------------------------------------------------------------ #
    def next_request_id(self) -> int:
        """Allocate a request id unique across everything this server serves."""
        return next(self._ids)

    def serve(self, requests: Sequence[AttentionRequest]) -> List[AttentionResponse]:
        """Execute exactly ``requests``; responses follow their order."""
        requests = list(requests)
        for request in requests:
            if request.request_id is None:
                request.request_id = self.next_request_id()
        return self._process(requests)

    def handle(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        mask: MaskInput = None,
    ) -> AttentionResponse:
        """Serve a single ad-hoc request."""
        return self.serve([AttentionRequest(q=q, k=k, v=v, mask=mask)])[0]

    # ------------------------------------------------------------------ #
    # Streaming decode
    # ------------------------------------------------------------------ #
    def create_block_pool(
        self,
        *,
        key_dim: int,
        value_dim: Optional[int] = None,
        batch_shape: Tuple[int, ...] = (),
        dtype=np.float32,
        storage: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        num_blocks: Optional[int] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        name: Optional[str] = None,
    ) -> BlockPool:
        """Install the server's shared KV block pool and return it.

        Size it either by ``memory_budget_bytes`` (the global KV memory the
        server may spend — blocks are carved until the budget is full) or by
        an explicit ``num_blocks``.  Every session the server opens
        afterwards draws from this pool and shares identical prefixes.
        ``storage`` selects the arena format (``"fp32"``/``"fp16"``/
        ``"int8"``); a byte budget then buys proportionally more blocks.
        """
        require(
            (memory_budget_bytes is None) != (num_blocks is None),
            "size the pool with exactly one of memory_budget_bytes / num_blocks",
        )
        if memory_budget_bytes is not None:
            pool = BlockPool.from_budget(
                memory_budget_bytes,
                block_size,
                key_dim=key_dim,
                value_dim=value_dim,
                batch_shape=batch_shape,
                dtype=dtype,
                storage=storage,
                obs=self.obs,
                name=name,
            )
        else:
            pool = BlockPool(
                num_blocks,
                block_size,
                key_dim=key_dim,
                value_dim=value_dim,
                batch_shape=batch_shape,
                dtype=dtype,
                storage=storage,
                obs=self.obs,
                name=name,
            )
        self.block_pool = pool
        self.stats.pool = pool.stats
        return pool

    def stats_snapshot(self) -> ServerStatsSnapshot:
        """Tear-free stats copy: server counters under the stats lock, the
        pool's gauges under the pool's own lock."""
        snapshot = self.stats.snapshot()
        if self.block_pool is not None:
            snapshot = dataclasses.replace(
                snapshot, pool=self.block_pool.stats_snapshot()
            )
        return snapshot

    def _grant_paged(self, horizon: int, reserve_tokens: Optional[int]) -> PagedKVCache:
        """The admission capacity grant: a cache over the pool, blocks prereserved.

        The cache prereserves ``ceil(reserve_tokens / block_size)`` blocks up
        front, all-or-nothing under the pool's own lock, so admission is a
        real capacity grant — a racing stream cannot take the blocks between
        admission and prefill.  A refusal is counted once and re-raised as
        :exc:`~repro.serve.paging.PoolExhausted`.  Callers compile the plan
        first, so an invalid mask fails with no blocks held (repeated bad
        opens would otherwise leak the pool dry).
        """
        pool = self.block_pool
        tokens = pool.block_size if reserve_tokens is None else int(reserve_tokens)
        require(tokens >= 0, "reserve_tokens must be non-negative")
        blocks = blocks_for_tokens(tokens, pool.block_size)
        # a grant no pool state could satisfy fails as a bad argument: as
        # PoolExhausted, a caller retrying on exhaustion would wait forever
        require(
            blocks <= pool.num_blocks,
            f"reserve_tokens={tokens} needs {blocks} blocks but the pool "
            f"holds only {pool.num_blocks}",
        )
        cache = PagedKVCache(pool, max_length=horizon)
        try:
            cache.prereserve(blocks)
        except PoolExhausted:
            with self.stats.lock:
                self.stats.admission_rejected += 1
            if self.obs.enabled:
                self.obs.server_rejections.inc()
            raise
        return cache

    def open_session(
        self,
        mask: MaskInput,
        horizon: int,
        *,
        retain_outputs: bool = False,
        reserve_tokens: Optional[int] = None,
    ) -> DecodeSession:
        """Open an autoregressive decoding stream against this server.

        The decode-mode plan (per-row stencil program) is fetched from — or
        compiled into — the shared :class:`~repro.serve.cache.PlanCache`, so
        concurrent sessions over one mask shape pay compilation once and can
        coalesce their steps in :meth:`decode_steps`.

        On a server with a block pool (:meth:`create_block_pool`) the
        session pages through it — identical prompts map the same physical
        blocks.  Admission is then a real capacity grant
        (:meth:`_grant_paged`): blocks for ``reserve_tokens`` tokens
        (default: one block) are held by the session up front, or the
        session is *rejected* with :exc:`~repro.serve.paging.PoolExhausted`.
        Waiting for capacity is the continuous-batching loop's job: its
        policy-ranked queue retries a rejected stream on a later iteration.
        Without a server pool the session pages through a pool of its own,
        sized to its horizon (:class:`~repro.serve.decode.DecodeSession`),
        and ``reserve_tokens`` is unused.
        """
        key = self.key_for(mask, horizon, mode="decode")
        plan, hit = self._plan_for_key(key, mask, horizon, mode="decode")
        cache = None if self.block_pool is None else self._grant_paged(horizon, reserve_tokens)
        try:
            session = DecodeSession(plan, retain_outputs=retain_outputs, session_id=self.next_request_id(), cache=cache)
        except Exception:
            if cache is not None:
                cache.release()
            raise
        session.plan_cache_hit = hit
        with self.stats.lock:
            self.stats.decode_sessions += 1
        return session

    def close_decode_session(self, session: DecodeSession) -> None:
        """Finish a stream and release its blocks.

        The session's prefix-registered blocks park in the pool's evictable
        LRU (the prompt stays warm for the next identical prompt).
        """
        already_closed = session.closed
        session.close()
        if not already_closed:
            with self.stats.lock:
                self.stats.sessions_closed += 1

    def decode_step(
        self, session: DecodeSession, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> AttentionResponse:
        """Serve one decode step for one session."""
        return self.decode_steps([(session, q, k, v)])[0]

    def prefill_chunks(
        self,
        chunks: Sequence[Tuple[DecodeSession, np.ndarray, np.ndarray, np.ndarray]],
    ) -> List[AttentionResponse]:
        """Serve one prompt chunk per ``(session, q, k, v)`` entry.

        The chunked-prefill twin of :meth:`decode_steps`: every chunk, whatever
        its session's mask, horizon, position and chunk length, runs in one
        ragged pass (:func:`~repro.serve.decode.stacked_prefill`) — one
        fused kernel call per arena.  Responses follow the input order; a
        session may appear at most once per call.
        """
        chunks = list(chunks)
        if not chunks:
            return []
        started = time.perf_counter()
        results = stacked_prefill(*zip(*chunks))
        elapsed = time.perf_counter() - started
        responses = self._pass_responses(chunks, results, elapsed, "prefill")
        tokens = sum(stop - start for start, stop in (r.meta["positions"] for r in results))
        with self.stats.lock:
            self.stats.prefill_chunks += len(chunks)
            if len(chunks) > 1:
                self.stats.prefill_stacked_executions += 1
                self.stats.prefill_coalesced_chunks += len(chunks)
            self.stats.prefill_tokens += tokens
            self.stats.prefill_wall_seconds += elapsed
        if self.obs.enabled:
            self.obs.server_requests.labels(phase="prefill").inc(len(chunks))
        return responses

    def decode_steps(
        self,
        steps: Sequence[Tuple[DecodeSession, np.ndarray, np.ndarray, np.ndarray]],
    ) -> List[AttentionResponse]:
        """Serve one decode step per ``(session, q, k, v)`` entry.

        Continuous batching: every step, whatever its session's mask, horizon
        and position, runs in one ragged pass
        (:func:`~repro.serve.decode.stacked_decode_step`) — one fused kernel
        call per arena.  Responses follow the input order.  A session may
        appear at most once per call — its position advances with every
        step, so two steps for one stream are inherently sequential.
        """
        steps = list(steps)
        if not steps:
            return []
        started = time.perf_counter()
        results = stacked_decode_step(*zip(*steps))
        elapsed = time.perf_counter() - started
        responses = self._pass_responses(steps, results, elapsed, "decode")
        with self.stats.lock:
            self.stats.decode_steps += len(steps)
            if len(steps) > 1:
                self.stats.decode_stacked_executions += 1
                self.stats.decode_coalesced_steps += len(steps)
            self.stats.decode_wall_seconds += elapsed
        if self.obs.enabled:
            self.obs.server_requests.labels(phase="decode").inc(len(steps))
        return responses

    def _pass_responses(
        self,
        work: Sequence[Tuple[DecodeSession, np.ndarray, np.ndarray, np.ndarray]],
        results: Sequence[AttentionResult],
        elapsed: float,
        phase: str,
    ) -> List[AttentionResponse]:
        """One response per stream of a pass, each charged an equal share of
        its wall time (also one ``server_kernel_seconds`` sample per stream)."""
        latency = elapsed / len(work)
        if self.obs.enabled:
            self._observe_kernel_seconds([entry[0] for entry in work], latency, phase)
        return [
            AttentionResponse(
                request_id=self.next_request_id(),
                result=result,
                plan_key=session.plan.key,
                cache_hit=session.plan_cache_hit,
                latency_s=latency,
            )
            for (session, *_), result in zip(work, results)
        ]

    def _observe_kernel_seconds(self, sessions: Sequence[DecodeSession], latency: float, phase: str) -> None:
        children = self._kernel_seconds
        for session in sessions:
            key = (session.plan.key or "adhoc", phase)
            kernel = children.get(key)
            if kernel is None:
                kernel = children[key] = self.obs.kernel_seconds.labels(plan=key[0], phase=phase)
            kernel.observe(latency)

    def _process(self, requests: List[AttentionRequest]) -> List[AttentionResponse]:
        if not requests:
            return []
        started = time.perf_counter()

        batches: "Dict[str, RequestBatch]" = {}
        groups: "Dict[Tuple, ExecutionGroup]" = {}
        # key derivation coerces and content-hashes materialised masks, so
        # requests sharing one mask object (the common repeated-traffic shape)
        # do that once, and the coerced spec is reused for compilation too
        key_memo: Dict[Tuple[int, int], Tuple[str, MaskInput]] = {}
        for index, request in enumerate(requests):
            memo = (id(request.mask), request.length)
            entry = key_memo.get(memo)
            if entry is None:
                mask = request.mask
                if isinstance(mask, (np.ndarray, COOMatrix, CSRMatrix)):
                    mask = as_mask_spec(mask)
                key = self.key_for(mask, request.length)
                entry = key_memo[memo] = (key, mask)
            key, mask = entry
            batch = batches.get(key)
            if batch is None:
                plan, hit = self._plan_for_key(key, mask, request.length)
                batch = batches[key] = RequestBatch(plan=plan, cache_hit=hit)
            batch.requests.append(request)
            # requests coalesce only when every tensor matches in shape and
            # dtype — ragged requests form singleton groups
            group_key = (
                key,
                request.q.shape,
                request.v.shape,
                request.q.dtype.str,
                request.k.dtype.str,
                request.v.dtype.str,
            )
            group = groups.get(group_key)
            if group is None:
                group = groups[group_key] = ExecutionGroup(batch=batch)
            group.positions.append(index)
            group.requests.append(request)

        ordered = [pair for group in groups.values() for pair in self._execute_group(group)]
        responses = [response for _, response in sorted(ordered, key=lambda pair: pair[0])]

        with self.stats.lock:
            for group in groups.values():
                if group.size > 1:
                    self.stats.stacked_executions += 1
                    self.stats.coalesced_requests += group.size
            self.stats.requests += len(requests)
            self.stats.batches += len(batches)
            self.stats.flushes += 1
            self.stats.wall_seconds += time.perf_counter() - started
            self.stats.kernel_seconds += sum(r.latency_s for r in responses)
        if self.obs.enabled:
            self.obs.server_requests.labels(phase="oneshot").inc(len(requests))
        return responses

    # ------------------------------------------------------------------ #
    def _execute_group(self, group: ExecutionGroup) -> List[Tuple[int, AttentionResponse]]:
        if group.size == 1:
            return [(group.positions[0], self._execute_one(group.requests[0], group.batch))]
        started = time.perf_counter()
        stacked_q = np.stack([request.q for request in group.requests])
        stacked_k = np.stack([request.k for request in group.requests])
        stacked_v = np.stack([request.v for request in group.requests])
        result = group.batch.plan.execute(stacked_q, stacked_k, stacked_v)
        latency = time.perf_counter() - started
        per_request = latency / group.size
        if self.obs.enabled:
            plan_key = group.batch.plan.key or "adhoc"
            kernel = self.obs.kernel_seconds.labels(plan=plan_key, phase="oneshot")
            for _ in range(group.size):
                kernel.observe(per_request)
        responses: List[Tuple[int, AttentionResponse]] = []
        for offset, (position, request) in enumerate(zip(group.positions, group.requests)):
            sliced = result.slice_batch(offset)
            sliced.meta["coalesced"] = group.size
            responses.append(
                (
                    position,
                    AttentionResponse(
                        request_id=request.request_id,
                        result=sliced,
                        plan_key=group.batch.plan.key,
                        cache_hit=group.batch.cache_hit,
                        latency_s=per_request,
                    ),
                )
            )
        return responses

    def close(self) -> None:
        """No-op: the server holds no threads or other resources to release.

        Kept so callers and the context manager end every serving object the
        same way.
        """

    def __enter__(self) -> "AttentionServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _execute_one(
        self, request: AttentionRequest, batch: RequestBatch
    ) -> AttentionResponse:
        started = time.perf_counter()
        result = batch.plan.execute(request.q, request.k, request.v)
        latency = time.perf_counter() - started
        if self.obs.enabled:
            self.obs.kernel_seconds.labels(
                plan=batch.plan.key or "adhoc", phase="oneshot"
            ).observe(latency)
        return AttentionResponse(
            request_id=request.request_id,
            result=result,
            plan_key=batch.plan.key,
            cache_hit=batch.cache_hit,
            latency_s=latency,
        )
