"""Attention serving subsystem: plan compiler, plan cache, request scheduler.

Three layers turn the paper's kernels into a serving stack:

* :mod:`repro.serve.plan` — compile a mask + context length (+ optional
  device) into an immutable :class:`ExecutionPlan`: the chosen kernel
  sequence, precomputed CSR remainders for composed unions, a predicted
  runtime from :mod:`repro.perfmodel`, and a canonical cache key.
* :mod:`repro.serve.cache` — an LRU :class:`PlanCache` with hit/miss/eviction
  statistics so repeated mask shapes skip compilation entirely.
* :mod:`repro.serve.scheduler` / :mod:`repro.serve.session` — an
  :class:`AttentionServer` that batches :class:`AttentionRequest`\\ s by plan
  key, executes each plan's same-shape requests as one stacked kernel pass
  and returns per-request latencies plus aggregate throughput stats.
* :mod:`repro.serve.decode` — incremental autoregressive decoding:
  :class:`DecodeSession` KV-cache streams whose per-token steps cost O(edges
  of the new token's mask row), with the steps of concurrent sessions —
  whatever their masks, horizons and positions — run as one ragged kernel
  pass (continuous batching).
* :mod:`repro.serve.paging` — paged KV memory, the one KV cache every
  session holds: a refcounted :class:`BlockPool` of fixed-size K/V blocks
  shared by a server's sessions, :class:`PagedKVCache` block tables with chained-hash prefix sharing and
  copy-on-write divergence, LRU eviction of finished sessions' blocks,
  all-or-nothing admission grants on the server, and a host-side
  :class:`SwapStore` parking preempted sessions' serialized caches.
* :mod:`repro.serve.quant` — quantized block storage: pools accept a
  ``storage="fp32"|"fp16"|"int8"`` axis (int8 rows carry per-row affine
  scale/zero-point parameters) with explicit, property-tested error bounds
  per storage dtype; sharing, copy-on-write and swap round-trips operate on
  the encoded payload without ever inflating it to fp32.
* :mod:`repro.serve.loop` — iteration-level continuous batching: a
  :class:`ContinuousBatchingScheduler` that owns the request lifecycle
  (admission, chunked-prefill/decode batch formation, preemption by
  swap-out or recompute, completion) under pluggable scheduling policies
  (FCFS / priority / weighted-fair sampling / least-slack deadline) and an
  injected clock, so the whole loop is testable on virtual time.
* :mod:`repro.serve.client` / :mod:`repro.serve.edge` — the public serving
  surface: :class:`ServingClient` consolidates every way to get served
  (``generate`` sync, ``agenerate`` async, session-level escape hatches),
  and :class:`AsyncServingEdge` is the asyncio front door — streaming
  token responses over per-stream queues, consumer backpressure, per-tenant
  rate/stream/block quotas, SLO-aware slack scheduling, graceful drain.
* :mod:`repro.serve.router` — multi-replica serving: a
  :class:`ReplicaRouter` fans streams out to N scheduler replicas by
  prompt-prefix fingerprint affinity (:func:`prefix_fingerprints`), falls
  back to load-based placement, rebalances waiting streams along
  :func:`~repro.distributed.balanced_worker_bins` under skew, and shards
  oversized requests across replicas via
  :func:`~repro.distributed.kv_parallel_attention` — routed outputs stay
  bit-identical to a single-replica run (``ServingClient(replicas=N)``).

Quick start::

    from repro.serve import ServingClient
    from repro.masks import longformer_mask

    client = ServingClient(key_dim=8, num_blocks=64, policy="slack")
    mask = longformer_mask(reach=16, global_tokens=(0,))
    result = client.generate(q, k, v, mask, prompt_tokens=16,
                             tenant="acme", slo_latency_seconds=2.0)
    print(result.output.shape, result.telemetry.slo_attained)
"""

from repro.serve.cache import CacheStats, PlanCache
from repro.serve.client import GenerationResult, ServingClient
from repro.serve.decode import (
    DecodeSession,
    decode_reference_mask,
    stacked_decode_step,
    stacked_prefill,
)
from repro.serve.edge import (
    AsyncServingEdge,
    EdgeClosed,
    EdgeStats,
    StreamCancelled,
    TenantConfig,
    TenantThrottled,
    TokenStream,
)
from repro.serve.loop import (
    ContinuousBatchingScheduler,
    FCFSPolicy,
    InfeasibleRequest,
    IterationReport,
    LoopRequest,
    LoopStats,
    LoopStatsSnapshot,
    PriorityPolicy,
    RequestTelemetry,
    SchedulingPolicy,
    SlackPolicy,
    VirtualClock,
    WallClock,
    WeightedFairPolicy,
    drain,
    resolve_serving_kwargs,
    scheduling_policy,
)
from repro.serve.paging import (
    DEFAULT_BLOCK_SIZE,
    BlockPool,
    BlockPoolStats,
    PagedKVCache,
    PoolExhausted,
    SwapHandle,
    SwapStore,
    SwapStoreStats,
    prefix_fingerprints,
)
from repro.serve.router import (
    DEFAULT_AFFINITY_CAPACITY,
    ROUTER_POLICIES,
    RebalanceRecord,
    ReplicaHandle,
    ReplicaRouter,
    RouterReport,
    RouterStats,
    aggregate_loop_stats,
)
from repro.serve.quant import (
    STORAGE_DTYPES,
    EncodedChunk,
    attention_tolerance,
    resolve_storage,
    roundtrip_bound,
)
from repro.serve.plan import (
    DEFAULT_HEAD_DIM,
    ExecutionPlan,
    PlanStep,
    compile_plan,
    mask_key,
    plan_cache_key,
)
from repro.serve.scheduler import AttentionServer, RequestBatch
from repro.serve.session import (
    AttentionRequest,
    AttentionResponse,
    ServerStats,
    ServerStatsSnapshot,
)

__all__ = [
    "AsyncServingEdge",
    "AttentionRequest",
    "AttentionResponse",
    "AttentionServer",
    "BlockPool",
    "BlockPoolStats",
    "CacheStats",
    "ContinuousBatchingScheduler",
    "DEFAULT_AFFINITY_CAPACITY",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_HEAD_DIM",
    "DecodeSession",
    "EdgeClosed",
    "EdgeStats",
    "EncodedChunk",
    "ExecutionPlan",
    "FCFSPolicy",
    "GenerationResult",
    "InfeasibleRequest",
    "IterationReport",
    "LoopRequest",
    "LoopStats",
    "LoopStatsSnapshot",
    "PagedKVCache",
    "PlanCache",
    "PlanStep",
    "PoolExhausted",
    "PriorityPolicy",
    "ROUTER_POLICIES",
    "RebalanceRecord",
    "ReplicaHandle",
    "ReplicaRouter",
    "RequestBatch",
    "RequestTelemetry",
    "RouterReport",
    "RouterStats",
    "SchedulingPolicy",
    "STORAGE_DTYPES",
    "ServerStats",
    "ServerStatsSnapshot",
    "ServingClient",
    "SlackPolicy",
    "StreamCancelled",
    "SwapHandle",
    "SwapStore",
    "SwapStoreStats",
    "TenantConfig",
    "TenantThrottled",
    "TokenStream",
    "VirtualClock",
    "WallClock",
    "WeightedFairPolicy",
    "aggregate_loop_stats",
    "attention_tolerance",
    "compile_plan",
    "decode_reference_mask",
    "drain",
    "mask_key",
    "plan_cache_key",
    "prefix_fingerprints",
    "resolve_serving_kwargs",
    "resolve_storage",
    "scheduling_policy",
    "roundtrip_bound",
    "stacked_decode_step",
    "stacked_prefill",
]
