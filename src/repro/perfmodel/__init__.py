"""Analytical GPU device, memory and runtime models.

This subpackage is the substitute for the paper's physical GPUs (A100, L40,
V100 — Table I).  It has two halves:

* :mod:`repro.perfmodel.memory` — exact byte accounting of every algorithm's
  resident tensors, from which the *theoretical maximum context length* of
  Fig. 4 and Table II is solved analytically (this part needs no hardware and
  reproduces the paper's numbers directly).
* :mod:`repro.perfmodel.runtime` — a roofline-style runtime estimator with
  per-algorithm efficiency constants calibrated against the runtimes the paper
  reports (Table III), plus the load-imbalance and COO-search penalties the
  paper describes qualitatively.  It reproduces the *shape* of Fig. 3, 5, 6
  and Table III at the paper's context lengths, which are far beyond what the
  CPU-measured benchmarks can reach.
* :mod:`repro.perfmodel.decode` — the incremental-decoding analogue:
  KV-cache byte accounting (linear in the decoded length) and a per-step
  runtime estimate over the new token's mask row, including the
  incremental-vs-full-recompute speedup the decode benchmark measures.
* :mod:`repro.perfmodel.router` — multi-replica placement economics:
  fingerprint-routing cost, rebalance makespan gain (priced by the same
  partitioner the router executes), and the replica throughput-scaling
  curve the router benchmark measures.
"""

from repro.perfmodel.devices import (
    A100_SXM4_80GB,
    DEVICES,
    L40_48GB,
    V100_SXM2_32GB,
    DeviceSpec,
    get_device,
)
from repro.perfmodel.memory import (
    ALGORITHMS_WITH_MEMORY_MODEL,
    AttentionMemoryModel,
    MemoryBreakdown,
    max_context_length,
)
from repro.perfmodel.runtime import RuntimeEstimate, RuntimeModel, combine_estimates
from repro.perfmodel.context_limits import (
    ContextLimitRow,
    context_limit_table,
    context_limit_sweep,
)
from repro.perfmodel.decode import (
    DecodeRuntimeModel,
    DecodeStepEstimate,
    PreemptionCostEstimate,
    SloEstimate,
    blocks_for_tokens,
    decode_step_flops,
    kv_block_bytes,
    kv_cache_bytes,
    max_cached_tokens,
    min_feasible_slo,
    paged_kv_cache_bytes,
    paged_sessions_supported,
    paging_fragmentation_overhead,
    preemption_cost,
)
from repro.perfmodel.router import (
    RebalanceEstimate,
    RoutingCostEstimate,
    balanced_makespan,
    fingerprint_seconds,
    rebalance_gain,
    router_throughput_scaling,
    routing_cost,
)

__all__ = [
    "A100_SXM4_80GB",
    "ALGORITHMS_WITH_MEMORY_MODEL",
    "AttentionMemoryModel",
    "ContextLimitRow",
    "DEVICES",
    "DecodeRuntimeModel",
    "DecodeStepEstimate",
    "DeviceSpec",
    "L40_48GB",
    "MemoryBreakdown",
    "PreemptionCostEstimate",
    "RebalanceEstimate",
    "RoutingCostEstimate",
    "RuntimeEstimate",
    "SloEstimate",
    "RuntimeModel",
    "V100_SXM2_32GB",
    "balanced_makespan",
    "blocks_for_tokens",
    "combine_estimates",
    "fingerprint_seconds",
    "context_limit_sweep",
    "context_limit_table",
    "decode_step_flops",
    "get_device",
    "kv_block_bytes",
    "kv_cache_bytes",
    "max_cached_tokens",
    "max_context_length",
    "min_feasible_slo",
    "paged_kv_cache_bytes",
    "paged_sessions_supported",
    "paging_fragmentation_overhead",
    "preemption_cost",
    "rebalance_gain",
    "router_throughput_scaling",
    "routing_cost",
]
