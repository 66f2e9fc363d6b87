"""Analytical GPU device, memory and runtime models.

This subpackage is the substitute for the paper's physical GPUs (A100, L40,
V100 — Table I).  It has three parts:

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
* :mod:`repro.perfmodel.decode` — the incremental-decoding analogue of the
  memory model: exact KV-cache byte accounting (linear in the decoded
  length), paged at block granularity and priced at a storage format.
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
    blocks_for_tokens,
    kv_block_bytes,
    kv_cache_bytes,
    max_cached_tokens,
    paged_kv_cache_bytes,
    paged_sessions_supported,
    paging_fragmentation_overhead,
)

__all__ = [
    "A100_SXM4_80GB",
    "ALGORITHMS_WITH_MEMORY_MODEL",
    "AttentionMemoryModel",
    "ContextLimitRow",
    "DEVICES",
    "DeviceSpec",
    "L40_48GB",
    "MemoryBreakdown",
    "RuntimeEstimate",
    "RuntimeModel",
    "V100_SXM2_32GB",
    "blocks_for_tokens",
    "combine_estimates",
    "context_limit_sweep",
    "context_limit_table",
    "get_device",
    "kv_block_bytes",
    "kv_cache_bytes",
    "max_cached_tokens",
    "max_context_length",
    "paged_kv_cache_bytes",
    "paged_sessions_supported",
    "paging_fragmentation_overhead",
]
