"""repro — graph-processing sparse attention.

Reproduction of "Longer Attention Span: Increasing Transformer Context Length
with Sparse Graph Processing Techniques" (IPDPS 2025): work-optimal graph
kernels for masked attention (COO, CSR, Local, Dilated-1D, Dilated-2D,
Global), dense SDP and FlashAttention baselines, the attention-mask zoo
(Longformer / BigBird / LongNet presets), graph-view analysis and
partitioning, analytical GPU memory/runtime models reproducing the paper's
context-length limits and runtime trade-offs, a sequence-parallel
distributed extension, an attention serving subsystem, and incremental
autoregressive decoding with KV-cache sessions.

Quick start::

    import numpy as np
    from repro import random_qkv, local_attention, sdp_attention
    from repro.masks import LocalMask

    q, k, v = random_qkv(4096, 64, seed=0)
    sparse = local_attention(q, k, v, window=64)          # work-optimal kernel
    dense = sdp_attention(q, k, v, LocalMask(window=64))  # dense baseline
    np.testing.assert_allclose(sparse.output, dense.output, atol=1e-6)
"""

from repro.core import (
    AttentionLayer,
    AttentionResult,
    GraphAttentionEngine,
    OpCounts,
    bigbird_attention,
    coo_attention,
    csr_attention,
    dilated1d_attention,
    dilated2d_attention,
    flash_attention,
    global_attention,
    local_attention,
    longformer_attention,
    merge_results,
    multi_head_attention,
    reference_attention,
    sdp_attention,
)
from repro.graph import AttentionGraph
from repro.serve import (
    AttentionRequest,
    AttentionResponse,
    AttentionServer,
    BlockPool,
    DecodeSession,
    ExecutionPlan,
    PagedKVCache,
    PlanCache,
    PoolExhausted,
    compile_plan,
    decode_reference_mask,
    plan_cache_key,
)
from repro.sparse import COOMatrix, CSRMatrix
from repro.utils import random_qkv

__version__ = "1.1.0"

__all__ = [
    "AttentionGraph",
    "AttentionLayer",
    "AttentionRequest",
    "AttentionResponse",
    "AttentionResult",
    "AttentionServer",
    "BlockPool",
    "COOMatrix",
    "CSRMatrix",
    "DecodeSession",
    "ExecutionPlan",
    "GraphAttentionEngine",
    "OpCounts",
    "PagedKVCache",
    "PlanCache",
    "PoolExhausted",
    "__version__",
    "bigbird_attention",
    "compile_plan",
    "coo_attention",
    "csr_attention",
    "decode_reference_mask",
    "dilated1d_attention",
    "dilated2d_attention",
    "flash_attention",
    "global_attention",
    "local_attention",
    "longformer_attention",
    "merge_results",
    "multi_head_attention",
    "plan_cache_key",
    "random_qkv",
    "reference_attention",
    "sdp_attention",
]
