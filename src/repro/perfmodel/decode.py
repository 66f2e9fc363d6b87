"""Decode-step runtime and KV-cache memory model.

One-shot serving is modelled by :mod:`repro.perfmodel.runtime` (all mask
edges per call) and :mod:`repro.perfmodel.memory` (resident tensors of one
full invocation).  Autoregressive decoding has a different cost structure:

* **memory** — the dominant resident tensor is the KV cache, which grows
  linearly with the decoded length: ``batch · heads · L · (d_k + d_v)``
  elements (:func:`kv_cache_bytes`).  Solving the capacity inequality for
  ``L`` gives the decode analogue of Table II's context limits
  (:func:`max_cached_tokens`).
* **runtime** — a step touches only the new token's mask row: ``2 d`` FLOPs
  per dot product plus ``2 d`` per value accumulation over the row's edges
  (:func:`decode_step_flops`), and streams the gathered K/V rows once.  A
  single query row cannot saturate a device, so the compute term is charged
  at a calibrated fraction of the graph kernels' sustained throughput and
  the kernel-launch overhead dominates small rows — which is exactly why the
  serving layer coalesces concurrent sessions' steps into one stacked pass.

:meth:`DecodeRuntimeModel.speedup_vs_recompute` compares an incremental step
against recomputing the whole prefix through the CSR kernel (what a stack
without a KV cache pays per token); the margin widens linearly with the
prefix's edge count, the effect ``tests/test_serve_decode.py`` counts in
dot products.

**Preemption** adds a third cost axis: a serving loop that must evict a live
stream under memory pressure either *swaps* its KV cache to host memory
(paying the copy out and back in) or *drops* it and recomputes the prefix
from the prompt on resume (paying the causal edges again).
:func:`preemption_cost` prices both and names the cheaper one — the policy
input the continuous-batching scheduler's ``preemption="auto"`` mode uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.perfmodel.devices import DeviceSpec
from repro.perfmodel.runtime import RuntimeEstimate, RuntimeModel
from repro.utils.dtypes import dtype_bytes
from repro.utils.validation import require

#: Fraction of the graph kernels' sustained throughput a single decode row
#: achieves (one query row occupies a sliver of the device; most of the step
#: is gather latency).  Calibrated to keep modelled per-token latencies in
#: the tens-of-microseconds range the continuous-batching literature reports
#: for un-batched single-stream decoding.
DECODE_ROW_EFFICIENCY = 0.05

#: Per-token byte overhead of int8 KV storage: float32 ``scale`` and ``zero``
#: for the key row and again for the value row, per head/batch slice.  Kept
#: in sync with :data:`repro.serve.quant.QUANT_PARAM_BYTES_PER_TOKEN`
#: (defined here independently so the analytical layer never imports the
#: serving stack).
QUANT_PARAM_BYTES_PER_TOKEN = 16


def _storage_param_bytes(storage: Optional[str]) -> int:
    """Quantization-parameter bytes per token row per slice for a storage."""
    return QUANT_PARAM_BYTES_PER_TOKEN if storage == "int8" else 0


def kv_cache_bytes(
    length: int,
    head_dim: int,
    *,
    value_dim: Optional[int] = None,
    heads: int = 1,
    batch: int = 1,
    dtype: str = "fp16",
) -> int:
    """Bytes of a KV cache holding ``length`` tokens.

    One token stores one key row (``d_k``) and one value row (``d_v``) per
    head per batch element.
    """
    require(length >= 0, "length must be non-negative")
    require(head_dim > 0 and heads > 0 and batch > 0, "invalid dimensions")
    value_dim = head_dim if value_dim is None else value_dim
    element = dtype_bytes(dtype)
    return int(batch * heads * length * (head_dim + value_dim) * element)


def blocks_for_tokens(length: int, block_size: int) -> int:
    """Physical blocks a ``length``-token stream occupies (last one partial)."""
    require(length >= 0, "length must be non-negative")
    require(block_size >= 1, "block size must be >= 1")
    return -(-length // block_size)  # ceil


def kv_block_bytes(
    block_size: int,
    head_dim: int,
    *,
    value_dim: Optional[int] = None,
    heads: int = 1,
    batch: int = 1,
    dtype: str = "fp16",
    storage: Optional[str] = None,
) -> int:
    """Physical bytes of one KV block at a given *storage* format.

    ``storage=None`` prices the block at the compute ``dtype`` (the
    pre-quantization behaviour); ``"int8"`` storage adds the per-row
    scale/zero-point parameter overhead the quantized
    :class:`~repro.serve.paging.BlockPool` carries alongside its arenas.
    Mirrors :attr:`BlockPool.block_bytes` with ``heads · batch`` slices.
    """
    require(block_size >= 1, "block size must be >= 1")
    require(head_dim > 0 and heads > 0 and batch > 0, "invalid dimensions")
    value_dim = head_dim if value_dim is None else value_dim
    element = dtype_bytes(storage if storage is not None else dtype)
    slices = heads * batch
    data = slices * block_size * (head_dim + value_dim) * element
    params = slices * block_size * _storage_param_bytes(storage)
    return int(data + params)


def paged_kv_cache_bytes(
    length: int,
    head_dim: int,
    *,
    block_size: int,
    value_dim: Optional[int] = None,
    heads: int = 1,
    batch: int = 1,
    dtype: str = "fp16",
    storage: Optional[str] = None,
) -> int:
    """Bytes a paged KV cache maps for ``length`` tokens.

    The block granularity rounds the footprint up to whole blocks — the
    *internal fragmentation* a paged allocator pays in exchange for zero
    external fragmentation and prefix sharing.  ``storage`` prices the
    blocks at a quantized storage dtype instead of the compute ``dtype``.
    """
    return blocks_for_tokens(length, block_size) * kv_block_bytes(
        block_size,
        head_dim,
        value_dim=value_dim,
        heads=heads,
        batch=batch,
        dtype=dtype,
        storage=storage,
    )


def paging_fragmentation_overhead(length: int, block_size: int) -> float:
    """Fractional byte overhead of paging vs. an exact dense buffer.

    ``0.0`` when ``length`` is block-aligned; at worst
    ``(block_size - 1) / length``.  The dense-buffer comparison point is the
    exact live-token footprint — a geometrically-doubled private buffer
    typically wastes far more (up to ~2x) in slack capacity.
    """
    require(length >= 1, "length must be positive")
    padded = blocks_for_tokens(length, block_size) * block_size
    return (padded - length) / length


def paged_sessions_supported(
    budget_bytes: int,
    *,
    prompt_tokens: int,
    shared_prefix_tokens: int,
    decode_tokens: int = 0,
    block_size: int,
    head_dim: int,
    value_dim: Optional[int] = None,
    heads: int = 1,
    batch: int = 1,
    dtype: str = "fp16",
    storage: Optional[str] = None,
) -> int:
    """Concurrent paged streams a KV byte budget holds with a shared prompt.

    The first ``shared_prefix_tokens`` of every prompt map the same physical
    blocks (paid once); only full blocks of the shared prefix share cleanly,
    so the remainder counts as private.  Each stream then owns its private
    prompt tail plus ``decode_tokens`` generated tokens, rounded up to
    blocks.  ``storage`` prices the blocks at a quantized storage format —
    the ≥2x sessions-per-GiB int8 capacity lever.
    """
    require(budget_bytes >= 0, "budget must be non-negative")
    require(
        0 <= shared_prefix_tokens <= prompt_tokens,
        "shared prefix cannot exceed the prompt",
    )
    block_bytes = kv_block_bytes(
        block_size,
        head_dim,
        value_dim=value_dim,
        heads=heads,
        batch=batch,
        dtype=dtype,
        storage=storage,
    )
    total_blocks = budget_bytes // block_bytes
    shared_blocks = shared_prefix_tokens // block_size
    private_tokens = (
        prompt_tokens - shared_blocks * block_size + max(0, int(decode_tokens))
    )
    per_session = blocks_for_tokens(private_tokens, block_size)
    if per_session == 0:
        # fully-shared prompts and no generation: bounded only by the budget
        return int(total_blocks) if shared_blocks <= total_blocks else 0
    return max(0, int((total_blocks - shared_blocks) // per_session))


def decode_step_flops(
    row_edges: int,
    head_dim: int,
    *,
    value_dim: Optional[int] = None,
    heads: int = 1,
    batch: int = 1,
) -> int:
    """FLOPs of one incremental decode step over ``row_edges`` mask edges.

    ``2 d_k`` per query-key dot product plus ``2 d_v`` per value
    accumulation, per batch/head slice — the O(row edges · d) work-optimal
    step cost.
    """
    require(row_edges >= 0, "row_edges must be non-negative")
    require(head_dim > 0 and heads > 0 and batch > 0, "invalid dimensions")
    value_dim = head_dim if value_dim is None else value_dim
    return int(2 * row_edges * (head_dim + value_dim) * heads * batch)


@dataclass(frozen=True)
class DecodeStepEstimate:
    """Modelled cost of one incremental decode step."""

    device: str
    row_edges: int
    seconds: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    flops: float
    bytes_moved: float

    def tokens_per_second(self) -> float:
        """Single-stream decode throughput implied by this step cost."""
        return 1.0 / self.seconds if self.seconds > 0 else float("inf")


@dataclass(frozen=True)
class DecodeRuntimeModel:
    """Analytical decode-step estimator for one device."""

    device: DeviceSpec

    # ------------------------------------------------------------------ #
    def estimate_step(
        self,
        row_edges: int,
        head_dim: int,
        *,
        value_dim: Optional[int] = None,
        dtype: str = "fp16",
        heads: int = 1,
        batch: int = 1,
    ) -> DecodeStepEstimate:
        """Cost of attending one new token's mask row against the KV cache.

        ``batch`` covers both batched sessions within one stream and
        cross-session stacking (the server's coalesced step groups): the
        gathered edges and FLOPs scale with it while the launch overhead is
        paid once — the continuous-batching amortisation.
        """
        value_dim = head_dim if value_dim is None else value_dim
        slices = heads * batch
        element = dtype_bytes(dtype)
        flops = float(
            decode_step_flops(
                row_edges, head_dim, value_dim=value_dim, heads=heads, batch=batch
            )
        )
        compute = flops / (self.device.effective_throughput * DECODE_ROW_EFFICIENCY)
        # stream the gathered K/V edge rows once, write the new token's K/V
        # rows into the cache and the output row back out
        gather_bytes = float(row_edges) * (head_dim + value_dim) * element * slices
        token_bytes = (2.0 * head_dim + 2.0 * value_dim) * element * slices
        bytes_moved = gather_bytes + token_bytes
        memory = bytes_moved / self.device.memory_bandwidth
        overhead = self.device.kernel_launch_overhead
        return DecodeStepEstimate(
            device=self.device.name,
            row_edges=int(row_edges),
            seconds=max(compute, memory) + overhead,
            compute_seconds=compute,
            memory_seconds=memory,
            overhead_seconds=overhead,
            flops=flops,
            bytes_moved=bytes_moved,
        )

    def estimate_recompute(
        self,
        nnz: int,
        length: int,
        head_dim: int,
        *,
        dtype: str = "fp16",
        heads: int = 1,
        batch: int = 1,
    ) -> RuntimeEstimate:
        """Cost of recomputing the whole ``length``-token prefix (no KV cache).

        This is what a serving stack without incremental decoding pays per
        generated token: one full CSR kernel invocation over all ``nnz``
        causal edges of the prefix.
        """
        sparsity = min(1.0, nnz / (float(length) * float(length)))
        return RuntimeModel(self.device).estimate(
            "csr",
            length,
            head_dim,
            sparsity_factor=sparsity,
            nnz=nnz,
            dtype=dtype,
            heads=heads,
            batch=batch,
        )

    def speedup_vs_recompute(
        self,
        row_edges: int,
        nnz: int,
        length: int,
        head_dim: int,
        *,
        dtype: str = "fp16",
        heads: int = 1,
        batch: int = 1,
    ) -> float:
        """Modelled advantage of one incremental step over a full recompute."""
        step = self.estimate_step(
            row_edges, head_dim, dtype=dtype, heads=heads, batch=batch
        )
        full = self.estimate_recompute(
            nnz, length, head_dim, dtype=dtype, heads=heads, batch=batch
        )
        return full.seconds / step.seconds if step.seconds > 0 else float("inf")


@dataclass(frozen=True)
class SloEstimate:
    """Smallest end-to-end latency SLO a request shape can possibly meet.

    The serving edge admits a request against a deadline; this object is the
    analytical floor of that deadline on an *unloaded* device — one chunked
    prefill over the prompt's causal edges plus ``decode_tokens`` incremental
    steps.  Any SLO below :attr:`min_latency_seconds` is infeasible no matter
    how the scheduler orders work; feasible SLOs still need queueing headroom
    on a contended loop.
    """

    device: str
    prompt_tokens: int
    decode_tokens: int
    prefill_seconds: float
    decode_step_seconds: float

    @property
    def decode_seconds(self) -> float:
        """Total modelled decode time: ``decode_tokens`` incremental steps."""
        return self.decode_tokens * self.decode_step_seconds

    @property
    def min_latency_seconds(self) -> float:
        """Unloaded-device floor: prefill plus every decode step, serialized."""
        return self.prefill_seconds + self.decode_seconds

    def feasible(self, slo_latency_seconds: float) -> bool:
        """Whether a deadline is achievable at all (ignoring queueing)."""
        require(slo_latency_seconds > 0, "SLO must be positive")
        return slo_latency_seconds >= self.min_latency_seconds

    def recommended_slo(self, headroom: float = 2.0) -> float:
        """A deadline with multiplicative queueing headroom over the floor."""
        require(headroom >= 1.0, "headroom must be >= 1")
        return self.min_latency_seconds * headroom


def min_feasible_slo(
    device: DeviceSpec,
    *,
    prompt_tokens: int,
    decode_tokens: int,
    prompt_nnz: Optional[int] = None,
    row_edges: Optional[int] = None,
    head_dim: int = 64,
    value_dim: Optional[int] = None,
    dtype: str = "fp16",
    heads: int = 1,
    batch: int = 1,
) -> SloEstimate:
    """Model the tightest latency SLO a ``prompt + decode`` request can meet.

    The prefill term prices one causal pass over the prompt
    (:meth:`DecodeRuntimeModel.estimate_recompute`; ``prompt_nnz`` defaults
    to the dense causal edge count).  The decode term charges
    ``decode_tokens`` incremental steps at the *final* row width
    (``row_edges`` defaults to the full ``prompt_tokens + decode_tokens``
    context) — a conservative per-step cost for sparse masks, exact for
    dense causal rows.  The edge uses this to sanity-check scenario
    deadlines: an SLO below the returned floor is unattainable by
    construction, not a scheduling failure.
    """
    require(prompt_tokens >= 1, "prompt_tokens must be positive")
    require(decode_tokens >= 0, "decode_tokens must be non-negative")
    if prompt_nnz is None:
        prompt_nnz = prompt_tokens * (prompt_tokens + 1) // 2
    if row_edges is None:
        row_edges = prompt_tokens + decode_tokens
    model = DecodeRuntimeModel(device)
    prefill = model.estimate_recompute(
        prompt_nnz, prompt_tokens, head_dim, dtype=dtype, heads=heads, batch=batch
    )
    step = model.estimate_step(
        row_edges,
        head_dim,
        value_dim=value_dim,
        dtype=dtype,
        heads=heads,
        batch=batch,
    )
    return SloEstimate(
        device=device.name,
        prompt_tokens=int(prompt_tokens),
        decode_tokens=int(decode_tokens),
        prefill_seconds=prefill.seconds,
        decode_step_seconds=step.seconds,
    )


#: Fraction of DRAM bandwidth a host-side KV swap sustains.  Swap traffic
#: crosses the device boundary (PCIe / pinned-host staging), so it moves far
#: below the on-device rate the decode gathers enjoy; one quarter keeps the
#: swap-vs-recompute break-even at realistic prefix lengths.
SWAP_BANDWIDTH_FRACTION = 0.25


@dataclass(frozen=True)
class PreemptionCostEstimate:
    """Modelled cost of evicting (and later resuming) one decode stream."""

    device: str
    tokens: int
    swap_bytes: int
    swap_out_seconds: float
    swap_in_seconds: float
    recompute_flops: float
    recompute_seconds: float

    @property
    def swap_seconds(self) -> float:
        """Round-trip swap cost: serialize out at eviction, restore at resume."""
        return self.swap_out_seconds + self.swap_in_seconds

    @property
    def preferred(self) -> str:
        """``"swap"`` or ``"recompute"`` — whichever resumes the stream cheaper."""
        return "swap" if self.swap_seconds <= self.recompute_seconds else "recompute"


def preemption_cost(
    device: DeviceSpec,
    tokens: int,
    *,
    prefix_nnz: int,
    head_dim: int,
    value_dim: Optional[int] = None,
    heads: int = 1,
    batch: int = 1,
    dtype: str = "fp16",
    block_size: Optional[int] = None,
    storage: Optional[str] = None,
    swap_bandwidth_fraction: float = SWAP_BANDWIDTH_FRACTION,
) -> PreemptionCostEstimate:
    """Price evicting a ``tokens``-long stream: swap round-trip vs. recompute.

    *Swap* serializes the live KV rows to host memory and streams them back at
    resume — two copies of the cache footprint (block-padded when
    ``block_size`` is given) at ``swap_bandwidth_fraction`` of DRAM bandwidth,
    each paying one launch overhead.  A quantized ``storage`` shrinks the
    swap traffic to the encoded payload (bytes plus per-row parameters) —
    the serving loop's swaps ship quantized blocks, never an fp32 inflation.
    *Recompute* stores nothing and replays the prompt's causal prefill on
    resume: one CSR pass over the prefix's ``prefix_nnz`` causal edges
    (:meth:`DecodeRuntimeModel.estimate_recompute`).  Short prefixes over
    sparse rows recompute cheaper; long or dense prefixes amortise the copy
    and prefer the swap.
    """
    require(tokens >= 0, "tokens must be non-negative")
    require(prefix_nnz >= 0, "prefix_nnz must be non-negative")
    require(0.0 < swap_bandwidth_fraction <= 1.0, "swap bandwidth fraction in (0, 1]")
    if tokens == 0:
        # nothing cached: both paths are free (callers drop the cache either way)
        return PreemptionCostEstimate(
            device=device.name,
            tokens=0,
            swap_bytes=0,
            swap_out_seconds=0.0,
            swap_in_seconds=0.0,
            recompute_flops=0.0,
            recompute_seconds=0.0,
        )
    if block_size is not None:
        swap_bytes = paged_kv_cache_bytes(
            tokens,
            head_dim,
            block_size=block_size,
            value_dim=value_dim,
            heads=heads,
            batch=batch,
            dtype=dtype,
            storage=storage,
        )
    else:
        swap_bytes = kv_cache_bytes(
            tokens,
            head_dim,
            value_dim=value_dim,
            heads=heads,
            batch=batch,
            dtype=storage if storage is not None else dtype,
        ) + tokens * heads * batch * _storage_param_bytes(storage)
    bandwidth = device.memory_bandwidth * swap_bandwidth_fraction
    copy_seconds = swap_bytes / bandwidth + device.kernel_launch_overhead
    recompute = DecodeRuntimeModel(device).estimate_recompute(
        prefix_nnz, tokens, head_dim, dtype=dtype, heads=heads, batch=batch
    )
    return PreemptionCostEstimate(
        device=device.name,
        tokens=int(tokens),
        swap_bytes=int(swap_bytes),
        swap_out_seconds=copy_seconds,
        swap_in_seconds=copy_seconds,
        recompute_flops=recompute.flops,
        recompute_seconds=recompute.seconds,
    )


def max_cached_tokens(
    device: DeviceSpec,
    *,
    head_dim: int = 64,
    value_dim: Optional[int] = None,
    heads: int = 1,
    batch: int = 1,
    dtype: str = "fp16",
    storage: Optional[str] = None,
    reserved_bytes: int = 0,
    block_size: Optional[int] = None,
) -> int:
    """Longest decode stream whose KV cache fits in device memory.

    ``reserved_bytes`` carves out space for weights and activations; the
    remainder divides by the per-token cache footprint (the decode analogue
    of the Table II context-length limits — linear in ``L`` instead of the
    quadratic score-matrix inequality).  ``storage`` prices the cache at a
    quantized storage format instead of the compute ``dtype``.

    With ``block_size`` the budget is spent at block granularity instead:
    the stream holds at most ``num_blocks · block_size`` tokens, where only
    whole blocks fit the budget — the paged allocator's accounting, slightly
    below the dense bound when the budget is not block-aligned but immune to
    the up-to-2x slack a geometrically-doubled private buffer reserves.
    """
    budget = device.memory_bytes - int(reserved_bytes)
    if budget <= 0:
        return 0
    if block_size is not None:
        block_bytes = kv_block_bytes(
            block_size,
            head_dim,
            value_dim=value_dim,
            heads=heads,
            batch=batch,
            dtype=dtype,
            storage=storage,
        )
        return int(budget // block_bytes) * int(block_size)
    per_token = kv_cache_bytes(
        1,
        head_dim,
        value_dim=value_dim,
        heads=heads,
        batch=batch,
        dtype=storage if storage is not None else dtype,
    ) + heads * batch * _storage_param_bytes(storage)
    return max(0, budget // per_token)
