"""KV-cache memory model for autoregressive decoding.

One-shot serving is modelled by :mod:`repro.perfmodel.memory` (resident
tensors of one full invocation).  In autoregressive decoding the dominant
resident tensor is the KV cache, which grows linearly with the decoded
length: ``batch · heads · L · (d_k + d_v)`` elements
(:func:`kv_cache_bytes`).  Solving the capacity inequality for ``L`` gives
the decode analogue of Table II's context limits (:func:`max_cached_tokens`).

The paged allocator of :mod:`repro.serve.paging` spends memory in whole
blocks: :func:`kv_block_bytes` prices one block at a storage format (int8
adds its per-row scale/zero-point bytes), :func:`paged_kv_cache_bytes` and
:func:`paging_fragmentation_overhead` the rounding to whole blocks, and
:func:`paged_sessions_supported` how many streams a byte budget holds when
their prompts share a prefix.  All of it is exact byte arithmetic: the
block pool's ``block_bytes`` equals :func:`kv_block_bytes` for its geometry.
"""

from __future__ import annotations

from typing import Optional

from repro.perfmodel.devices import DeviceSpec
from repro.utils.dtypes import dtype_bytes
from repro.utils.validation import require

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
