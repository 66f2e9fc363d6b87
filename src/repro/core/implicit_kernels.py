"""Implicit-mask ("ordered sparsity") graph kernels: Local, Dilated-1D,
Dilated-2D and Global (paper Section IV-B).

These kernels receive only the pattern parameters ``Pa`` — window size,
dilation factor, block size, global token list — and compute each row's
neighbour indices on the fly, so no mask is ever stored.  That is what gives
them the FlashAttention-class memory footprint of Table II (Q/K/V/O plus two
``O(L)`` statistics vectors) while performing only ``O(Sf L^2 d)`` work.

Every kernel accepts ``(..., L, d)`` inputs: arbitrary leading batch/head
axes are executed in the same fused NumPy passes as the trailing ``(L, d)``
slice, so a ``(B, H)`` stack shares one pass over the mask structure instead
of paying the Python machinery ``B·H`` times.

Each kernel offers two executors:

* ``"streamed"`` — the literal Algorithm 1 loop (specification / verification).
* ``"vectorized"`` — a batched work-optimal evaluation.  Local and 1-D dilated
  kernels exploit translation invariance: a dilation of ``r`` lets a row of
  residue ``p`` mod ``r + 1`` see only keys of that residue, so the dilated
  stencil runs as ``r + 1`` interleaved local bands, each at the local
  kernel's rate.  Wide bands switch to a banded-GEMM strategy (dense tiles
  over the band, BLAS matmuls, a softmax masked by one additive band
  template per call) whose extra dot products are reported as
  ``wasted_dot_products``.  Both strategies size their row chunks from the
  band alone and take the slices of a stack in groups, so a stacked call
  tiles every slice exactly as a single-slice call does and returns the same
  bits.  The 2-D dilated kernel iterates blocks; the global kernel splits the
  work into the dense global rows and the thin global columns, which is also
  what makes its load imbalance visible to the runtime model.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.kernel_common import (
    batch_size,
    prepare_inputs,
    streamed_attention,
    validate_executor,
)
from repro.core.result import AttentionResult, OpCounts
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.utils.validation import require

#: Upper bound on the number of gathered score entries held at once by the
#: chunked stencil executors: rows per chunk are derived from it for one
#: slice, and the slices of a stack are taken in groups that fit it together.
#: Keeps the working set cache-friendly regardless of window size and batch
#: width.
_CHUNK_ELEMENT_BUDGET = 1 << 22

#: Minimum offsets per band before the banded-GEMM strategy pays off (below
#: it, the exact gather path has less overhead than dense band tiles).
_GEMM_MIN_OFFSETS = 32


def _stencil_gather(q3, k3, v3, offsets, scale_value, row_chunk, outputs, row_max, row_sum):
    """Exact gather executor: one einsum entry per stencil offset.

    Work per chunk is exactly ``rows x offsets`` score entries (boundary
    positions masked), so the only waste is the ``O(w^2)`` boundary padding.
    The row chunk is sized for one slice (unless ``row_chunk`` pins it), and
    the slices go in groups whose gathered K/V rows fit the element budget.
    Writes each row's output and statistics into ``outputs``, ``row_max`` and
    ``row_sum`` and returns the number of score entries evaluated per slice.
    """
    slices, length, head_dim = q3.shape
    value_dim = v3.shape[-1]
    per_row = offsets.size * max(head_dim, value_dim, 1)
    if row_chunk is None:
        row_chunk = max(1, min(length, _CHUNK_ELEMENT_BUDGET // per_row))
    group = max(1, _CHUNK_ELEMENT_BUDGET // (min(row_chunk, length) * per_row))

    computed = 0
    for start in range(0, length, row_chunk):
        stop = min(start + row_chunk, length)
        rows = np.arange(start, stop, dtype=np.int64)
        cols = rows[:, None] + offsets[None, :]
        valid = (cols >= 0) & (cols < length)
        safe_cols = np.clip(cols, 0, length - 1)
        for lo in range(0, slices, group):
            part = slice(lo, lo + group)
            # C-ordered results: the gathered rows come out slice-innermost,
            # and reductions over that layout would depend on the group width
            scores = np.einsum(
                "brd,brod->bro", q3[part, rows], k3[part, safe_cols], order="C"
            ) * scale_value
            scores = np.where(valid, scores, -np.inf)
            chunk_max = scores.max(axis=-1)
            safe_max = np.where(np.isfinite(chunk_max), chunk_max, 0.0)
            weights = np.exp(np.where(valid, scores - safe_max[..., None], -np.inf))
            chunk_sum = weights.sum(axis=-1)
            chunk_out = np.einsum("bro,brod->brd", weights, v3[part, safe_cols], order="C")
            safe = np.where(chunk_sum == 0, 1.0, chunk_sum)
            outputs[part, rows] = chunk_out / safe[..., None]
            row_max[part, rows] = chunk_max
            row_sum[part, rows] = chunk_sum
        computed += int(valid.size)
    return computed


def _stencil_gemm(q3, k3, v3, offsets, scale_value, outputs, row_max, row_sum):
    """Banded-GEMM executor: dense score tiles over the stencil's band.

    The band ``[i + min_off, i + max_off]`` of a chunk of rows is computed as
    one dense BLAS matmul against a contiguous K slice, and the value product
    is a second dense matmul.  The off-stencil entries are masked by adding a
    0/``-inf`` template built once per call: row ``r`` of a chunk sees
    template columns ``r + offsets - min_off``, and a chunk starting at
    ``start`` adds the slice at ``col_lo - (start + min_off)``, so clipping
    the key columns to ``[0, L)`` drops exactly the out-of-range offsets.  The
    dense tiles perform up to ``(rows + span - 1) / span`` times the band's
    true work — reported as wasted dot products — in exchange for BLAS
    throughput on every batch slice at once.  Like :func:`_stencil_gather`,
    it writes into ``outputs``, ``row_max`` and ``row_sum`` and returns the
    score entries evaluated per slice.
    """
    slices, length, _ = q3.shape
    min_off, max_off = int(offsets[0]), int(offsets[-1])
    span = max_off - min_off + 1

    # chunk rows R from the band alone — no wider than the span (keeps dense
    # work within 2x the band), and one slice's (R, R + span - 1) score tile
    # within the element budget — so each slice of a stack tiles as a
    # single-slice call does; the slices go in groups whose tiles fit it
    budget_rows = int((math.sqrt(span * span + 4.0 * _CHUNK_ELEMENT_BUDGET) - span) / 2.0)
    row_chunk = max(16, min(length, span, budget_rows))
    group = max(1, _CHUNK_ELEMENT_BUDGET // (row_chunk * (row_chunk + span - 1)))

    local_rows = np.arange(row_chunk, dtype=np.int64)[:, None]
    template = np.full((row_chunk, row_chunk + span - 1), -np.inf, dtype=q3.dtype)
    template[local_rows, local_rows + (offsets - min_off)] = 0.0

    computed = 0
    for start in range(0, length, row_chunk):
        stop = min(start + row_chunk, length)
        col_lo = max(0, start + min_off)
        col_hi = min(length, stop - 1 + max_off + 1)
        shift = col_lo - (start + min_off)
        band = template[: stop - start, shift : shift + col_hi - col_lo]
        for lo in range(0, slices, group):
            part = slice(lo, lo + group)
            # the score tile is the one budget-sized temporary: scale, mask,
            # shift and exponentiate it in place
            scores = q3[part, start:stop] @ k3[part, col_lo:col_hi].transpose(0, 2, 1)
            scores *= scale_value
            scores += band
            chunk_max = scores.max(axis=-1)
            safe_max = np.where(np.isfinite(chunk_max), chunk_max, 0.0)
            scores -= safe_max[..., None]
            weights = np.exp(scores, out=scores)
            chunk_sum = weights.sum(axis=-1)
            chunk_out = weights @ v3[part, col_lo:col_hi]
            safe = np.where(chunk_sum == 0, 1.0, chunk_sum)
            outputs[part, start:stop] = chunk_out / safe[..., None]
            row_max[part, start:stop] = chunk_max
            row_sum[part, start:stop] = chunk_sum
            del scores, weights  # before the next tile is allocated
        computed += (stop - start) * (col_hi - col_lo)
    return computed


def _stencil_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    offsets: np.ndarray,
    nnz: int,
    stride: int,
    *,
    scale: Optional[float],
    algorithm: str,
    meta: dict,
    row_chunk: Optional[int] = None,
) -> AttentionResult:
    """Vectorised executor for translation-invariant (offset stencil) masks.

    ``offsets`` are multiples of ``stride`` (1 for a local window, ``r + 1``
    for a dilation of ``r``), so a row of residue ``p`` mod ``stride`` sees
    only keys of that residue.  The stencil therefore runs as ``stride``
    interleaved local bands: rows and keys ``p::stride`` with the contiguous
    offsets ``offsets // stride``, each band writing its output and
    statistics back into rows ``p::stride``.  Narrow bands run the exact
    gather strategy (``row + offsets`` columns, out-of-range positions
    masked); bands of at least ``_GEMM_MIN_OFFSETS`` offsets run the
    banded-GEMM strategy.  Both execute every leading batch axis in the same
    pass; extra score entries beyond the mask's nnz are reported per slice as
    ``wasted_dot_products``.  Passing ``row_chunk`` pins the gather strategy
    (and its chunk size) explicitly.
    """
    q_acc, k_acc, v_acc, scale_value, acc_dtype = prepare_inputs(q, k, v, scale)
    batch_shape = q.shape[:-2]
    length, head_dim = q.shape[-2], q.shape[-1]
    value_dim = v.shape[-1]
    slices = batch_size(q)
    band = np.sort(np.asarray(offsets, dtype=np.int64)) // stride

    q3 = q_acc.reshape(slices, length, head_dim)
    k3 = k_acc.reshape(slices, length, head_dim)
    v3 = v_acc.reshape(slices, length, value_dim)
    outputs = np.zeros((slices, length, value_dim), dtype=acc_dtype)
    row_max = np.full((slices, length), -np.inf, dtype=acc_dtype)
    row_sum = np.zeros((slices, length), dtype=acc_dtype)

    use_gemm = row_chunk is None and band.size >= _GEMM_MIN_OFFSETS
    computed = 0
    for residue in range(min(stride, length)):
        rows = slice(residue, None, stride)
        inputs = (q3[:, rows], k3[:, rows], v3[:, rows], band, scale_value)
        results = (outputs[:, rows], row_max[:, rows], row_sum[:, rows])
        if use_gemm:
            computed += _stencil_gemm(*inputs, *results)
        else:
            computed += _stencil_gather(*inputs, row_chunk, *results)

    wasted = computed - nnz
    ops = OpCounts.for_edges(
        nnz, head_dim, value_dim, wasted_dot_products=wasted, batch=slices
    )
    return AttentionResult(
        output=outputs.reshape(batch_shape + (length, value_dim)).astype(q.dtype, copy=False),
        row_max=np.where(np.isfinite(row_max), row_max, -np.inf)
        .reshape(batch_shape + (length,))
        .astype(np.float64, copy=False),
        row_sum=row_sum.reshape(batch_shape + (length,)).astype(np.float64, copy=False),
        ops=ops,
        algorithm=algorithm,
        meta=meta,
    )


# --------------------------------------------------------------------------- #
# Local and 1-D dilated kernels
# --------------------------------------------------------------------------- #
def local_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    window: int,
    *,
    scale: Optional[float] = None,
    executor: str = "vectorized",
    row_chunk: Optional[int] = None,
) -> AttentionResult:
    """Local (sliding window) attention: query ``i`` attends keys with ``|i-j| < window``."""
    validate_executor(executor)
    length = q.shape[-2]
    mask = LocalMask(window=window)
    meta = {"window": window, "nnz": mask.nnz(length), "sparsity_factor": mask.sparsity_factor(length)}
    if executor == "streamed":
        return streamed_attention(
            q, k, v, lambda i: mask.neighbors(i, length), scale=scale, algorithm="local", meta=meta
        )
    return _stencil_attention(
        q, k, v, mask.offsets(), mask.nnz(length), 1,
        scale=scale, algorithm="local", meta=meta, row_chunk=row_chunk,
    )


def dilated1d_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    window: int,
    dilation: int = 1,
    *,
    scale: Optional[float] = None,
    executor: str = "vectorized",
    row_chunk: Optional[int] = None,
) -> AttentionResult:
    """1-D dilated windowed attention (``|i-j| < window`` and ``|i-j| % (r+1) == 0``)."""
    validate_executor(executor)
    length = q.shape[-2]
    mask = Dilated1DMask(window=window, dilation=dilation)
    meta = {
        "window": window,
        "dilation": dilation,
        "nnz": mask.nnz(length),
        "sparsity_factor": mask.sparsity_factor(length),
    }
    if executor == "streamed":
        return streamed_attention(
            q, k, v, lambda i: mask.neighbors(i, length), scale=scale, algorithm="dilated1d", meta=meta
        )
    return _stencil_attention(
        q, k, v, mask.offsets(), mask.nnz(length), mask.stride,
        scale=scale, algorithm="dilated1d", meta=meta, row_chunk=row_chunk,
    )


# --------------------------------------------------------------------------- #
# 2-D dilated kernel
# --------------------------------------------------------------------------- #
def dilated2d_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    block_size: int,
    dilation: int = 1,
    *,
    scale: Optional[float] = None,
    executor: str = "vectorized",
) -> AttentionResult:
    """2-D dilated (blocked) attention: dilation grid inside contiguous blocks."""
    validate_executor(executor)
    batch_shape = q.shape[:-2]
    length, head_dim = q.shape[-2], q.shape[-1]
    value_dim = v.shape[-1]
    slices = batch_size(q)
    mask = Dilated2DMask(block_size=block_size, dilation=dilation)
    meta = {
        "block_size": block_size,
        "dilation": dilation,
        "nnz": mask.nnz(length),
        "sparsity_factor": mask.sparsity_factor(length),
    }
    if executor == "streamed":
        return streamed_attention(
            q, k, v, lambda i: mask.neighbors(i, length), scale=scale, algorithm="dilated2d", meta=meta
        )

    q_acc, k_acc, v_acc, scale_value, acc_dtype = prepare_inputs(q, k, v, scale)
    q3 = q_acc.reshape(slices, length, head_dim)
    k3 = k_acc.reshape(slices, length, head_dim)
    v3 = v_acc.reshape(slices, length, value_dim)
    stride = dilation + 1
    outputs = np.zeros((slices, length, value_dim), dtype=acc_dtype)
    row_max = np.full((slices, length), -np.inf, dtype=acc_dtype)
    row_sum = np.zeros((slices, length), dtype=acc_dtype)
    for block_start in range(0, length, block_size):
        block_stop = min(block_start + block_size, length)
        idx = np.arange(block_start, block_stop, stride, dtype=np.int64)
        if idx.size == 0:
            continue
        scores = (q3[:, idx] @ k3[:, idx].transpose(0, 2, 1)) * scale_value
        block_max = scores.max(axis=-1)
        weights = np.exp(scores - block_max[..., None])
        block_sum = weights.sum(axis=-1)
        outputs[:, idx] = (weights @ v3[:, idx]) / block_sum[..., None]
        row_max[:, idx] = block_max
        row_sum[:, idx] = block_sum
    ops = OpCounts.for_edges(mask.nnz(length), head_dim, value_dim, batch=slices)
    return AttentionResult(
        output=outputs.reshape(batch_shape + (length, value_dim)).astype(q.dtype, copy=False),
        row_max=row_max.reshape(batch_shape + (length,)).astype(np.float64, copy=False),
        row_sum=row_sum.reshape(batch_shape + (length,)).astype(np.float64, copy=False),
        ops=ops,
        algorithm="dilated2d",
        meta=meta,
    )


# --------------------------------------------------------------------------- #
# Global (non-local) kernel
# --------------------------------------------------------------------------- #
def global_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    global_tokens: Sequence[int],
    window: int = 1,
    *,
    scale: Optional[float] = None,
    executor: str = "vectorized",
) -> AttentionResult:
    """Global attention for a designated token set.

    ``window >= 1`` mirrors the paper's *non-local* Global kernel: a local
    window of that reach is subtracted from the pattern, so composing this
    kernel with :func:`local_attention` of the same ``window`` covers the
    Longformer local+global mask with no edge processed twice.  ``window=0``
    disables the exclusion and executes the pure :class:`GlobalMask` pattern
    exactly — including the global rows' self-edges the non-local variant
    drops — which is what lets the engine dispatch a bare ``GlobalMask`` to
    this kernel instead of falling back to CSR.
    """
    validate_executor(executor)
    batch_shape = q.shape[:-2]
    length, head_dim = q.shape[-2], q.shape[-1]
    value_dim = v.shape[-1]
    slices = batch_size(q)
    require(window >= 0, "window must be >= 0")
    mask = (
        GlobalMask(global_tokens)
        if window == 0
        else GlobalNonLocalMask(global_tokens, window=window)
    )
    mask.validate_length(length)
    nnz = mask.nnz(length)
    meta = {
        "global_tokens": list(mask.global_tokens),
        "window": window,
        "nnz": nnz,
        "sparsity_factor": nnz / float(length * length),
    }
    if executor == "streamed":
        return streamed_attention(
            q, k, v, lambda i: mask.neighbors(i, length), scale=scale, algorithm="global", meta=meta
        )

    q_acc, k_acc, v_acc, scale_value, acc_dtype = prepare_inputs(q, k, v, scale)
    q3 = q_acc.reshape(slices, length, head_dim)
    k3 = k_acc.reshape(slices, length, head_dim)
    v3 = v_acc.reshape(slices, length, value_dim)
    globals_arr = np.asarray(mask.global_tokens, dtype=np.int64)
    g = globals_arr.size
    rows = np.arange(length, dtype=np.int64)

    outputs = np.zeros((slices, length, value_dim), dtype=acc_dtype)
    row_max = np.full((slices, length), -np.inf, dtype=acc_dtype)
    row_sum = np.zeros((slices, length), dtype=acc_dtype)
    computed = 0

    # (a) full rows of the global tokens, minus their own local window; the
    #     global rows and the non-global rows of part (b) are disjoint, so
    #     each part writes its rows directly — no state merging needed
    scores = (q3[:, globals_arr] @ k3.transpose(0, 2, 1)) * scale_value
    excluded = np.abs(rows[None, :] - globals_arr[:, None]) < window
    scores = np.where(excluded[None, :, :], -np.inf, scores)
    part_max = scores.max(axis=-1)
    safe_max = np.where(np.isfinite(part_max), part_max, 0.0)
    weights = np.exp(scores - safe_max[..., None])
    part_sum = weights.sum(axis=-1)
    part_out = weights @ v3
    safe = np.where(part_sum == 0, 1.0, part_sum)
    outputs[:, globals_arr] = part_out / safe[..., None]
    row_max[:, globals_arr] = part_max
    row_sum[:, globals_arr] = part_sum
    computed += g * length

    # (b) thin columns: every non-global row attends the global tokens outside
    #     its window
    non_global = np.setdiff1d(rows, globals_arr, assume_unique=False)
    if non_global.size and g:
        scores = (q3[:, non_global] @ k3[:, globals_arr].transpose(0, 2, 1)) * scale_value
        excluded = np.abs(non_global[:, None] - globals_arr[None, :]) < window
        scores = np.where(excluded[None, :, :], -np.inf, scores)
        part_max = scores.max(axis=-1)
        safe_max = np.where(np.isfinite(part_max), part_max, 0.0)
        weights = np.exp(scores - safe_max[..., None])
        part_sum = weights.sum(axis=-1)
        part_out = weights @ v3[:, globals_arr]
        safe = np.where(part_sum == 0, 1.0, part_sum)
        outputs[:, non_global] = part_out / safe[..., None]
        row_max[:, non_global] = part_max
        row_sum[:, non_global] = part_sum
        computed += int(non_global.size * g)

    wasted = max(0, computed - nnz)
    ops = OpCounts.for_edges(
        nnz, head_dim, value_dim, wasted_dot_products=wasted, batch=slices
    )
    return AttentionResult(
        output=outputs.reshape(batch_shape + (length, value_dim)).astype(q.dtype),
        row_max=np.where(np.isfinite(row_max), row_max, -np.inf)
        .reshape(batch_shape + (length,))
        .astype(np.float64),
        row_sum=row_sum.reshape(batch_shape + (length,)).astype(np.float64),
        ops=ops,
        algorithm="global",
        meta=meta,
    )
