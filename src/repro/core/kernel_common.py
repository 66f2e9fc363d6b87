"""Shared machinery for the graph-processing attention kernels.

All six kernels follow Algorithm 1: parallel over query rows, pull each
neighbour's key/value, maintain online-softmax statistics.  They differ only
in how neighbours are obtained (explicit COO/CSR input vs. implicit pattern
parameters) and in how the work is batched.  This module hosts the two
executor cores they share:

* :func:`streamed_attention` — the literal Algorithm 1 loop: one neighbour at
  a time, one online-softmax update per edge.  It is the executable
  specification used for verification and op accounting, not a fast path.
* :func:`csr_ordered_attention` — the vectorised work-optimal core: one call
  of the fused row kernel :func:`repro.core.compiled.edge_attention`, which
  sweeps each query row's CSR edges once, reading K/V rows in place.
  Exactly ``nnz`` dot products and ``nnz`` value accumulations are performed
  per batch slice, and memory stays O(L·d) whatever ``nnz`` is.

Both cores accept ``(..., L, d)`` inputs: any leading axes (batch, heads) are
independent slices sharing one mask.  The vectorised core runs the whole
stack in one kernel call, so a ``(B, H)`` batch costs one kernel's worth of
Python overhead, not ``B·H``.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.core import compiled
from repro.core.dense import batch_size, resolve_scale, validate_qkv
from repro.core.online_softmax import OnlineSoftmaxState, accumulator_dtype
from repro.core.result import AttentionResult, OpCounts
from repro.utils.validation import require

#: Executor names accepted by every graph kernel.
EXECUTORS = ("vectorized", "streamed")


def validate_executor(executor: str) -> str:
    require(executor in EXECUTORS, f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    return executor


def prepare_inputs(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: Optional[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, np.dtype]:
    """Validate shapes and upcast Q/K/V to the accumulation dtype."""
    validate_qkv(q, k, v)
    acc_dtype = accumulator_dtype(q.dtype)
    scale_value = resolve_scale(scale, q.shape[-1])
    return (
        np.asarray(q, dtype=acc_dtype),
        np.asarray(k, dtype=acc_dtype),
        np.asarray(v, dtype=acc_dtype),
        scale_value,
        acc_dtype,
    )


def streamed_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    neighbor_fn: Callable[[int], np.ndarray],
    *,
    scale: Optional[float] = None,
    algorithm: str = "streamed",
    search_steps: int = 0,
    meta: Optional[dict] = None,
) -> AttentionResult:
    """Literal Algorithm 1: per row, pull neighbours one at a time.

    ``neighbor_fn(i)`` plays the role of ``Get_Neighbors(G, i, Pa)``.  The
    executor performs exactly one dot product, one exponential and one
    rescaled accumulation per edge — the work-optimal operation count — but
    pays Python-level loop overhead, so it is intended for verification and
    small problem sizes.  Batched inputs are executed slice by slice (this is
    the specification path; the vectorised executors are the fast path).
    """
    q_acc, k_acc, v_acc, scale_value, acc_dtype = prepare_inputs(q, k, v, scale)
    batch_shape = q.shape[:-2]
    length, head_dim = q.shape[-2], q.shape[-1]
    value_dim = v.shape[-1]
    slices = batch_size(q)

    q3 = q_acc.reshape(slices, length, head_dim)
    k3 = k_acc.reshape(slices, length, head_dim)
    v3 = v_acc.reshape(slices, length, value_dim)

    outputs = np.zeros((slices, length, value_dim), dtype=acc_dtype)
    row_max = np.full((slices, length), -np.inf, dtype=np.float64)
    row_sum = np.zeros((slices, length), dtype=np.float64)
    edges = 0
    neighbor_lists = None
    for b in range(slices):
        state = OnlineSoftmaxState.initialise(length, value_dim, acc_dtype)
        if neighbor_lists is None:  # the mask is shared across slices
            neighbor_lists = []
            for i in range(length):
                neighbor_lists.append(np.asarray(neighbor_fn(i)))
                edges += int(neighbor_lists[i].size)
        for i in range(length):
            for j in neighbor_lists[i]:
                score = float(q3[b, i] @ k3[b, j]) * scale_value
                state.update_single(i, score, v3[b, j])
        outputs[b] = state.finalize()
        row_max[b] = state.row_max
        row_sum[b] = state.row_sum

    ops = OpCounts.for_edges(
        edges, head_dim, value_dim, search_steps=search_steps, batch=slices
    )
    return AttentionResult(
        output=outputs.reshape(batch_shape + (length, value_dim)).astype(q.dtype),
        row_max=row_max.reshape(batch_shape + (length,)),
        row_sum=row_sum.reshape(batch_shape + (length,)),
        ops=ops,
        algorithm=algorithm,
        meta=dict(meta or {}),
    )


def csr_ordered_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
    *,
    scale: Optional[float] = None,
    algorithm: str = "csr",
    search_steps: int = 0,
    meta: Optional[dict] = None,
) -> AttentionResult:
    """Vectorised work-optimal core over CSR-ordered edges.

    ``indptr`` delimits each query row's edges inside ``cols``.  Every batch
    slice runs Algorithm 1 row by row in one call of
    :func:`~repro.core.compiled.edge_attention`, with ``k``/``v`` as the
    arena and ``cols`` as the rows it reads — no dense ``L x L``
    intermediate and no per-edge copy is ever formed, and the leading batch
    axes never touch a Python loop.
    """
    validate_qkv(q, k, v)
    length, head_dim = q.shape[-2], q.shape[-1]
    value_dim = v.shape[-1]
    indptr = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(cols)
    require(indptr.size == length + 1, "indptr must have length L + 1")
    require(int(indptr[-1]) == cols.size, "indptr[-1] must equal the edge count")

    output, row_max, row_sum = compiled.edge_attention(
        q,
        compiled.Arena(np.asarray(k), np.asarray(v)),
        cols,
        indptr,
        resolve_scale(scale, head_dim),
    )
    ops = OpCounts.for_edges(int(cols.size), head_dim, value_dim, search_steps=search_steps, batch=batch_size(q))
    return AttentionResult(
        output=output.astype(q.dtype, copy=False),
        row_max=row_max.astype(np.float64, copy=False),
        row_sum=row_sum.astype(np.float64, copy=False),
        ops=ops,
        algorithm=algorithm,
        meta=dict(meta or {}),
    )
