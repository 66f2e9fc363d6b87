"""Online (streaming) softmax primitives.

Every kernel in the paper — the FlashAttention baseline and all six graph
kernels — relies on the online softmax of Milakov & Gimelshein: a row's
softmax can be accumulated one neighbour (or one tile) at a time by carrying
two statistics, the running maximum ``m`` and the running normaliser ``l``,
and rescaling the partial output whenever ``m`` grows.  This module provides:

* :class:`OnlineSoftmaxState` — the ``(m, l, acc)`` triple for a set of rows,
  with single-score updates (Algorithm 1's inner loop), vectorised batch
  updates (one tile / neighbour-set at a time) and state merging (used to
  combine the partial results of sequentially executed kernels, e.g.
  Local + Global for Longformer).
* segment-reduction helpers the NumPy fallback of the fused row kernel
  (:func:`repro.core.compiled.edge_attention`) uses to evaluate a
  numerically stable softmax over CSR-ordered edge scores without ever
  materialising the dense score matrix.

Accumulation happens in float64 (float32 for half-precision inputs) so the
kernels agree with the dense reference within the paper's verification
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import require


def accumulator_dtype(input_dtype) -> np.dtype:
    """Accumulator precision for a given storage dtype.

    float16 inputs accumulate in float32 (as the CUDA kernels do); float32 and
    float64 inputs accumulate in float64 so that the streaming and dense
    evaluation orders agree to within the paper's 1e-8 absolute tolerance.
    """
    dtype = np.dtype(input_dtype)
    if dtype == np.float16:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def rescale_factor(old_max: np.ndarray, new_max: np.ndarray) -> np.ndarray:
    """``exp(old_max - new_max)`` with ``-inf`` maxima treated as "no contribution".

    Avoids the ``inf - inf`` NaN path entirely (important both for silence —
    no spurious warnings — and because rows that never received a score must
    contribute factor 0, not NaN).
    """
    old_max = np.asarray(old_max)
    new_max = np.asarray(new_max)
    diff = np.full(np.broadcast(old_max, new_max).shape, -np.inf, dtype=np.result_type(old_max, new_max, np.float64))
    finite = np.isfinite(old_max) & np.isfinite(new_max)
    np.subtract(old_max, new_max, out=diff, where=finite)
    return np.exp(diff)


@dataclass
class OnlineSoftmaxState:
    """Running softmax statistics for ``num_rows`` output rows.

    The state may carry leading batch axes: ``row_max`` / ``row_sum`` are
    ``(..., num_rows)`` and ``accumulator`` is ``(..., num_rows, value_dim)``.
    Every update indexes rows on the *last* row axis, so one state folds a
    whole ``(B, H)`` batch of tiles at once.

    Attributes
    ----------
    row_max:
        Running maximum ``m`` per row; ``-inf`` for rows that saw no score yet.
    row_sum:
        Running normaliser ``l`` per row, relative to ``row_max``.
    accumulator:
        Unnormalised output accumulator ``sum_j exp(s_j - m) * V_j`` per row.
    """

    row_max: np.ndarray
    row_sum: np.ndarray
    accumulator: np.ndarray

    # ------------------------------------------------------------------ #
    @classmethod
    def initialise(
        cls,
        num_rows: int,
        value_dim: int,
        dtype=np.float64,
        *,
        batch_shape: Tuple[int, ...] = (),
    ) -> "OnlineSoftmaxState":
        """Fresh state: ``m = -inf``, ``l = 0``, ``acc = 0`` (Algorithm 1's init)."""
        require(num_rows >= 0 and value_dim >= 0, "dimensions must be non-negative")
        dtype = np.dtype(dtype)
        batch_shape = tuple(int(s) for s in batch_shape)
        return cls(
            row_max=np.full(batch_shape + (num_rows,), -np.inf, dtype=dtype),
            row_sum=np.zeros(batch_shape + (num_rows,), dtype=dtype),
            accumulator=np.zeros(batch_shape + (num_rows, value_dim), dtype=dtype),
        )

    @property
    def num_rows(self) -> int:
        return int(self.row_max.shape[-1])

    @property
    def value_dim(self) -> int:
        return int(self.accumulator.shape[-1])

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update_single(self, row: int, score: float, value: np.ndarray) -> None:
        """Algorithm 1 inner loop: fold one neighbour's score/value into one row."""
        m_old = self.row_max[row]
        m_new = max(m_old, score)
        correction = np.exp(m_old - m_new) if np.isfinite(m_old) else 0.0
        weight = np.exp(score - m_new)
        self.row_sum[row] = self.row_sum[row] * correction + weight
        self.accumulator[row] = self.accumulator[row] * correction + weight * value
        self.row_max[row] = m_new

    def update_rows(self, rows: np.ndarray, scores: np.ndarray, values: np.ndarray) -> None:
        """Fold a batch of (row, score, value-row) triples where rows are unique.

        Used by the tiled executors: for a tile, each target row receives a
        *set* of scores already reduced to (tile_max, tile_sum, tile_acc); this
        method handles the single-score-per-row case.  ``rows`` must not repeat.
        """
        rows = np.asarray(rows)
        scores = np.asarray(scores, dtype=self.row_max.dtype)
        values = np.asarray(values, dtype=self.accumulator.dtype)
        m_old = self.row_max[..., rows]
        m_new = np.maximum(m_old, scores)
        correction = rescale_factor(m_old, m_new)
        weight = np.exp(scores - m_new)
        self.row_sum[..., rows] = self.row_sum[..., rows] * correction + weight
        self.accumulator[..., rows, :] = (
            self.accumulator[..., rows, :] * correction[..., None] + weight[..., None] * values
        )
        self.row_max[..., rows] = m_new

    def update_block(
        self,
        rows: np.ndarray,
        block_max: np.ndarray,
        block_sum: np.ndarray,
        block_acc: np.ndarray,
    ) -> None:
        """Merge pre-reduced per-row partials (max, sum, acc) into the state.

        This is the FlashAttention tile-merge: ``block_*`` are the softmax
        statistics of the scores a tile contributed to each row in ``rows``
        (``(..., R)`` / ``(..., R, d_v)`` for a batched state).  Rows must be
        unique within one call.
        """
        rows = np.asarray(rows)
        m_old = self.row_max[..., rows]
        m_new = np.maximum(m_old, block_max)
        # rows never touched before have m_old = -inf -> correction 0;
        # a tile can contribute "no finite score" (fully masked) -> block_max -inf
        old_scale = rescale_factor(m_old, m_new)
        new_scale = rescale_factor(block_max, m_new)
        self.row_sum[..., rows] = self.row_sum[..., rows] * old_scale + block_sum * new_scale
        self.accumulator[..., rows, :] = (
            self.accumulator[..., rows, :] * old_scale[..., None]
            + block_acc * new_scale[..., None]
        )
        self.row_max[..., rows] = np.where(np.isfinite(m_new), m_new, -np.inf)

    def merge(self, other: "OnlineSoftmaxState") -> "OnlineSoftmaxState":
        """Combine two states covering the same rows (disjoint neighbour sets).

        Sequentially executed kernels (Local then Global, as in Fig. 6's
        "Loc + Glo" curves) each produce a state over all L rows; merging them
        yields the state of the union mask, provided the masks are disjoint.
        """
        require(self.num_rows == other.num_rows, "state row counts differ")
        require(self.value_dim == other.value_dim, "state value dims differ")
        merged = OnlineSoftmaxState.initialise(
            self.num_rows,
            self.value_dim,
            self.row_max.dtype,
            batch_shape=self.row_max.shape[:-1],
        )
        m_new = np.maximum(self.row_max, other.row_max)
        scale_self = rescale_factor(self.row_max, m_new)
        scale_other = rescale_factor(other.row_max, m_new)
        merged.row_max = np.where(np.isfinite(m_new), m_new, -np.inf)
        merged.row_sum = self.row_sum * scale_self + other.row_sum * scale_other
        merged.accumulator = (
            self.accumulator * scale_self[..., None] + other.accumulator * scale_other[..., None]
        )
        return merged

    # ------------------------------------------------------------------ #
    def finalize(self, *, dtype=None, fill_empty: float = 0.0) -> np.ndarray:
        """Normalise the accumulator into the attention output.

        Rows that never received a score (fully masked queries) are filled with
        ``fill_empty`` (0 by default, matching the graph kernels' behaviour of
        leaving ``O`` at its initialisation).
        """
        out = np.empty_like(self.accumulator)
        empty = self.row_sum == 0
        safe_sum = np.where(empty, 1.0, self.row_sum)
        np.divide(self.accumulator, safe_sum[..., None], out=out)
        out[empty] = fill_empty
        if dtype is not None:
            out = out.astype(dtype)
        return out


# --------------------------------------------------------------------------- #
# Segment softmax over CSR-ordered edge scores
# --------------------------------------------------------------------------- #
def segment_softmax_stats(
    scores: np.ndarray, indptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (max, sum, weights) of edge scores laid out in CSR order.

    ``scores[..., indptr[i]:indptr[i+1]]`` are row ``i``'s edge scores; any
    leading axes are independent batch slices sharing the one CSR structure.
    Returns the per-row maximum (``-inf`` for empty rows), the per-row sum of
    ``exp(score - max)`` (0 for empty rows) and the per-edge weights
    ``exp(score - row_max)``, all keeping the leading axes.  Implemented with
    ``ufunc.reduceat`` over the non-empty segments so no dense ``L x L``
    buffer is ever created.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    num_rows = indptr.size - 1
    scores = np.asarray(scores)
    batch_shape = scores.shape[:-1]
    row_max = np.full(batch_shape + (num_rows,), -np.inf, dtype=scores.dtype)
    row_sum = np.zeros(batch_shape + (num_rows,), dtype=scores.dtype)
    if scores.shape[-1] == 0:
        return row_max, row_sum, np.zeros(batch_shape + (0,), dtype=scores.dtype)
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths > 0)
    starts = indptr[nonempty]
    row_max[..., nonempty] = np.maximum.reduceat(scores, starts, axis=-1)
    edge_rows = np.repeat(np.arange(num_rows), lengths)
    weights = np.exp(scores - row_max[..., edge_rows])
    row_sum[..., nonempty] = np.add.reduceat(weights, starts, axis=-1)
    return row_max, row_sum, weights


def segment_weighted_sum(
    weights: np.ndarray, values: np.ndarray, indptr: np.ndarray, value_dim: int
) -> np.ndarray:
    """Per-row sum of ``weights[..., None] * values`` for CSR-ordered edges.

    ``values`` holds one value-row per edge (already gathered via the column
    indices, ``(..., nnz, d_v)``); the result has shape
    ``(..., num_rows, value_dim)`` with zero rows for empty segments.  This
    is the reduction step of the NumPy fallback of
    :func:`repro.core.compiled.edge_attention`, which calls it one bounded
    chunk of rows at a time.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    num_rows = indptr.size - 1
    batch_shape = weights.shape[:-1]
    acc = np.zeros(batch_shape + (num_rows, value_dim), dtype=values.dtype)
    if weights.shape[-1] == 0:
        return acc
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths > 0)
    starts = indptr[nonempty]
    weighted = weights[..., None] * values
    acc[..., nonempty, :] = np.add.reduceat(weighted, starts, axis=-2)
    return acc


def stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Dense numerically-stable softmax with fully-masked (-inf) rows mapped to 0."""
    scores = np.asarray(scores)
    row_max = np.max(scores, axis=axis, keepdims=True)
    finite = np.isfinite(row_max)
    shifted = np.where(finite, scores - np.where(finite, row_max, 0.0), -np.inf)
    with np.errstate(invalid="ignore"):
        weights = np.exp(shifted)
    weights = np.nan_to_num(weights, nan=0.0, posinf=0.0)
    denom = np.sum(weights, axis=axis, keepdims=True)
    return np.divide(weights, denom, out=np.zeros_like(weights), where=denom > 0)
