"""Sequence-parallel masked attention over the simulated communicator.

The distribution pattern follows the sequence-parallel systems the paper
surveys (DeepSpeed-Ulysses, LongNet): the token sequence — and therefore the
query rows of the attention graph — is partitioned across ranks, the key and
value matrices are all-gathered so every rank can serve its rows' neighbours,
and each rank runs a *graph kernel* (not a dense kernel) on its row slice.
Because the graph kernels are work optimal, each rank's cost is proportional
to the edges it owns, which is why the partitioning strategies of
:mod:`repro.graph.partition` matter for skewed masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.explicit_kernels import csr_attention
from repro.core.online_softmax import OnlineSoftmaxState
from repro.core.result import AttentionResult, OpCounts
from repro.distributed.comm import CommunicationStats, SimulatedWorld
from repro.graph.partition import Partition, balanced_edge_partition, contiguous_partition
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require


def shard_rows(length: int, num_ranks: int, *, degrees: Optional[np.ndarray] = None) -> Partition:
    """Partition query rows across ranks.

    With ``degrees`` given, boundaries are placed to balance *edge* counts
    (work); otherwise rows are split evenly.
    """
    if degrees is None:
        return contiguous_partition(length, num_ranks)
    return balanced_edge_partition(degrees, num_ranks)


@dataclass
class SequenceParallelResult:
    """Gathered output of a sequence-parallel attention run."""

    output: np.ndarray
    rank_results: List[AttentionResult]
    partition: Partition
    comm_stats: CommunicationStats

    @property
    def num_ranks(self) -> int:
        return self.partition.num_parts

    @property
    def total_ops(self) -> OpCounts:
        total = OpCounts()
        for result in self.rank_results:
            total = total + result.ops
        return total

    def work_per_rank(self) -> np.ndarray:
        """Dot products performed by each rank (the load-balance quantity)."""
        return np.array([r.ops.dot_products for r in self.rank_results], dtype=np.int64)

    def load_balance(self) -> float:
        """max / mean rank work (1.0 = perfect balance)."""
        work = self.work_per_rank()
        mean = work.mean()
        return float(work.max() / mean) if mean > 0 else 1.0


def sequence_parallel_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: "MaskSpec | CSRMatrix",
    *,
    num_ranks: int,
    scale: Optional[float] = None,
    balance_by_edges: bool = True,
    kernel: Optional[Callable[..., AttentionResult]] = None,
    world: Optional[SimulatedWorld] = None,
) -> SequenceParallelResult:
    """Distributed masked attention with sequence (row) parallelism.

    Steps, mirroring a real multi-GPU deployment:

    1. partition the query rows (contiguous, optionally edge-balanced);
    2. scatter Q rows, all-gather K and V so every rank holds the full key and
       value matrices (the LongNet-style all-gather the paper cites);
    3. every rank runs a work-optimal graph kernel on its row slice of the
       mask;
    4. concatenate the per-rank outputs.

    The returned object carries per-rank op counts and the communication
    statistics recorded by the simulated world.
    """
    require(num_ranks >= 1, "num_ranks must be >= 1")
    length = q.shape[0]
    csr = mask if isinstance(mask, CSRMatrix) else mask.to_csr(length)
    require(csr.shape == (length, length), "mask shape mismatch")
    kernel = kernel or csr_attention
    world = world or SimulatedWorld(num_ranks)
    require(world.num_ranks == num_ranks, "world size mismatch")

    degrees = csr.row_degrees() if balance_by_edges else None
    partition = shard_rows(length, num_ranks, degrees=degrees)
    bounds: Sequence[Tuple[int, int]] = partition.bounds
    require(len(bounds) == num_ranks, "sequence parallelism requires a contiguous partition")

    # communication phase: scatter local Q rows, all-gather K and V
    q_shards = world.scatter_rows(q, bounds)
    k_full = world.allgather(world.scatter_rows(k, bounds))
    v_full = world.allgather(world.scatter_rows(v, bounds))

    rank_results: List[AttentionResult] = []
    outputs: List[np.ndarray] = []
    for rank, (start, stop) in enumerate(bounds):
        local_mask = csr.row_slice(start, stop)
        local_q = q_shards[rank]
        # the local mask is (rows, L): columns address the gathered K/V
        padded = CSRMatrix(
            shape=(stop - start, length),
            indptr=local_mask.indptr,
            indices=local_mask.indices,
            values=local_mask.values,
        )
        result = _rectangular_attention(local_q, k_full, v_full, padded, kernel, scale)
        rank_results.append(result)
        outputs.append(result.output)

    output = np.concatenate(outputs, axis=0) if outputs else np.zeros_like(v)
    return SequenceParallelResult(
        output=output,
        rank_results=rank_results,
        partition=partition,
        comm_stats=world.stats,
    )


def kv_parallel_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: "MaskSpec | CSRMatrix",
    *,
    num_ranks: int,
    scale: Optional[float] = None,
    kernel: Optional[Callable[..., AttentionResult]] = None,
    world: Optional[SimulatedWorld] = None,
) -> SequenceParallelResult:
    """Distributed masked attention with K/V (context) parallelism.

    The FlashDecoding-style dual of :func:`sequence_parallel_attention`:
    instead of splitting query rows, the *key and value* rows are scattered
    in contiguous shards, the full Q is broadcast, and every rank computes a
    partial online-softmax state of **all** query rows against the mask
    columns its shard covers.  The per-rank partials (running max, sum and
    weighted accumulator) travel to rank 0 as point-to-point messages on
    :class:`~repro.distributed.comm.SimulatedComm` and are folded together
    with :meth:`~repro.core.online_softmax.OnlineSoftmaxState.merge` — exact
    up to floating-point reassociation, because each rank owns a disjoint
    set of every row's neighbours.

    It suits a request whose context exceeds one node's memory: the context
    is what doesn't fit, so the context is what gets sharded.
    """
    require(num_ranks >= 1, "num_ranks must be >= 1")
    require(
        q.ndim == 2 and k.ndim == 2 and v.ndim == 2,
        "kv parallelism shards 2-D (L, d) tensors",
    )
    length = q.shape[0]
    csr = mask if isinstance(mask, CSRMatrix) else mask.to_csr(length)
    require(csr.shape == (length, length), "mask shape mismatch")
    kernel = kernel or csr_attention
    world = world or SimulatedWorld(num_ranks)
    require(world.num_ranks == num_ranks, "world size mismatch")

    partition = contiguous_partition(length, num_ranks)
    bounds: Sequence[Tuple[int, int]] = partition.bounds

    # communication phase: broadcast Q, scatter contiguous K/V row shards
    q_copies = world.broadcast(q)
    k_shards = world.scatter_rows(k, bounds)
    v_shards = world.scatter_rows(v, bounds)

    rank_results: List[AttentionResult] = []
    for rank, (start, stop) in enumerate(bounds):
        shard_csr = _column_shard(csr, start, stop)
        result = kernel(
            q_copies[rank],
            _pad_rows(k_shards[rank], length),
            _pad_rows(v_shards[rank], length),
            shard_csr,
            scale=scale,
        )
        rank_results.append(result)

    # each non-root rank ships its partial softmax state (max, sum, acc) to
    # rank 0; the root merges them in rank order
    root = world.comm(0)
    for rank in range(1, num_ranks):
        comm = world.comm(rank)
        result = rank_results[rank]
        comm.send(result.row_max, 0, tag=0)
        comm.send(result.row_sum, 0, tag=1)
        comm.send(result.output * result.row_sum[..., None], 0, tag=2)
    merged = _partial_state(rank_results[0])
    for rank in range(1, num_ranks):
        merged = merged.merge(
            OnlineSoftmaxState(
                row_max=root.recv(rank, tag=0),
                row_sum=root.recv(rank, tag=1),
                accumulator=root.recv(rank, tag=2),
            )
        )
    return SequenceParallelResult(
        output=merged.finalize(dtype=rank_results[0].output.dtype),
        rank_results=rank_results,
        partition=partition,
        comm_stats=world.stats,
    )


def _partial_state(result: AttentionResult) -> OnlineSoftmaxState:
    """Reconstruct a rank's online-softmax state from its kernel result.

    The kernels return the normalised output alongside the per-row softmax
    statistics, so the pre-normalisation accumulator is ``output * row_sum``
    (zero for rows the shard's mask columns never touched).
    """
    return OnlineSoftmaxState(
        row_max=np.array(result.row_max, copy=True),
        row_sum=np.array(result.row_sum, copy=True),
        accumulator=result.output * result.row_sum[..., None],
    )


def _column_shard(csr: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """Restrict a mask to columns ``[start, stop)``, re-based to column 0.

    The result keeps the full square shape so the kernels accept it against
    a zero-padded K/V shard; re-based indices all fall below ``stop - start``
    and the padded rows beyond the shard are never referenced.
    """
    rows = csr.shape[0]
    selected = (csr.indices >= start) & (csr.indices < stop)
    row_ids = np.repeat(np.arange(rows), np.diff(csr.indptr))
    counts = np.bincount(row_ids[selected], minlength=rows)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return CSRMatrix(
        shape=(rows, rows),
        indptr=indptr,
        indices=csr.indices[selected] - start,
        values=csr.values[selected],
    )


def _pad_rows(shard: np.ndarray, length: int) -> np.ndarray:
    """Zero-pad a K/V row shard to the square problem size the kernels expect."""
    if shard.shape[0] == length:
        return shard
    padded = np.zeros((length,) + shard.shape[1:], dtype=shard.dtype)
    padded[: shard.shape[0]] = shard
    return padded


def _rectangular_attention(
    q_rows: np.ndarray,
    k_full: np.ndarray,
    v_full: np.ndarray,
    mask: CSRMatrix,
    kernel: Callable[..., AttentionResult],
    scale: Optional[float],
) -> AttentionResult:
    """Run a square-mask kernel on a rectangular (rows x L) slice.

    The kernels validate that Q, K and V share their leading dimension, so the
    row slice is embedded into a square problem: local queries are placed in
    the first ``rows`` positions and the mask is padded with empty rows.  The
    padded rows contribute no edges and therefore no work.
    """
    rows = q_rows.shape[0]
    length = k_full.shape[0]
    require(rows <= length, "row shard larger than the gathered sequence")
    if rows == length:
        return kernel(q_rows, k_full, v_full, mask, scale=scale)
    q_padded = np.zeros_like(k_full, shape=(length, q_rows.shape[1]))
    q_padded[:rows] = q_rows
    indptr = np.concatenate([mask.indptr, np.full(length - rows, mask.indptr[-1], dtype=np.int64)])
    padded_mask = CSRMatrix(
        shape=(length, length), indptr=indptr, indices=mask.indices, values=mask.values
    )
    result = kernel(q_padded, k_full, v_full, padded_mask, scale=scale)
    return AttentionResult(
        output=result.output[:rows],
        row_max=result.row_max[:rows],
        row_sum=result.row_sum[:rows],
        ops=result.ops,
        algorithm=result.algorithm,
        meta=dict(result.meta, distributed_rows=rows),
    )
