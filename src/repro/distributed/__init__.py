"""Distributed-memory (sequence-parallel) extension of the graph kernels.

Section VI-A lists distributed execution with graph partitioning as future
work; this subpackage implements it against an in-process simulated
communicator so the algorithms and their communication volumes can be studied
without MPI:

* :class:`SimulatedComm` — an mpi4py-flavoured communicator (bcast, allgather,
  allreduce, point-to-point) operating on in-memory buffers and recording the
  bytes exchanged.
* :func:`sequence_parallel_attention` — sequence parallelism for masked
  attention: query rows are partitioned across ranks, K/V are all-gathered
  (the LongNet/Ulysses pattern), and each rank runs a graph kernel on its row
  slice.
* :func:`kv_parallel_attention` — the FlashDecoding-style dual: K/V rows are
  scattered, Q is broadcast, and per-rank partial online-softmax states are
  merged at the root.
* load-balance analysis of partitioning strategies on skewed masks.
"""

from repro.distributed.comm import CommunicationStats, SimulatedComm, SimulatedWorld
from repro.distributed.sequence_parallel import (
    SequenceParallelResult,
    kv_parallel_attention,
    sequence_parallel_attention,
    shard_rows,
)
from repro.distributed.partition_balance import (
    PartitionQuality,
    balanced_worker_bins,
    evaluate_partitions,
)

__all__ = [
    "CommunicationStats",
    "PartitionQuality",
    "SequenceParallelResult",
    "SimulatedComm",
    "SimulatedWorld",
    "balanced_worker_bins",
    "evaluate_partitions",
    "kv_parallel_attention",
    "sequence_parallel_attention",
    "shard_rows",
]
