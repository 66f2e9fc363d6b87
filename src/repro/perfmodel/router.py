"""Multi-replica routing and rebalancing cost model.

The serving layer's :class:`~repro.serve.router.ReplicaRouter` makes three
kinds of decisions this module prices analytically:

* **routing** — every submit hashes the prompt's full blocks into chained
  prefix fingerprints.  :func:`routing_cost` charges that hashing at a
  calibrated bandwidth plus a constant per-request lookup overhead; it is a
  per-request tax, so it must stay orders of magnitude below the prefill it
  saves (:attr:`RoutingCostEstimate.worthwhile_when_saved_seconds`).
* **rebalancing** — a rebalance pass withdraws waiting streams and re-places
  them along :func:`~repro.distributed.partition_balance.balanced_worker_bins`.
  :func:`rebalance_gain` runs the *same* partitioner over the same costs the
  router would see and reports the makespan before/after, so the analytical
  prediction and the router's telemetry (``RebalanceRecord``) are two views
  of one computation — the cross-module agreement the differential tests
  assert.
* **scaling** — :func:`router_throughput_scaling` models the aggregate
  tokens/second of N replicas relative to one.  Replicas add capacity
  linearly; what they *lose* is prefix reuse: a routed-away stream re-pays
  the shared prefill its warm replica would have skipped.  With route-hit
  rate ``h`` and a fraction ``s`` of each stream's tokens in the shared
  prefix, the per-stream work inflates by ``(1 - h) · s``, giving
  ``N / (1 + (1 - h) · s)``.

Like the rest of :mod:`repro.perfmodel`, nothing here imports the serving
stack; shared constants are defined independently and kept in sync by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.distributed.partition_balance import balanced_worker_bins
from repro.utils.validation import require

#: Bytes/second one core sustains chaining SHA-1 over KV block payloads.
#: Calibrated conservatively (hashlib on a laptop-class core manages
#: ~0.5-2 GB/s); routing cost is dominated by this term for long prompts.
FINGERPRINT_BANDWIDTH = 500e6

#: Constant per-request routing overhead: the affinity-map probes, the
#: load scan of the fallback policy, and the placement bookkeeping.
ROUTE_LOOKUP_SECONDS = 2e-6

#: Per-stream cost of one withdraw + resubmit during a rebalance pass —
#: queue surgery and telemetry re-pointing, no tensor ever moves.
MOVE_STREAM_SECONDS = 5e-6


@dataclass(frozen=True)
class RoutingCostEstimate:
    """Modelled cost of routing one request by prefix fingerprint."""

    prompt_tokens: int
    hashed_bytes: int
    fingerprint_seconds: float
    lookup_seconds: float

    @property
    def seconds(self) -> float:
        return self.fingerprint_seconds + self.lookup_seconds

    @property
    def worthwhile_when_saved_seconds(self) -> float:
        """Prefill seconds a route hit must save to repay the routing tax.

        Any saving above this (one shared block's prefill dwarfs it) makes
        affinity routing strictly profitable.
        """
        return self.seconds


def fingerprint_seconds(hashed_bytes: int) -> float:
    """Seconds to chain-hash ``hashed_bytes`` of encoded block payload."""
    require(hashed_bytes >= 0, "hashed_bytes must be non-negative")
    return hashed_bytes / FINGERPRINT_BANDWIDTH


def routing_cost(
    prompt_tokens: int,
    key_dim: int,
    *,
    value_dim: Optional[int] = None,
    block_size: int = 16,
    storage_itemsize: int = 4,
    param_bytes_per_token: int = 0,
) -> RoutingCostEstimate:
    """Price routing one request: hash the full prompt blocks, probe the map.

    Only whole blocks enter the fingerprint chain (partial tails never
    match), so the hashed payload is the encoded K and V rows of
    ``floor(prompt / block_size)`` blocks at the pool's storage itemsize,
    plus any per-token quantization parameters (``16`` for int8 storage —
    the parameters feed the hash because they feed block identity).
    """
    require(prompt_tokens >= 0, "prompt_tokens must be non-negative")
    require(key_dim >= 1, "key_dim must be >= 1")
    require(block_size >= 1, "block_size must be >= 1")
    require(storage_itemsize >= 1, "storage_itemsize must be >= 1")
    value_dim = key_dim if value_dim is None else value_dim
    covered = (prompt_tokens // block_size) * block_size
    hashed = covered * (
        (key_dim + value_dim) * storage_itemsize + param_bytes_per_token
    )
    return RoutingCostEstimate(
        prompt_tokens=int(prompt_tokens),
        hashed_bytes=int(hashed),
        fingerprint_seconds=fingerprint_seconds(hashed),
        lookup_seconds=ROUTE_LOOKUP_SECONDS,
    )


@dataclass(frozen=True)
class RebalanceEstimate:
    """Before/after picture of one modelled rebalance pass."""

    num_replicas: int
    makespan_before: float
    makespan_after: float
    moved_streams: int
    move_seconds: float

    @property
    def makespan_gain(self) -> float:
        """Critical-replica load reduction (1.0 = no improvement)."""
        if self.makespan_after <= 0:
            return 1.0 if self.makespan_before <= 0 else float("inf")
        return self.makespan_before / self.makespan_after

    @property
    def worthwhile(self) -> bool:
        """Whether the pass reduced the critical path at all.

        The move cost is microseconds of bookkeeping against iterations of
        pending tokens, so any strict makespan reduction pays.
        """
        return self.makespan_after < self.makespan_before


def balanced_makespan(costs, num_replicas: int) -> float:
    """Critical-replica load after an LPT re-spread of ``costs``.

    Runs the exact :func:`~repro.distributed.partition_balance.balanced_worker_bins`
    partitioner the router's rebalance pass uses, so this *is* the router's
    post-move load picture, not an approximation of it.
    """
    require(num_replicas >= 1, "num_replicas must be >= 1")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0:
        return 0.0
    bins = balanced_worker_bins(costs, num_replicas)
    return float(max(costs[indices].sum() for indices in bins))


def rebalance_gain(
    replica_loads: Sequence[float],
    movable_costs: Sequence[float],
    movable_replicas: Sequence[int],
) -> RebalanceEstimate:
    """Model one rebalance pass over the router's own load signal.

    ``replica_loads[r]`` is replica ``r``'s pending tokens (movable
    included); ``movable_costs[i]`` / ``movable_replicas[i]`` describe the
    withdrawable streams.  The immovable base load stays where it is; the
    movable work is re-spread by the LPT partitioner and the heaviest bin
    lands on the lightest base — the router's pairing rule.  Streams are
    counted as moved when their bin's replica differs from where they sat.
    """
    loads = np.asarray(replica_loads, dtype=np.float64)
    costs = np.asarray(movable_costs, dtype=np.float64)
    origins = np.asarray(movable_replicas, dtype=np.int64)
    require(loads.ndim == 1 and loads.size >= 1, "need at least one replica load")
    require(costs.shape == origins.shape, "movable costs and replicas must align")
    num_replicas = loads.size
    require(
        costs.size == 0 or (origins.min() >= 0 and origins.max() < num_replicas),
        "movable_replicas must index into replica_loads",
    )
    base = loads - np.bincount(origins, weights=costs, minlength=num_replicas)
    makespan_before = float(loads.max())
    if costs.size == 0:
        return RebalanceEstimate(
            num_replicas=int(num_replicas),
            makespan_before=makespan_before,
            makespan_after=makespan_before,
            moved_streams=0,
            move_seconds=0.0,
        )
    bins = balanced_worker_bins(costs, num_replicas)
    bin_weights = np.array([costs[indices].sum() for indices in bins])
    heavy_first = np.argsort(-bin_weights, kind="stable")
    light_first = np.lexsort((np.arange(num_replicas), base))
    after = np.array(base, copy=True)
    moved = 0
    for bin_rank, target in zip(heavy_first, light_first):
        after[target] += bin_weights[bin_rank]
        moved += int(np.count_nonzero(origins[bins[bin_rank]] != target))
    return RebalanceEstimate(
        num_replicas=int(num_replicas),
        makespan_before=makespan_before,
        makespan_after=float(after.max()),
        moved_streams=moved,
        move_seconds=moved * MOVE_STREAM_SECONDS,
    )


def router_throughput_scaling(
    num_replicas: int,
    *,
    route_hit_rate: float,
    shared_prefill_fraction: float,
) -> float:
    """Modelled aggregate tokens/second of N replicas relative to one.

    Capacity scales linearly with ``num_replicas``; prefix reuse does not.
    A routed-away stream (probability ``1 - route_hit_rate`` for streams
    carrying a shared prefix) re-pays the ``shared_prefill_fraction`` of its
    tokens a warm replica would have served from shared blocks, inflating
    per-stream work by that amount:

    ``scaling = N / (1 + (1 - h) · s)``

    At ``h = 1`` (perfect affinity) or ``s = 0`` (nothing shared) the
    scaling is exactly ``N``; at ``h = 0, s = 0.9`` four replicas deliver
    only ``4 / 1.9 ≈ 2.1x``.
    """
    require(num_replicas >= 1, "num_replicas must be >= 1")
    require(0.0 <= route_hit_rate <= 1.0, "route_hit_rate must lie in [0, 1]")
    require(
        0.0 <= shared_prefill_fraction <= 1.0,
        "shared_prefill_fraction must lie in [0, 1]",
    )
    inflation = 1.0 + (1.0 - route_hit_rate) * shared_prefill_fraction
    return num_replicas / inflation


__all__ = [
    "FINGERPRINT_BANDWIDTH",
    "MOVE_STREAM_SECONDS",
    "ROUTE_LOOKUP_SECONDS",
    "RebalanceEstimate",
    "RoutingCostEstimate",
    "balanced_makespan",
    "fingerprint_seconds",
    "rebalance_gain",
    "router_throughput_scaling",
    "routing_cost",
]
