"""Multi-replica serving: prefix-affinity placement over scheduler replicas.

One :class:`~repro.serve.loop.ContinuousBatchingScheduler` owns one block
pool, so a single process caps out at one pool's worth of streams.  This
module is the placement layer above that ceiling: a :class:`ReplicaRouter`
fronts N worker replicas — each a private
:class:`~repro.serve.scheduler.AttentionServer` + paged
:class:`~repro.serve.paging.BlockPool` + scheduler + swap store — and decides
*where* every stream runs while the replicas decide *when*.  It places and
does nothing else, so a routed stream is bit-identical to the same stream on
one replica.

Routing is prefix-affine: the router computes the prompt's chained block
fingerprints with :func:`~repro.serve.paging.prefix_fingerprints` (the exact
chain any replica's pool registers while prefilling those rows) and sends a
request whose deepest fingerprint is already mapped to the replica that holds
those warm blocks, so shared prompts pay their prefill once per replica
instead of once per stream.  When no prefix matches, the fallback is
load-based: least-loaded by default, or Kaczmarz-flavoured norm-weighted
sampling (probability inversely proportional to current load — the same
motif as :class:`~repro.serve.loop.WeightedFairPolicy`), or plain
round-robin.

Under skewed load (one hot prefix family pinning one replica), the router
rebalances: it withdraws still-waiting streams via
:meth:`~repro.serve.loop.ContinuousBatchingScheduler.withdraw` and re-places
them along :func:`~repro.distributed.balanced_worker_bins` (greedy LPT over
pending-token costs), pairing the heaviest bin with the lightest replica.
Moving a stream that never ran cannot change its output, so rebalancing
preserves bit-exactness by construction.

Every replica's pool has one layout, so :func:`~repro.serve.loop.check_request`
refuses a request before any placement state changes: one laid out unlike
the pools raises :exc:`ValueError`, and one larger than a replica's pool
raises :exc:`~repro.serve.loop.InfeasibleRequest`.

Ids: the replicas' servers draw request ids from one counter the router
owns, and the replicas' loops write into the router's :attr:`results` and
:attr:`telemetry` maps.  A stream's id is therefore the one its replica
assigned, unique across the router, and it survives a rebalance move; every
report and every trace span carries that one id.

A router of one replica is its loop: it computes no fingerprints (each
placement counts as a miss), never rebalances, exports no per-replica load
gauges (the rebalancer's signal), keeps nothing per stream, and hands the
loop the clock itself, leaving the ticking to it.  Whoever steps
that loop directly (the async edge, a closed-loop driver) sees the same
streams, results and time as the router does.  With more replicas, all of
them share one injected clock, ticked once per router step (replicas run
"concurrently" in virtual time), and each replica's scheduler is fully
deterministic given its policy seed.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.partition_balance import balanced_worker_bins
from repro.obs.recorder import Observability, default_observability
from repro.serve.loop import (
    ContinuousBatchingScheduler,
    LoopRequest,
    LoopStatsSnapshot,
    RequestTelemetry,
    SchedulingPolicy,
    check_request,
    drain,
    resolve_serving_kwargs,
    scheduling_policy,
)
from repro.serve.paging import DEFAULT_BLOCK_SIZE, SwapStore, prefix_fingerprints
from repro.serve.quant import resolve_storage
from repro.serve.scheduler import AttentionServer
from repro.utils.dtypes import resolve_dtype
from repro.utils.validation import require

#: Routing policies: ``affinity`` (prefix hit, else least-loaded),
#: ``weighted`` (prefix hit, else norm-weighted sampling by inverse load),
#: ``round_robin`` (ignore prefixes — the affinity-off baseline).
ROUTER_POLICIES = ("affinity", "weighted", "round_robin")

#: Fingerprint -> replica entries the affinity map retains (LRU).
DEFAULT_AFFINITY_CAPACITY = 4096

#: Skew trigger: a rebalance pass moves streams only when the busiest
#: replica's pending tokens exceed this multiple of the mean.
REBALANCE_THRESHOLD = 1.5


class _ReplicaClock:
    """A replica's view of the shared clock: reads pass through, ticks don't.

    Every replica scheduler calls ``clock.tick()`` at the end of its own
    ``step()``; with N replicas sharing one :class:`VirtualClock` that would
    advance N iteration-seconds per router step.  Replicas run concurrently,
    so the router ticks the base clock exactly once per step and the
    replicas' ticks are swallowed here.  A router of one has nothing to
    swallow: its loop gets the clock itself.
    """

    def __init__(self, base) -> None:
        self._base = base

    def now(self) -> float:
        return self._base.now()

    def tick(self) -> None:  # the router owns the real tick
        return None


@dataclass
class ReplicaHandle:
    """One worker replica: its server, scheduler and swap store."""

    index: int
    server: AttentionServer
    scheduler: ContinuousBatchingScheduler
    swap_store: SwapStore

    @property
    def pool(self):
        return self.server.block_pool

    @property
    def active(self) -> int:
        return self.scheduler.active


@dataclass
class RouterStats:
    """Lifetime counters of one router (placement decisions, not tokens)."""

    routed: int = 0
    route_hits: int = 0
    route_misses: int = 0
    rebalance_passes: int = 0
    moved_streams: int = 0
    cancelled: int = 0

    @property
    def route_hit_rate(self) -> float:
        decisions = self.route_hits + self.route_misses
        return self.route_hits / decisions if decisions else 0.0


@dataclass(frozen=True)
class RebalanceRecord:
    """What one rebalance pass saw and decided (for telemetry cross-checks).

    ``bins`` is the raw :func:`~repro.distributed.balanced_worker_bins`
    output over ``costs``; ``replica_order`` maps bin rank (heaviest first)
    to the replica it was assigned (lightest base load first).
    """

    loads: np.ndarray
    costs: np.ndarray
    bins: Tuple[np.ndarray, ...]
    replica_order: Tuple[int, ...]
    moved: int


@dataclass
class RouterReport:
    """What one :meth:`ReplicaRouter.step` accomplished, across replicas."""

    step: int
    admitted: List[int] = field(default_factory=list)
    finished: List[int] = field(default_factory=list)
    preempted: List[int] = field(default_factory=list)
    tokens: int = 0
    moved: int = 0


@dataclass
class _Placement:
    """Router-private record of where one unfinished stream lives."""

    replica: int
    fingerprints: List[str]


def aggregate_loop_stats(snapshots: Sequence[LoopStatsSnapshot]) -> LoopStatsSnapshot:
    """Sum per-replica loop snapshots into one cluster-wide snapshot.

    Every counter adds.  The result is what the router-level invariants
    (registry == summed stats) compare against.
    """
    require(len(snapshots) >= 1, "need at least one snapshot to aggregate")
    return LoopStatsSnapshot(
        **{
            spec.name: sum(getattr(snap, spec.name) for snap in snapshots)
            for spec in fields(LoopStatsSnapshot)
        }
    )


class ReplicaRouter:
    """Fan streams out to N scheduler replicas by prompt-prefix affinity.

    Parameters
    ----------
    num_replicas:
        Worker replicas to build.  Each gets a private server, pool (sized
        ``num_blocks`` *per replica*) and swap store.
    key_dim, value_dim, num_blocks, block_size, batch_shape, pool_dtype,
    storage:
        Per-replica block-pool geometry (same meaning as
        :meth:`AttentionServer.create_block_pool`).
    policy, policy_seed:
        Scheduling policy name for the replica loops; replica ``i`` seeds
        its policy at ``policy_seed + i`` so weighted sampling streams stay
        independent.  One replica also takes a
        :class:`~repro.serve.loop.SchedulingPolicy` instance: an instance
        can serve one loop, not several.
    router_policy:
        Placement policy (see :data:`ROUTER_POLICIES`); the weighted
        fallback draws from a generator seeded at 0.
    clock, obs:
        Shared clock and observability recorder, threaded through every
        replica.  One replica's loop ticks the clock itself; more replicas
        see a view whose ticks the router replaces with one per step.
        ``obs`` defaults to
        :func:`~repro.obs.recorder.default_observability`, as a server's
        does.
    max_streams, prefill_chunk, max_iteration_tokens, preemption:
        Forwarded to each replica's scheduler.
    rebalance_interval:
        With more than one replica, run :meth:`rebalance` every this many
        steps (0 disables the automatic trigger; manual calls always work).
    """

    def __init__(
        self,
        num_replicas: int,
        *,
        key_dim: int,
        value_dim: Optional[int] = None,
        num_blocks: int = 64,
        block_size: int = DEFAULT_BLOCK_SIZE,
        batch_shape: Tuple[int, ...] = (),
        pool_dtype=np.float32,
        storage: Optional[str] = None,
        policy="fcfs",
        policy_seed: int = 0,
        router_policy: str = "affinity",
        clock=None,
        obs: Optional[Observability] = None,
        max_streams: int = 8,
        prefill_chunk: int = 32,
        max_iteration_tokens: Optional[int] = None,
        preemption: str = "swap",
        rebalance_interval: int = 8,
        name: str = "router",
    ) -> None:
        require(num_replicas >= 1, "need at least one replica")
        require(
            router_policy in ROUTER_POLICIES,
            f"unknown router policy {router_policy!r}; valid: {ROUTER_POLICIES}",
        )
        require(
            num_replicas == 1 or not isinstance(policy, SchedulingPolicy),
            "a policy instance can serve one loop; pass a registry name for "
            "more than one replica",
        )
        require(rebalance_interval >= 0, "rebalance_interval must be >= 0")
        self.num_replicas = int(num_replicas)
        self.name = name
        _, self.clock, self.obs = resolve_serving_kwargs(
            clock=clock, obs=obs, default_obs=default_observability()
        )
        self.block_size = int(block_size)
        self.pool_dtype = resolve_dtype(pool_dtype)
        self.storage = resolve_storage(storage, self.pool_dtype)
        self.router_policy = router_policy
        self.rebalance_interval = int(rebalance_interval)
        self._rng = np.random.default_rng(0)
        self._round_robin = 0
        # every replica's server draws from this counter, and every replica's
        # loop writes into these maps: ids are unique across the router
        self._ids = itertools.count()
        self.results: Dict[int, np.ndarray] = {}
        self.telemetry: Dict[int, RequestTelemetry] = {}

        replica_clock = self.clock if self.num_replicas == 1 else _ReplicaClock(self.clock)
        self.replicas: List[ReplicaHandle] = []
        for index in range(self.num_replicas):
            server = AttentionServer(obs=self.obs)
            server.create_block_pool(
                key_dim=key_dim,
                value_dim=value_dim,
                batch_shape=batch_shape,
                dtype=pool_dtype,
                storage=self.storage,
                num_blocks=num_blocks,
                block_size=block_size,
                name=f"{name}-replica{index}",
            )
            server._ids = self._ids
            swap_store = SwapStore()
            scheduler = ContinuousBatchingScheduler(
                server,
                policy=scheduling_policy(policy, seed=policy_seed + index),
                clock=replica_clock,
                max_streams=max_streams,
                prefill_chunk=prefill_chunk,
                max_iteration_tokens=max_iteration_tokens,
                preemption=preemption,
                swap_store=swap_store,
                obs=self.obs,
            )
            scheduler.results = self.results
            scheduler.telemetry = self.telemetry
            self.replicas.append(
                ReplicaHandle(
                    index=index, server=server, scheduler=scheduler, swap_store=swap_store
                )
            )

        self.stats = RouterStats()
        self.last_rebalance: Optional[RebalanceRecord] = None
        self._placements: Dict[int, _Placement] = {}
        self._affinity: "OrderedDict[str, int]" = OrderedDict()
        self._steps = 0
        if self.obs.enabled:
            self._obs_hit = self.obs.router_routes.labels(outcome="hit")
            self._obs_miss = self.obs.router_routes.labels(outcome="miss")

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #
    def submit(self, request: LoopRequest) -> int:
        """Place one stream on a replica; returns its id.

        :func:`~repro.serve.loop.check_request` refuses a request no replica
        could serve before any placement state changes (a router of one
        leaves that to its loop's ``submit``).  The id is the one the
        replica's loop assigned from the router's counter: :attr:`results`,
        :attr:`telemetry`, the replicas' iteration reports and the trace
        spans all carry it.
        """
        if self.num_replicas == 1:
            rid, hit = self.replicas[0].scheduler.submit(request), False
        else:
            check_request(request, self.replicas[0].pool)
            prompt = request.prompt_tokens
            fingerprints = prefix_fingerprints(
                request.k[..., :prompt, :],
                request.v[..., :prompt, :],
                block_size=self.block_size,
                storage=self.storage,
                dtype=self.pool_dtype,
            )
            replica_index, hit = self._route(fingerprints)
            rid = self.replicas[replica_index].scheduler.submit(request)
            self._placements[rid] = _Placement(replica=replica_index, fingerprints=fingerprints)
            self._remember(fingerprints, replica_index)
        self.stats.routed += 1
        if hit:
            self.stats.route_hits += 1
        else:
            self.stats.route_misses += 1
        if self.obs.enabled:
            (self._obs_hit if hit else self._obs_miss).inc()
            if self.num_replicas > 1:
                self._update_replica_gauges()
        return rid

    def submit_many(self, requests: Sequence[LoopRequest]) -> List[int]:
        return [self.submit(request) for request in requests]

    def _route(self, fingerprints: Sequence[str]) -> Tuple[int, bool]:
        """Pick a replica: deepest warm prefix wins, else the fallback policy."""
        if self.router_policy != "round_robin":
            for fingerprint in reversed(fingerprints):
                replica = self._affinity.get(fingerprint)
                if replica is not None:
                    self._affinity.move_to_end(fingerprint)
                    return replica, True
        if self.router_policy == "round_robin":
            index = self._round_robin
            self._round_robin = (self._round_robin + 1) % self.num_replicas
            return index, False
        loads = np.array(
            [handle.scheduler.active for handle in self.replicas], dtype=np.float64
        )
        if self.router_policy == "weighted":
            # norm-weighted sampling, the Kaczmarz motif: a replica's pick
            # probability is inversely proportional to its current load
            weights = 1.0 / (1.0 + loads)
            index = int(self._rng.choice(self.num_replicas, p=weights / weights.sum()))
            return index, False
        return int(np.lexsort((np.arange(self.num_replicas), loads))[0]), False

    def _remember(self, fingerprints: Sequence[str], replica: int) -> None:
        for fingerprint in fingerprints:
            self._affinity[fingerprint] = replica
            self._affinity.move_to_end(fingerprint)
        while len(self._affinity) > DEFAULT_AFFINITY_CAPACITY:
            self._affinity.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self) -> RouterReport:
        """Advance every busy replica one iteration; finished streams'
        placements go.

        With more than one replica the router also rebalances every
        ``rebalance_interval`` steps, ticks the shared clock once, since the
        replicas run concurrently in virtual time, and sets the per-replica
        load gauges; one replica's loop ticks the clock itself.
        """
        self._steps += 1
        report = RouterReport(step=self._steps)
        placing = self.num_replicas > 1
        if placing and self.rebalance_interval and self._steps % self.rebalance_interval == 0:
            report.moved = self.rebalance()
        for handle in self.replicas:
            if not handle.scheduler.active:
                continue
            replica_report = handle.scheduler.step()
            report.tokens += replica_report.tokens
            report.admitted.extend(replica_report.admitted)
            report.finished.extend(replica_report.finished)
            report.preempted.extend(replica_report.preempted)
        for rid in report.finished:
            self._placements.pop(rid, None)
        if placing:
            self.clock.tick()
            if self.obs.enabled:
                self._update_replica_gauges()
        return report

    def run(self, *, max_iterations: Optional[int] = None) -> Dict[int, np.ndarray]:
        """Step until every placed stream finishes; returns :attr:`results`
        (see :func:`~repro.serve.loop.drain`)."""
        return drain(self, max_iterations=max_iterations)

    def cancel(self, rid: int) -> bool:
        """Cancel a stream mid-flight; ``False`` for finished or unknown ids."""
        if not any(handle.scheduler.cancel(rid) for handle in self.replicas):
            return False
        self._placements.pop(rid, None)
        self.stats.cancelled += 1
        return True

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #
    def rebalance(self) -> int:
        """Re-place still-waiting streams when replica loads skew; returns moves.

        Only streams :meth:`ContinuousBatchingScheduler.withdraw` accepts —
        waiting, never activated, nothing emitted — are movable, so a move
        is pure bookkeeping: the stream's bits are untouched.  Target bins
        come from :func:`~repro.distributed.balanced_worker_bins` over the
        movable streams' total-token costs; the heaviest bin lands on the
        replica with the lightest immovable (running/preempted) load.
        """
        loads = np.array(
            [handle.scheduler.pending_tokens for handle in self.replicas],
            dtype=np.float64,
        )
        self.stats.rebalance_passes += 1
        if self.obs.enabled:
            self.obs.router_rebalances.inc()
        mean = loads.mean()
        if mean <= 0 or loads.max() <= REBALANCE_THRESHOLD * mean:
            return 0
        movable: List[Tuple[int, int, int]] = []  # (replica, id, cost)
        for handle in self.replicas:
            for rid in handle.scheduler.withdrawable():
                cost = handle.scheduler.telemetry[rid].total_tokens
                movable.append((handle.index, rid, cost))
        if not movable:
            return 0
        costs = np.array([cost for _, _, cost in movable], dtype=np.float64)
        base = loads - np.bincount(
            [replica for replica, _, _ in movable],
            weights=costs,
            minlength=self.num_replicas,
        )
        bins = balanced_worker_bins(costs, self.num_replicas)
        bin_weights = np.array([costs[indices].sum() for indices in bins])
        heavy_first = np.argsort(-bin_weights, kind="stable")
        light_first = np.lexsort((np.arange(self.num_replicas), base))
        span = None
        if self.obs.enabled and self.obs.trace is not None:
            span = self.obs.trace.start_span(
                "rebalance", self.clock.now(), loads=loads.tolist()
            )
        moved = 0
        replica_order: List[int] = []
        for bin_rank, target in zip(heavy_first, light_first):
            replica_order.append(int(target))
            for item in bins[bin_rank]:
                source, rid, _ = movable[item]
                if source == target:
                    continue
                request = self.replicas[source].scheduler.withdraw(rid)
                if request is None:  # raced a natural activation; leave it
                    continue
                scheduler = self.replicas[target].scheduler
                scheduler._enqueue(request)  # the stream keeps its id
                placement = self._placements[rid]
                placement.replica = int(target)
                self._remember(placement.fingerprints, int(target))
                moved += 1
        self.stats.moved_streams += moved
        self.last_rebalance = RebalanceRecord(
            loads=loads,
            costs=costs,
            bins=tuple(bins),
            replica_order=tuple(replica_order),
            moved=moved,
        )
        obs = self.obs
        if obs.enabled:
            if moved:
                obs.router_moved_streams.inc(moved)
            if obs.trace is not None and span is not None:
                obs.trace.end_span(span, self.clock.now(), moved=moved)
        return moved

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> int:
        """Streams placed but not yet finished, across all replicas."""
        return sum(handle.scheduler.active for handle in self.replicas)

    @property
    def iterations(self) -> int:
        """Router steps taken (each advances every busy replica once)."""
        return self._steps

    def loop_stats(self) -> LoopStatsSnapshot:
        """Cluster-wide loop counters: the sum of every replica's snapshot."""
        return aggregate_loop_stats(
            [handle.scheduler.stats.snapshot() for handle in self.replicas]
        )

    def replica_loads(self) -> np.ndarray:
        """Pending tokens per replica (the rebalance load signal)."""
        return np.array(
            [handle.scheduler.pending_tokens for handle in self.replicas],
            dtype=np.int64,
        )

    def _update_replica_gauges(self) -> None:
        obs = self.obs
        for handle in self.replicas:
            label = str(handle.index)
            obs.router_replica_streams.labels(replica=label).set(
                handle.scheduler.active
            )
            obs.router_replica_tokens.labels(replica=label).set(
                handle.scheduler.pending_tokens
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for handle in self.replicas:
            handle.server.close()

    def __enter__(self) -> "ReplicaRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "DEFAULT_AFFINITY_CAPACITY",
    "REBALANCE_THRESHOLD",
    "ROUTER_POLICIES",
    "RebalanceRecord",
    "ReplicaHandle",
    "ReplicaRouter",
    "RouterReport",
    "RouterStats",
    "aggregate_loop_stats",
]
