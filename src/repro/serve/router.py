"""Multi-replica serving: prefix-affinity routing over scheduler replicas.

One :class:`~repro.serve.loop.ContinuousBatchingScheduler` owns one block
pool, so a single process caps out at one pool's worth of streams.  This
module is the placement layer above that ceiling: a :class:`ReplicaRouter`
fronts N worker replicas — each a private
:class:`~repro.serve.scheduler.AttentionServer` + paged
:class:`~repro.serve.paging.BlockPool` + scheduler + swap store — and decides
*where* every stream runs while the replicas decide *when*.

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

Two more `repro.distributed` wires complete the layer:

* **Rebalancing** — under skewed load (one hot prefix family pinning one
  replica), the router withdraws still-waiting streams via
  :meth:`~repro.serve.loop.ContinuousBatchingScheduler.withdraw` and
  re-places them along :func:`~repro.distributed.balanced_worker_bins`
  (greedy LPT over pending-token costs), pairing the heaviest bin with the
  lightest replica.  Moving a stream that never ran cannot change its
  output, so rebalancing preserves bit-exactness by construction.
* **Sharded execution** — a single request too large for any one replica's
  pool runs through :func:`~repro.distributed.kv_parallel_attention` on a
  :class:`~repro.distributed.SimulatedWorld` spanning the replicas: K/V rows
  scatter, Q broadcasts, and per-replica partial online-softmax states merge
  at the root.  Communication volume lands in :attr:`ReplicaRouter.comm_stats`.

Ids: the replicas' servers draw request ids from one counter the router
owns, so a stream's id is the one its replica assigned, unique across the
router, and it survives a rebalance move.  :attr:`ReplicaRouter.results`,
:attr:`ReplicaRouter.telemetry`, every report and every trace span carry
that one id.  A router of one replica is therefore one loop that numbers
streams the way a bare :class:`~repro.serve.loop.ContinuousBatchingScheduler`
does.

Determinism: all replicas share one injected clock, ticked once per router
step (replicas run "concurrently" in virtual time), and each replica's
scheduler is fully deterministic given its policy seed.  ``threaded=True``
steps replicas on a thread pool — outputs are unchanged because replicas
share no mutable state beyond the id counter and the thread-safe metrics
registry.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.comm import CommunicationStats, SimulatedWorld
from repro.distributed.partition_balance import balanced_worker_bins
from repro.distributed.sequence_parallel import kv_parallel_attention
from repro.obs.recorder import Observability
from repro.perfmodel.decode import blocks_for_tokens
from repro.serve.decode import decode_reference_mask
from repro.serve.loop import (
    ContinuousBatchingScheduler,
    InfeasibleRequest,
    LoopRequest,
    LoopStatsSnapshot,
    RequestTelemetry,
    SchedulingPolicy,
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
    replicas' ticks are swallowed here.
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
    sharded_requests: int = 0
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
        Shared clock (ticked once per router step) and observability
        recorder, threaded through every replica.
    max_streams, prefill_chunk, max_iteration_tokens, preemption:
        Forwarded to each replica's scheduler.
    rebalance_interval:
        Run :meth:`rebalance` every this many steps (0 disables the
        automatic trigger; manual calls always work).
    threaded:
        Step replicas concurrently on a thread pool (outputs unchanged).
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
        threaded: bool = False,
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
        _, self.clock, self.obs = resolve_serving_kwargs(clock=clock, obs=obs)
        self.block_size = int(block_size)
        self.pool_blocks_per_replica = int(num_blocks)
        self.pool_dtype = resolve_dtype(pool_dtype)
        self.storage = resolve_storage(storage, self.pool_dtype)
        self.router_policy = router_policy
        self.rebalance_interval = int(rebalance_interval)
        self._rng = np.random.default_rng(0)
        self._round_robin = 0
        # every replica's server draws from this counter; next() on it is one
        # C call, atomic under the GIL, so threaded replicas can share it
        self._ids = itertools.count()

        replica_clock = _ReplicaClock(self.clock)
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
            self.replicas.append(
                ReplicaHandle(
                    index=index, server=server, scheduler=scheduler, swap_store=swap_store
                )
            )

        self.stats = RouterStats()
        self.comm_stats = CommunicationStats()
        self.last_rebalance: Optional[RebalanceRecord] = None
        self.results: Dict[int, np.ndarray] = {}
        self.telemetry: Dict[int, RequestTelemetry] = {}
        self._placements: Dict[int, _Placement] = {}
        self._affinity: "OrderedDict[str, int]" = OrderedDict()
        self._steps = 0
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=self.num_replicas, thread_name_prefix=f"{name}-replica"
            )
            if threaded and self.num_replicas > 1
            else None
        )
        if self.obs.enabled:
            self._obs_hit = self.obs.router_routes.labels(outcome="hit")
            self._obs_miss = self.obs.router_routes.labels(outcome="miss")
            self._obs_sharded = self.obs.router_routes.labels(outcome="sharded")

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #
    def submit(self, request: LoopRequest) -> int:
        """Place one stream on a replica (or shard it); returns its id.

        The id is the one the replica's loop assigned from the router's
        counter: :attr:`results`, :attr:`telemetry`, the replicas' iteration
        reports and the trace spans all carry it.
        """
        require(
            request.request_id is None,
            "the router assigns request ids at submit; leave request_id unset",
        )
        needed = blocks_for_tokens(request.total_tokens, self.block_size)
        if needed > self.pool_blocks_per_replica:
            if request.batch_shape == () and request.decode_tokens == 0:
                return self._submit_sharded(request)
            raise InfeasibleRequest(
                f"stream of {request.total_tokens} tokens needs {needed} KV "
                f"blocks but each replica pool holds only "
                f"{self.pool_blocks_per_replica} blocks of {self.block_size} "
                f"tokens (sharded execution covers 2-D prompt-only requests)"
            )
        prompt = request.prompt_tokens
        fingerprints = prefix_fingerprints(
            request.k[..., :prompt, :],
            request.v[..., :prompt, :],
            block_size=self.block_size,
            storage=self.storage,
            dtype=self.pool_dtype,
        )
        replica_index, hit = self._route(fingerprints)
        replica = self.replicas[replica_index]
        rid = replica.scheduler.submit(request)
        self._placements[rid] = _Placement(replica=replica_index, fingerprints=fingerprints)
        self.telemetry[rid] = replica.scheduler.telemetry[rid]
        self._remember(fingerprints, replica_index)
        self.stats.routed += 1
        if hit:
            self.stats.route_hits += 1
        else:
            self.stats.route_misses += 1
        if self.obs.enabled:
            (self._obs_hit if hit else self._obs_miss).inc()
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
    # Sharded execution of oversized requests
    # ------------------------------------------------------------------ #
    def _submit_sharded(self, request: LoopRequest) -> int:
        """Run one oversized prompt across all replicas, synchronously.

        The context is what exceeds a single pool, so the context is what
        shards: K/V rows scatter over a :class:`SimulatedWorld` spanning the
        replicas and the per-replica partial online-softmax states merge at
        the router.  The finished output lands in :attr:`results`
        immediately (equal to the one-shot kernel up to float
        reassociation — sharded requests are the one path that is *not*
        bit-identical to a single-replica run, and the differential suite
        checks it at float tolerance instead).
        """
        rid = next(self._ids)
        length = request.total_tokens
        world = SimulatedWorld(self.num_replicas)
        result = kv_parallel_attention(
            request.q,
            request.k,
            request.v,
            decode_reference_mask(request.mask, length),
            num_ranks=self.num_replicas,
            world=world,
        )
        now = self.clock.now()
        telemetry = RequestTelemetry(
            request_id=rid,
            priority=request.priority,
            prompt_tokens=request.prompt_tokens,
            total_tokens=length,
            arrival_time=now,
            tenant=request.tenant,
        )
        telemetry.first_scheduled_time = now
        telemetry.first_token_time = now
        telemetry.finish_time = now
        telemetry.tokens_emitted = length
        self.results[rid] = result.output
        self.telemetry[rid] = telemetry
        self.stats.sharded_requests += 1
        self.comm_stats = self.comm_stats.merge(world.stats)
        obs = self.obs
        if obs.enabled:
            self._obs_sharded.inc()
            obs.router_comm_bytes.inc(world.stats.bytes_moved)
            if obs.trace is not None:
                obs.trace.event(
                    "sharded",
                    now,
                    request_id=rid,
                    tokens=length,
                    ranks=self.num_replicas,
                    bytes_moved=world.stats.bytes_moved,
                )
        return rid

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self) -> RouterReport:
        """Advance every busy replica one iteration (concurrently in virtual
        time); harvest finished outputs; tick the shared clock once."""
        self._steps += 1
        report = RouterReport(step=self._steps)
        if self.rebalance_interval and self._steps % self.rebalance_interval == 0:
            report.moved = self.rebalance()
        busy = [handle for handle in self.replicas if handle.scheduler.active]
        if self._executor is not None and len(busy) > 1:
            replica_reports = list(
                self._executor.map(lambda handle: handle.scheduler.step(), busy)
            )
        else:
            replica_reports = [handle.scheduler.step() for handle in busy]
        for replica_report in replica_reports:
            report.tokens += replica_report.tokens
            report.admitted.extend(replica_report.admitted)
            report.finished.extend(replica_report.finished)
            report.preempted.extend(replica_report.preempted)
        self._harvest()
        self.clock.tick()
        if self.obs.enabled:
            self._update_replica_gauges()
        return report

    def run(self, *, max_iterations: Optional[int] = None) -> Dict[int, np.ndarray]:
        """Step until every placed stream finishes; returns :attr:`results`
        (see :func:`~repro.serve.loop.drain`)."""
        return drain(self, max_iterations=max_iterations)

    def _harvest(self) -> None:
        """Move finished outputs into :attr:`results`; their placements go."""
        for handle in self.replicas:
            finished = handle.scheduler.results
            for rid in finished:
                del self._placements[rid]
            self.results.update(finished)
            finished.clear()

    def cancel(self, rid: int) -> bool:
        """Cancel a routed stream mid-flight; ``False`` for finished,
        sharded or unknown ids."""
        placement = self._placements.get(rid)
        if placement is None or not self.replicas[placement.replica].scheduler.cancel(rid):
            return False
        del self._placements[rid]
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
                self.telemetry[rid] = scheduler.telemetry[rid]
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
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
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
