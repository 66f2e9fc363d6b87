"""Iteration-level continuous batching: the preemptive serving loop.

Everything below the serving front-end is *caller-driven*: clients assemble
``decode_steps`` batches themselves, and an admitted long session holds its
blocks until it finishes, so short requests queue behind it.  This module is
the missing control plane — a :class:`ContinuousBatchingScheduler` that owns
the request lifecycle end to end, in the shape the iteration-level serving
systems (Orca's iteration scheduling, vLLM's preemptive paged serving) gave
the field:

1. **Admission** — queued :class:`LoopRequest`\\ s open paged decode sessions
   through the PR-4 block-table admission path (blocks prereserved, or the
   request keeps waiting), in the order a pluggable
   :class:`SchedulingPolicy` dictates.
2. **Batch formation** — each iteration mixes *prefill chunks* (at most
   ``prefill_chunk`` prompt tokens per stream per iteration, so a long
   prompt cannot monopolize an iteration) with one *decode step* per
   generating stream; each kind of work runs as one ragged kernel pass,
   whatever the streams' masks, horizons and positions
   (:meth:`~repro.serve.scheduler.AttentionServer.prefill_chunks` /
   :meth:`~repro.serve.scheduler.AttentionServer.decode_steps`).
3. **Preemption** — when a pass's atomic block reservation fails with
   :exc:`~repro.serve.paging.PoolExhausted`, a policy-chosen victim is
   evicted: either *swap-out* (its registered blocks park in the pool's warm
   LRU while the live K/V serialize to a host-side
   :class:`~repro.serve.paging.SwapStore`, restored on resume — usually by
   re-sharing the very blocks it parked) or *recompute-from-prompt* (store
   nothing, replay the causal prefill on resume), as the loop's
   ``preemption`` mode says.
4. **Policy** — :class:`FCFSPolicy`, :class:`PriorityPolicy`, or
   :class:`WeightedFairPolicy`: the last orders streams by
   priority-weighted sampling without replacement (one vectorised draw), the
   way the stochastic Kaczmarz literature picks the next row by
   norm-weighted sampling — every positive-weight participant is sampled
   eventually, so no stream starves.

The loop is driven through an injected clock: production threads a
:class:`WallClock`; tests tick a :class:`VirtualClock`, which makes queueing
delays, fairness ratios and starvation bounds exactly reproducible with no
wall-clock flakiness (``tests/harness/simulation.py`` builds a whole
deterministic workload driver on top of it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import MaskInput
from repro.obs.recorder import NULL_OBS, Observability
from repro.obs.tracing import Span
from repro.perfmodel.decode import blocks_for_tokens
from repro.serve.decode import DecodeSession
from repro.serve.paging import PagedKVCache, PoolExhausted, SwapStore
from repro.utils.rng import default_rng
from repro.utils.validation import check_real_finite, require


class InfeasibleRequest(RuntimeError):
    """A stream needs more KV blocks than the pool could ever provide."""


# --------------------------------------------------------------------------- #
# Clocks
# --------------------------------------------------------------------------- #
class WallClock:
    """Production clock: reads the host monotonic timer; ``tick`` is a no-op."""

    def now(self) -> float:
        return time.monotonic()

    def tick(self) -> None:
        """Wall time advances by itself."""


class VirtualClock:
    """Simulation clock: time moves only when the harness advances it.

    The scheduler calls :meth:`tick` once per iteration (advancing
    ``iteration_seconds``); workload drivers call :meth:`advance` to skip
    idle gaps between arrivals.  Every queueing/fairness number derived from
    this clock is exactly reproducible.
    """

    def __init__(self, *, start: float = 0.0, iteration_seconds: float = 1.0) -> None:
        require(iteration_seconds >= 0.0, "iteration_seconds must be non-negative")
        self._now = float(start)
        self.iteration_seconds = float(iteration_seconds)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        require(seconds >= 0.0, "time cannot move backwards")
        self._now += float(seconds)

    def tick(self) -> None:
        self.advance(self.iteration_seconds)


# --------------------------------------------------------------------------- #
# Requests and telemetry
# --------------------------------------------------------------------------- #
@dataclass(eq=False)
class LoopRequest:
    """One end-to-end stream for the loop: prompt plus tokens to generate.

    ``q``/``k``/``v`` are the full stream tensors ``batch_shape + (T, d)``
    (the attention-only analogue of prompt + generated token embeddings),
    real floating point and finite: the first ``prompt_tokens`` rows are the
    prompt the scheduler prefills in chunks, the remaining
    ``T - prompt_tokens`` rows feed one decode step each.  ``priority``
    weighs the request under priority/weighted-fair policies (higher = more
    urgent; must be positive).  ``tenant`` names the principal the request
    bills to (the serving edge keys quotas, rate limits, and SLO-attainment
    metrics on it).  ``slo_latency_seconds`` is an
    optional end-to-end deadline measured from submit on the scheduler's
    clock: :class:`SlackPolicy` schedules by the remaining budget, and
    :class:`RequestTelemetry` records whether it was attained.
    ``request_id`` is assigned by the scheduler at submit (ids double as
    swap-store keys, so they come from one collision-free counter).
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    mask: MaskInput = None
    prompt_tokens: int = 1
    priority: float = 1.0
    tenant: Optional[str] = None
    slo_latency_seconds: Optional[float] = None
    request_id: Optional[int] = None

    def __post_init__(self) -> None:
        self.q, self.k, self.v = np.asarray(self.q), np.asarray(self.k), np.asarray(self.v)
        require(self.q.ndim >= 2, "q must be a (..., T, d_k) array")
        require(self.k.shape == self.q.shape, "q and k must have matching shapes")
        require(
            self.v.shape[:-1] == self.q.shape[:-1],
            "v must cover the same batch axes and rows as q",
        )
        require(self.total_tokens >= 1, "a request needs at least one token")
        require(
            0 <= self.prompt_tokens <= self.total_tokens,
            "prompt_tokens must lie within the stream",
        )
        require(self.priority > 0, "priority must be positive")
        require(
            self.tenant is None or (isinstance(self.tenant, str) and self.tenant),
            "tenant must be a non-empty string when given",
        )
        if self.slo_latency_seconds is not None:
            self.slo_latency_seconds = float(self.slo_latency_seconds)
            require(self.slo_latency_seconds > 0.0, "slo_latency_seconds must be positive")
        for name in ("q", "k", "v"):
            check_real_finite(getattr(self, name), name)

    @property
    def total_tokens(self) -> int:
        return int(self.q.shape[-2])

    @property
    def decode_tokens(self) -> int:
        return self.total_tokens - self.prompt_tokens

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        return tuple(int(s) for s in self.q.shape[:-2])


@dataclass
class RequestTelemetry:
    """Per-request lifecycle measurements, stamped from the injected clock."""

    request_id: int
    priority: float
    prompt_tokens: int
    total_tokens: int
    arrival_time: float
    #: tenant the request bills to (``None`` for untagged callers)
    tenant: Optional[str] = None
    #: end-to-end deadline budget measured from ``arrival_time`` (``None`` =
    #: best-effort; SLO fields below stay ``None``/unset for these)
    slo_latency_seconds: Optional[float] = None
    first_scheduled_time: Optional[float] = None
    finish_time: Optional[float] = None
    #: clock time the first token *past the prompt* was emitted (for
    #: prompt-only streams: the finish time) — TTFT's numerator
    first_token_time: Optional[float] = None
    #: first-token-to-finish span; 0 until the stream finishes
    decode_seconds: float = 0.0
    #: accumulated seconds spent waiting for admission (initial + re-queues
    #: after preemption) — the starvation tests bound this per policy
    queue_seconds: float = 0.0
    preemptions: int = 0
    swap_outs: int = 0
    swap_ins: int = 0
    recompute_restores: int = 0
    tokens_emitted: int = 0
    iterations_scheduled: int = 0
    #: set at finish for SLO-carrying requests: did turnaround beat the SLO?
    slo_attained: Optional[bool] = None
    #: SLO budget left at finish (negative = missed by that much); ``None``
    #: for best-effort requests or until the stream finishes
    slack_at_finish: Optional[float] = None
    #: the caller abandoned the stream before it finished
    cancelled: bool = False

    @property
    def deadline(self) -> Optional[float]:
        """Absolute clock time the SLO expires (None for best-effort)."""
        if self.slo_latency_seconds is None:
            return None
        return self.arrival_time + self.slo_latency_seconds

    @property
    def time_in_queue(self) -> float:
        return self.queue_seconds

    @property
    def ttft_seconds(self) -> Optional[float]:
        """Submit-to-first-emitted-token latency (None until it happens)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def turnaround_seconds(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time


# stream lifecycle states
_WAITING = "waiting"
_RUNNING = "running"
_FINISHED = "finished"


@dataclass(eq=False)
class _Stream:
    """Scheduler-private state of one submitted request."""

    request: LoopRequest
    telemetry: RequestTelemetry
    waiting_since: float
    session: Optional[DecodeSession] = None
    #: tokens whose outputs are recorded; the cache is always rebuilt to
    #: exactly this position on resume, so no token is lost or duplicated
    emitted: int = 0
    state: str = _WAITING
    #: request id key into the swap store while preempted-with-swap
    swap_key: Optional[int] = None
    outputs: List[np.ndarray] = field(default_factory=list)
    #: lifecycle trace spans (None when tracing is off)
    span: Optional[Span] = None
    queue_span: Optional[Span] = None

    @property
    def prompt_remaining(self) -> int:
        return max(0, self.request.prompt_tokens - self.emitted)

    @property
    def finished(self) -> bool:
        return self.emitted >= self.request.total_tokens


# --------------------------------------------------------------------------- #
# Scheduling policies
# --------------------------------------------------------------------------- #
class SchedulingPolicy:
    """Orders streams for admission/batching and picks preemption victims.

    ``rank`` returns the streams most deserving of service first; the
    default ``victims`` preempts in exactly the opposite order, so the
    stream a policy would serve last is the first to lose its blocks.
    """

    name = "policy"

    def rank(self, streams: Sequence[_Stream], now: float) -> List[_Stream]:
        raise NotImplementedError

    def victims(self, streams: Sequence[_Stream], now: float) -> List[_Stream]:
        return list(reversed(self.rank(streams, now)))


class FCFSPolicy(SchedulingPolicy):
    """First come, first served: strict arrival order."""

    name = "fcfs"

    def rank(self, streams: Sequence[_Stream], now: float) -> List[_Stream]:
        return sorted(
            streams,
            key=lambda s: (s.telemetry.arrival_time, s.telemetry.request_id),
        )


class PriorityPolicy(SchedulingPolicy):
    """Higher ``priority`` first; arrival order breaks ties."""

    name = "priority"

    def rank(self, streams: Sequence[_Stream], now: float) -> List[_Stream]:
        return sorted(
            streams,
            key=lambda s: (
                -s.request.priority,
                s.telemetry.arrival_time,
                s.telemetry.request_id,
            ),
        )


class WeightedFairPolicy(SchedulingPolicy):
    """Priority-weighted sampling without replacement, starvation-free.

    The next stream is drawn with probability proportional to
    ``priority / (1 + tokens_emitted)`` — the row-action idea of the
    stochastic Kaczmarz methods (pick the next row by norm-weighted
    sampling) applied to streams: under-served streams carry growing
    relative weight, so the max/min served-token ratio stays bounded and
    every positive-weight stream is sampled eventually.  Seeded, hence
    deterministic under the virtual clock.
    """

    name = "weighted"

    def __init__(self, seed: int = 0) -> None:
        self._rng = default_rng(seed)

    def rank(self, streams: Sequence[_Stream], now: float) -> List[_Stream]:
        # stable base order first so the sampling is reproducible regardless
        # of the caller's list order
        pool = sorted(
            streams,
            key=lambda s: (s.telemetry.arrival_time, s.telemetry.request_id),
        )
        weights = np.array(
            [s.request.priority / (1.0 + s.telemetry.tokens_emitted) for s in pool],
            dtype=np.float64,
        )
        # Efraimidis-Spirakis: sorting by log(u) / w, descending, draws the
        # whole order at once, distributed exactly as successive
        # weight-proportional picks without replacement (w > 0)
        keys = np.log(self._rng.random(len(pool))) / weights
        return [pool[i] for i in np.argsort(-keys, kind="stable")]


class SlackPolicy(SchedulingPolicy):
    """Least-slack-first deadline scheduling; priority breaks ties.

    A stream's *slack* is the SLO budget it would have left if served at full
    speed from now on: ``deadline - now - remaining_tokens * step_seconds``.
    Ranking by ascending slack is the weighted-Kaczmarz move applied to
    deadlines — serve the stream whose residual (time budget) is most nearly
    violated, the way the adaptive row-sampling methods pick the row with
    the largest residual norm.  Best-effort streams (no SLO) carry infinite
    slack, so they fill leftover capacity and are the first preemption
    victims (the default ``victims`` reversal makes eviction most-slack
    first, i.e. deadline-driven).

    ``step_seconds`` is the assumed per-token service time; the default of
    1.0 matches :class:`VirtualClock`'s one-second iterations, so simulated
    slack is exact.  On a wall clock pass a measured per-token latency.
    """

    name = "slack"

    def __init__(self, *, step_seconds: float = 1.0) -> None:
        require(step_seconds >= 0.0, "step_seconds must be non-negative")
        self.step_seconds = float(step_seconds)

    def slack(self, stream: _Stream, now: float) -> float:
        telemetry = stream.telemetry
        deadline = telemetry.deadline
        if deadline is None:
            return float("inf")
        remaining = telemetry.total_tokens - telemetry.tokens_emitted
        return deadline - now - remaining * self.step_seconds

    def rank(self, streams: Sequence[_Stream], now: float) -> List[_Stream]:
        return sorted(
            streams,
            key=lambda s: (
                self.slack(s, now),
                -s.request.priority,
                s.telemetry.arrival_time,
                s.telemetry.request_id,
            ),
        )


#: name → factory taking the policy seed (ignored by the deterministic ones)
_POLICIES = {
    FCFSPolicy.name: lambda seed: FCFSPolicy(),
    PriorityPolicy.name: lambda seed: PriorityPolicy(),
    WeightedFairPolicy.name: lambda seed: WeightedFairPolicy(seed),
    SlackPolicy.name: lambda seed: SlackPolicy(),
}


def scheduling_policy(name, *, seed: int = 0) -> SchedulingPolicy:
    """Resolve a policy: by name (``"fcfs"``, ``"priority"``, ``"weighted"``,
    ``"slack"``) or pass an already-built :class:`SchedulingPolicy` through.

    Raises :exc:`ValueError` listing the valid names on anything else, so a
    typo'd config fails with the menu rather than a bare lookup error.
    """
    if isinstance(name, SchedulingPolicy):
        return name
    if not isinstance(name, str) or name not in _POLICIES:
        raise ValueError(
            f"unknown scheduling policy {name!r}; valid names: "
            f"{sorted(_POLICIES)} (or pass a SchedulingPolicy instance)"
        )
    return _POLICIES[name](seed)


def resolve_serving_kwargs(
    *,
    policy=None,
    clock=None,
    obs: Optional[Observability] = None,
    policy_seed: int = 0,
    default_policy: Optional[SchedulingPolicy] = None,
    default_obs: Optional[Observability] = None,
) -> Tuple[SchedulingPolicy, object, Observability]:
    """The one shared validator behind the uniform constructor keywords.

    :class:`ContinuousBatchingScheduler`, :class:`~repro.serve.client.ServingClient`
    and :class:`~repro.serve.router.ReplicaRouter` all accept ``policy=``
    (name or instance), ``clock=`` and ``obs=``; this helper normalizes them
    identically instead of each call site re-implementing the checks.
    Returns ``(policy, clock, obs)`` with defaults applied.
    """
    resolved_policy = (
        scheduling_policy(policy, seed=policy_seed)
        if policy is not None
        else (default_policy if default_policy is not None else FCFSPolicy())
    )
    resolved_clock = clock if clock is not None else WallClock()
    require(
        callable(getattr(resolved_clock, "now", None))
        and callable(getattr(resolved_clock, "tick", None)),
        "clock must provide now() and tick() (WallClock / VirtualClock)",
    )
    resolved_obs = obs if obs is not None else (default_obs if default_obs is not None else NULL_OBS)
    require(
        isinstance(resolved_obs, Observability),
        "obs must be an Observability recorder (or None for the default)",
    )
    return resolved_policy, resolved_clock, resolved_obs


def check_request(request: LoopRequest, pool) -> None:
    """Refuse, before it takes an id, a stream no loop over ``pool`` can serve.

    Every later pass would raise for it and stall every other stream, so
    the submitter fails instead: a caller-set ``request_id`` (ids come from
    one counter that also keys the swap store), a batch shape or head dims
    unlike the pool's (:exc:`ValueError`), or more tokens than the pool
    could hold running alone (:exc:`InfeasibleRequest`).  First-chunk
    reservations never exceed the whole stream, so the last bound also
    keeps admission's reserve within what the pool could ever grant.
    """
    require(
        request.request_id is None,
        "request ids are assigned at submit; leave request_id unset",
    )
    layout = (request.batch_shape, request.k.shape[-1], request.v.shape[-1])
    if layout != (pool.batch_shape, pool.key_dim, pool.value_dim):
        raise ValueError(
            f"request batch shape {layout[0]} / dims ({layout[1]}, {layout[2]}) "
            f"do not match the pool layout {pool.batch_shape} + "
            f"({pool.key_dim}, {pool.value_dim})"
        )
    needed = blocks_for_tokens(request.total_tokens, pool.block_size)
    if needed > pool.num_blocks:
        raise InfeasibleRequest(
            f"stream of {request.total_tokens} tokens needs {needed} KV "
            f"blocks but the pool holds only {pool.num_blocks} "
            f"blocks of {pool.block_size} tokens"
        )


# --------------------------------------------------------------------------- #
# Loop statistics
# --------------------------------------------------------------------------- #
@dataclass
class IterationReport:
    """What one :meth:`ContinuousBatchingScheduler.step` accomplished."""

    iteration: int
    admitted: List[int] = field(default_factory=list)
    finished: List[int] = field(default_factory=list)
    preempted: List[int] = field(default_factory=list)
    prefill_tokens: int = 0
    decode_tokens: int = 0
    swap_ins: int = 0

    @property
    def tokens(self) -> int:
        return self.prefill_tokens + self.decode_tokens


@dataclass(frozen=True)
class LoopStatsSnapshot:
    """Immutable copy of :class:`LoopStats` taken under its lock."""

    iterations: int
    admitted: int
    admission_blocked: int
    finished: int
    cancelled: int
    withdrawn: int
    slo_attained: int
    slo_missed: int
    prefill_tokens: int
    decode_tokens: int
    preemptions: int
    swap_outs: int
    swap_ins: int
    recompute_restores: int
    recompute_replayed_tokens: int
    preemption_seconds: float
    wall_seconds: float

    @property
    def tokens_total(self) -> int:
        return self.prefill_tokens + self.decode_tokens

    @property
    def tokens_per_iteration(self) -> float:
        return self.tokens_total / self.iterations if self.iterations else 0.0

    @property
    def tokens_per_second(self) -> float:
        return self.tokens_total / self.wall_seconds if self.wall_seconds > 0 else 0.0


@dataclass
class LoopStats:
    """Lifetime counters of one scheduler.

    The owning scheduler mutates these under :attr:`lock` (held for the whole
    iteration); concurrent readers must go through :meth:`snapshot` — reading
    the live fields mid-iteration can tear (e.g. ``prefill_tokens`` updated
    but ``iterations`` not yet).
    """

    iterations: int = 0
    admitted: int = 0
    admission_blocked: int = 0
    finished: int = 0
    #: streams abandoned via :meth:`ContinuousBatchingScheduler.cancel`
    cancelled: int = 0
    #: waiting streams handed back via :meth:`ContinuousBatchingScheduler.withdraw`
    #: (a placement layer moved them to another replica before they ran)
    withdrawn: int = 0
    #: finished SLO-carrying streams that beat / missed their deadline
    slo_attained: int = 0
    slo_missed: int = 0
    prefill_tokens: int = 0
    decode_tokens: int = 0
    preemptions: int = 0
    swap_outs: int = 0
    swap_ins: int = 0
    recompute_restores: int = 0
    #: prefix tokens re-prefilled by recompute restores (work paid twice)
    recompute_replayed_tokens: int = 0
    #: host wall time spent serializing/restoring preempted caches
    preemption_seconds: float = 0.0
    #: host wall time spent inside ``step()`` (independent of the injected clock)
    wall_seconds: float = 0.0
    #: re-entrant: ``step()`` holds it for a whole iteration, and a
    #: cancellation can land *inside* the iteration (a client disconnect
    #: observed mid-batch, e.g. by an emit listener) — ``cancel()`` must be
    #: able to re-acquire it on the same thread
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @property
    def tokens_total(self) -> int:
        return self.prefill_tokens + self.decode_tokens

    @property
    def tokens_per_iteration(self) -> float:
        return self.tokens_total / self.iterations if self.iterations else 0.0

    @property
    def tokens_per_second(self) -> float:
        return self.tokens_total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def snapshot(self) -> LoopStatsSnapshot:
        """Tear-free immutable copy (taken under the scheduler's stats lock)."""
        with self.lock:
            return LoopStatsSnapshot(
                iterations=self.iterations,
                admitted=self.admitted,
                admission_blocked=self.admission_blocked,
                finished=self.finished,
                cancelled=self.cancelled,
                withdrawn=self.withdrawn,
                slo_attained=self.slo_attained,
                slo_missed=self.slo_missed,
                prefill_tokens=self.prefill_tokens,
                decode_tokens=self.decode_tokens,
                preemptions=self.preemptions,
                swap_outs=self.swap_outs,
                swap_ins=self.swap_ins,
                recompute_restores=self.recompute_restores,
                recompute_replayed_tokens=self.recompute_replayed_tokens,
                preemption_seconds=self.preemption_seconds,
                wall_seconds=self.wall_seconds,
            )


# --------------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------------- #
class ContinuousBatchingScheduler:
    """Owns the request lifecycle: admission, batching, preemption, completion.

    Parameters
    ----------
    server:
        An :class:`~repro.serve.scheduler.AttentionServer` with a shared
        block pool installed (``create_block_pool``): every stream the loop
        admits is a paged decode session against that pool.
    policy:
        A :class:`SchedulingPolicy` instance or registry name (``"fcfs"`` —
        the default — ``"priority"``, ``"weighted"``, ``"slack"``) ordering
        admission, batch formation and preemption victims.
    clock:
        :class:`WallClock` (default) or :class:`VirtualClock` — all telemetry
        timestamps come from it, never from the host clock.
    max_streams:
        Cap on concurrently admitted streams per iteration.
    prefill_chunk:
        Most prompt tokens one stream may prefill per iteration (chunked
        prefill: long prompts interleave with everyone else's decode steps).
    max_iteration_tokens:
        Optional global token budget per iteration, spent in policy order
        (decode steps cost one token, prefill chunks their length).
    preemption:
        ``"swap"`` (the default: keep the victim's computed K/V in the swap
        store) or ``"recompute"`` (drop it and replay the prompt on resume).
    swap_store:
        Host-side :class:`~repro.serve.paging.SwapStore` for swapped caches
        (a fresh one by default; pass a shared store to meter host memory).
    obs:
        An :class:`~repro.obs.recorder.Observability` recorder for lifecycle
        metrics and trace spans (defaults to the server's recorder, which
        defaults to the no-op :data:`~repro.obs.recorder.NULL_OBS`).  All
        trace timestamps come from ``clock``, so traces on a
        :class:`VirtualClock` replay bit-identically.
    on_emit:
        Optional callback ``(request_id, kind, output)`` fired synchronously
        whenever a stream emits tokens (``kind`` is ``"prefill"`` or
        ``"decode"``); per-stream listeners can additionally be registered
        with :meth:`add_emit_listener`.  The serving edge bridges these into
        per-stream asyncio queues.
    """

    def __init__(
        self,
        server,
        *,
        policy=None,
        policy_seed: int = 0,
        clock=None,
        max_streams: int = 8,
        prefill_chunk: int = 32,
        max_iteration_tokens: Optional[int] = None,
        preemption: str = "swap",
        swap_store: Optional[SwapStore] = None,
        obs: Optional[Observability] = None,
        on_emit=None,
    ) -> None:
        require(
            server.block_pool is not None,
            "the loop schedules paged sessions: call server.create_block_pool first",
        )
        require(max_streams >= 1, "max_streams must be >= 1")
        require(prefill_chunk >= 1, "prefill_chunk must be >= 1")
        require(
            max_iteration_tokens is None or max_iteration_tokens >= 1,
            "max_iteration_tokens must be >= 1 when given",
        )
        require(
            preemption in ("swap", "recompute"),
            "preemption must be swap or recompute",
        )
        self.server = server
        self.pool = server.block_pool
        self.policy, self.clock, self.obs = resolve_serving_kwargs(
            policy=policy,
            policy_seed=policy_seed,
            clock=clock,
            obs=obs,
            default_obs=getattr(server, "obs", NULL_OBS),
        )
        self.max_streams = int(max_streams)
        self.prefill_chunk = int(prefill_chunk)
        self.max_iteration_tokens = max_iteration_tokens
        self.preemption = preemption
        self.swap_store = swap_store if swap_store is not None else SwapStore()
        self.on_emit = on_emit
        self.stats = LoopStats()
        self.results: Dict[int, np.ndarray] = {}
        self.telemetry: Dict[int, RequestTelemetry] = {}
        self._streams: Dict[int, _Stream] = {}
        self._waiting: List[_Stream] = []
        self._running: List[_Stream] = []
        #: request ids excluded from admission and batch formation until
        #: released — the edge's backpressure lever for stalled consumers
        self._held: set = set()
        self._emit_listeners: Dict[int, object] = {}

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #
    def submit(self, request: LoopRequest) -> int:
        """Queue one stream; returns its newly assigned request id.

        :func:`check_request` refuses a stream this loop's pool cannot serve.
        """
        check_request(request, self.pool)
        request.request_id = self.server.next_request_id()
        return self._enqueue(request)

    def _enqueue(self, request: LoopRequest) -> int:
        """Queue a request that already carries its id; returns the id.

        :meth:`submit`'s tail, and how a router queues a stream it moved
        here from another replica: the stream keeps the id it was given.
        """
        rid = request.request_id
        now = self.clock.now()
        telemetry = RequestTelemetry(
            request_id=rid,
            priority=request.priority,
            prompt_tokens=request.prompt_tokens,
            total_tokens=request.total_tokens,
            arrival_time=now,
            tenant=request.tenant,
            slo_latency_seconds=request.slo_latency_seconds,
        )
        stream = _Stream(request=request, telemetry=telemetry, waiting_since=now)
        self._streams[rid] = stream
        self._waiting.append(stream)
        self.telemetry[rid] = telemetry
        obs = self.obs
        if obs.enabled:
            obs.requests_submitted.inc()
            obs.queued_streams.set(len(self._waiting))
            if obs.trace is not None:
                stream.span = obs.trace.start_span(
                    "request",
                    now,
                    request_id=rid,
                    prompt_tokens=request.prompt_tokens,
                    total_tokens=request.total_tokens,
                    priority=request.priority,
                )
                stream.queue_span = obs.trace.start_span(
                    "queue", now, request_id=rid, parent=stream.span, cause="submit"
                )
                obs.trace.event("submit", now, span=stream.span, request_id=rid)
        return rid

    def submit_many(self, requests: Sequence[LoopRequest]) -> List[int]:
        return [self.submit(request) for request in requests]

    @property
    def waiting(self) -> int:
        """Streams queued for admission (including preempted ones)."""
        return len(self._waiting)

    @property
    def running(self) -> int:
        """Streams currently holding a live session."""
        return len(self._running)

    @property
    def active(self) -> int:
        return self.waiting + self.running

    @property
    def held(self) -> int:
        """Streams currently excluded from scheduling by :meth:`hold`."""
        return len(self._held)

    # ------------------------------------------------------------------ #
    # Streaming hooks: emit listeners, holds, cancellation
    # ------------------------------------------------------------------ #
    def add_emit_listener(self, request_id: int, listener) -> None:
        """Register ``listener(request_id, kind, output)`` for one stream."""
        require(request_id in self._streams, f"unknown or finished request {request_id}")
        self._emit_listeners[request_id] = listener

    def remove_emit_listener(self, request_id: int) -> None:
        self._emit_listeners.pop(request_id, None)

    def _notify_emit(self, stream: _Stream, kind: str, output: np.ndarray) -> None:
        rid = stream.request.request_id
        if self.on_emit is not None:
            self.on_emit(rid, kind, output)
        listener = self._emit_listeners.get(rid)
        if listener is not None:
            listener(rid, kind, output)

    def hold(self, request_id: int) -> None:
        """Exclude a stream from admission and batch formation (backpressure).

        A held running stream keeps its session and blocks — it simply stops
        being scheduled — so resuming is free.  The pool pressure a held
        stream exerts is the caller's to manage (the edge releases holds as
        its consumer drains).
        """
        require(request_id in self._streams, f"unknown or finished request {request_id}")
        self._held.add(request_id)

    def release_hold(self, request_id: int) -> None:
        self._held.discard(request_id)

    def cancel(self, request_id: int) -> bool:
        """Abort a submitted stream wherever it is in its lifecycle.

        Releases the session's blocks (or pops its swap-store payload),
        retracts any prefix-share credit by closing the paged cache through
        the server, and marks telemetry ``cancelled``.  Partial outputs are
        dropped — a cancelled stream never lands in :attr:`results`.
        Returns ``False`` for unknown / already-finished ids (cancellation
        races a natural finish benignly).
        """
        stream = self._streams.get(request_id)
        if stream is None or stream.state == _FINISHED:
            return False
        if stream.state == _RUNNING:
            self._running.remove(stream)
            self.server.close_decode_session(stream.session)
        else:
            self._waiting.remove(stream)
            if stream.swap_key is not None:
                self.swap_store.pop(stream.swap_key)
                stream.swap_key = None
            if stream.session is not None:
                # preempted-by-recompute session: no cache to release, but the
                # close still retires the session record on the server
                self.server.close_decode_session(stream.session)
        stream.state = _FINISHED
        stream.outputs = []
        self._held.discard(request_id)
        self._emit_listeners.pop(request_id, None)
        telemetry = stream.telemetry
        telemetry.cancelled = True
        del self._streams[request_id]
        with self.stats.lock:
            self.stats.cancelled += 1
        obs = self.obs
        if obs.enabled:
            now = self.clock.now()
            obs.requests_cancelled.inc()
            obs.active_streams.set(len(self._running))
            obs.queued_streams.set(len(self._waiting))
            if obs.trace is not None:
                if stream.queue_span is not None:
                    obs.trace.end_span(stream.queue_span, now)
                    stream.queue_span = None
                obs.trace.event("cancel", now, span=stream.span, request_id=request_id)
                if stream.span is not None:
                    obs.trace.end_span(stream.span, now, tokens=telemetry.tokens_emitted)
                    stream.span = None
        return True

    # ------------------------------------------------------------------ #
    # Placement hooks: withdrawal and load inspection for a replica router
    # ------------------------------------------------------------------ #
    @property
    def pending_tokens(self) -> int:
        """Tokens still to emit across all waiting and running streams.

        The load signal a placement layer balances on: unlike stream counts,
        it weighs a long prompt heavier than a one-token decode tail.
        """
        return sum(
            stream.request.total_tokens - stream.emitted
            for stream in self._streams.values()
            if stream.state != _FINISHED
        )

    def withdrawable(self) -> List[int]:
        """Ids of waiting streams :meth:`withdraw` would currently accept."""
        return [
            stream.request.request_id
            for stream in self._waiting
            if stream.session is None
            and stream.swap_key is None
            and not stream.emitted
            and stream.request.request_id not in self._held
        ]

    def withdraw(self, request_id: int) -> Optional[LoopRequest]:
        """Remove a waiting, never-scheduled stream and hand its request back.

        The rebalancing primitive: a placement layer can pull a stream that
        has not yet touched this replica — still waiting, never activated,
        nothing emitted, no swap payload, not held — and queue it on another
        scheduler whose server draws ids from the same counter.  The request
        comes back with its ``request_id`` still set, so the stream keeps
        its id across the move; this scheduler's telemetry for the id is
        dropped (the stream never ran here).  Returns ``None`` for anything
        ineligible — unknown ids, running or preempted streams, streams with
        emitted tokens — so callers racing a natural activation simply leave
        the stream where it is.
        """
        stream = self._streams.get(request_id)
        if (
            stream is None
            or stream.state != _WAITING
            or stream.session is not None
            or stream.swap_key is not None
            or stream.emitted
            or request_id in self._held
        ):
            return None
        self._waiting.remove(stream)
        del self._streams[request_id]
        del self.telemetry[request_id]
        self._emit_listeners.pop(request_id, None)
        with self.stats.lock:
            self.stats.withdrawn += 1
        obs = self.obs
        if obs.enabled:
            now = self.clock.now()
            obs.queued_streams.set(len(self._waiting))
            if obs.trace is not None:
                if stream.queue_span is not None:
                    obs.trace.end_span(stream.queue_span, now)
                    stream.queue_span = None
                obs.trace.event("withdraw", now, span=stream.span, request_id=request_id)
                if stream.span is not None:
                    obs.trace.end_span(stream.span, now, tokens=0)
                    stream.span = None
        return stream.request

    # ------------------------------------------------------------------ #
    # The iteration
    # ------------------------------------------------------------------ #
    def step(self) -> IterationReport:
        """Run one scheduler iteration; returns what it accomplished."""
        started = time.perf_counter()
        # one lock hold per iteration: snapshot() readers see whole iterations
        with self.stats.lock:
            self.stats.iterations += 1
            report = IterationReport(iteration=self.stats.iterations)

            self._admit(report)
            plan = self._form_batch()
            self._execute(plan, report)
            self._finish_streams(report)

            self.stats.wall_seconds += time.perf_counter() - started
        obs = self.obs
        if obs.enabled:
            obs.iterations.inc()
            obs.iteration_batch_tokens.observe(report.tokens)
            obs.active_streams.set(len(self._running))
            obs.queued_streams.set(len(self._waiting))
            if obs.trace is not None:
                obs.trace.event(
                    "iteration",
                    self.clock.now(),
                    iteration=report.iteration,
                    tokens=report.tokens,
                    admitted=len(report.admitted),
                    finished=len(report.finished),
                    preempted=len(report.preempted),
                )
        self.clock.tick()
        return report

    def run(self, *, max_iterations: Optional[int] = None) -> Dict[int, np.ndarray]:
        """Iterate until every submitted stream finishes; returns the outputs
        (see :func:`drain`)."""
        return drain(self, max_iterations=max_iterations)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _admit(self, report: IterationReport) -> None:
        now = self.clock.now()
        for stream in self.policy.rank(self._waiting, now):
            if len(self._running) >= self.max_streams:
                break
            if stream.request.request_id in self._held:
                continue
            try:
                self._activate(stream, report)
            except PoolExhausted:
                self.stats.admission_blocked += 1
                # head-of-line: admission follows policy order strictly, so a
                # blocked head is retried next iteration rather than jumped
                break

    def _activate(self, stream: _Stream, report: IterationReport) -> None:
        """Open (or restore) the stream's session; raises PoolExhausted clean."""
        request = stream.request
        mode = "fresh"
        if stream.session is None:
            # fresh stream: PR-4 admission — first-chunk blocks prereserved
            # atomically, or the open rejects and the stream keeps waiting
            first_chunk = min(self.prefill_chunk, request.prompt_tokens) or 1
            stream.session = self.server.open_session(
                request.mask,
                request.total_tokens,
                reserve_tokens=first_chunk,
            )
            readmission = False
        else:
            readmission = True
            mode = self._restore(stream)
            if mode == "swap":
                report.swap_ins += 1
        now = self.clock.now()
        telemetry = stream.telemetry
        waited = now - stream.waiting_since
        telemetry.queue_seconds += waited
        first_admission = telemetry.first_scheduled_time is None
        if first_admission:
            telemetry.first_scheduled_time = now
        stream.state = _RUNNING
        self._waiting.remove(stream)
        self._running.append(stream)
        self.stats.admitted += 1
        report.admitted.append(request.request_id)
        obs = self.obs
        if obs.enabled:
            if first_admission:
                obs.queue_seconds.observe(now - telemetry.arrival_time)
            if readmission:
                # preempt-to-restore stall actually paid by this stream
                obs.preemption_stall_seconds.observe(waited)
                if mode == "swap":
                    obs.swap_ins.inc()
            if obs.trace is not None:
                if stream.queue_span is not None:
                    obs.trace.end_span(stream.queue_span, now)
                    stream.queue_span = None
                event = "swap_in" if mode == "swap" else "admit"
                obs.trace.event(
                    event,
                    now,
                    span=stream.span,
                    request_id=request.request_id,
                    restore=mode,
                )

    def _restore(self, stream: _Stream) -> str:
        """Rebuild a preempted stream's cache to exactly ``emitted`` tokens."""
        started = time.perf_counter()
        request = stream.request
        session = stream.session
        cache = PagedKVCache(self.pool, max_length=request.total_tokens)
        try:
            if stream.swap_key is not None:
                # swap-in: map the encoded payload back; identical stored
                # bytes re-share any block still parked in the warm LRU, and
                # quantized streams resume without a decode/re-encode cycle
                handle = self.swap_store.peek(stream.swap_key)
                cache.restore(handle)
            elif stream.emitted == 0:
                # a victim preempted before any progress: re-admission must be
                # a real capacity grant like a fresh open, not an advisory
                # empty cache — otherwise the stream occupies a slot with no
                # blocks and its first prefill evicts a progressing stream
                first_chunk = min(self.prefill_chunk, request.prompt_tokens) or 1
                cache.prereserve(blocks_for_tokens(first_chunk, self.pool.block_size))
            else:
                # recompute-from-prompt: replay the causal prefill (the
                # attention outputs were already emitted — only the K/V
                # residency is rebuilt, at recompute cost).  The replay is
                # chunked like regular prefill so no single kernel pass
                # covers an arbitrarily long prefix; it still completes
                # within this admission, which ``recompute_replayed_tokens``
                # makes visible.
                session.cache = cache
                for start in range(0, stream.emitted, self.prefill_chunk):
                    stop = min(start + self.prefill_chunk, stream.emitted)
                    session.prefill(
                        request.q[..., start:stop, :],
                        request.k[..., start:stop, :],
                        request.v[..., start:stop, :],
                    )
                self.stats.recompute_replayed_tokens += stream.emitted
        except PoolExhausted:
            session.cache = None
            cache.release()
            raise
        finally:
            self.stats.preemption_seconds += time.perf_counter() - started
        session.cache = cache
        if stream.swap_key is not None:
            self.swap_store.pop(stream.swap_key)
            stream.swap_key = None
            stream.telemetry.swap_ins += 1
            self.stats.swap_ins += 1
            return "swap"
        if stream.emitted > 0:
            stream.telemetry.recompute_restores += 1
            self.stats.recompute_restores += 1
            return "recompute"
        return "fresh"

    # ------------------------------------------------------------------ #
    # Batch formation
    # ------------------------------------------------------------------ #
    def _form_batch(self) -> List[Tuple[_Stream, str, int]]:
        """Pick this iteration's work in policy order under the token budget."""
        budget = self.max_iteration_tokens or float("inf")
        plan: List[Tuple[_Stream, str, int]] = []
        for stream in self.policy.rank(self._running, self.clock.now()):
            if budget < 1:
                break
            if stream.request.request_id in self._held:
                continue
            if stream.prompt_remaining > 0:
                count = int(min(self.prefill_chunk, stream.prompt_remaining, budget))
                plan.append((stream, "prefill", count))
                budget -= count
            elif not stream.finished:
                plan.append((stream, "decode", 1))
                budget -= 1
        return plan

    def _execute(self, plan: List[Tuple[_Stream, str, int]], report: IterationReport) -> None:
        """Run the iteration's passes, preempting victims on pool exhaustion."""
        for group in self._group(plan):
            self._execute_group(group, report)

    def _group(
        self, plan: List[Tuple[_Stream, str, int]]
    ) -> List[List[Tuple[_Stream, str, int]]]:
        """Split the batch by kind: each kind of work is one ragged pass.

        Every prefill chunk and every decode step of the iteration runs in
        one pass of its kind, whatever the streams' masks, horizons and
        positions — one kernel call per arena, and one
        *atomic* block reservation, which is what lets
        :meth:`_execute_group` retry a failed pass after preempting a victim
        without any partial advance.  Passes run in the order the policy
        ranked their first stream.
        """
        groups: Dict[str, List[Tuple[_Stream, str, int]]] = {}
        for entry in plan:
            groups.setdefault(entry[1], []).append(entry)
        return list(groups.values())

    def _execute_group(
        self, group: List[Tuple[_Stream, str, int]], report: IterationReport
    ) -> None:
        remaining = list(group)
        while remaining:
            # preemption may have evicted a member between retries
            remaining = [entry for entry in remaining if entry[0].state == _RUNNING]
            if not remaining:
                return
            try:
                self._run_group(remaining, report)
                return
            except PoolExhausted:
                self._preempt_for(remaining, report)

    def _run_group(
        self, group: List[Tuple[_Stream, str, int]], report: IterationReport
    ) -> None:
        kind = group[0][1]
        if kind == "prefill":
            chunks = []
            for stream, _, count in group:
                request, start = stream.request, stream.emitted
                chunks.append(
                    (
                        stream.session,
                        request.q[..., start : start + count, :],
                        request.k[..., start : start + count, :],
                        request.v[..., start : start + count, :],
                    )
                )
            responses = self.server.prefill_chunks(chunks)
            obs = self.obs
            now = self.clock.now()
            tokens = 0
            for (stream, _, count), response in zip(group, responses):
                stream.outputs.append(response.result.output)
                self._notify_emit(stream, "prefill", response.result.output)
                stream.emitted += count
                stream.telemetry.tokens_emitted += count
                stream.telemetry.iterations_scheduled += 1
                tokens += count
                if obs.enabled and obs.trace is not None:
                    obs.trace.event(
                        "prefill_chunk",
                        now,
                        span=stream.span,
                        request_id=stream.request.request_id,
                        tokens=count,
                        position=stream.emitted,
                    )
            report.prefill_tokens += tokens
            self.stats.prefill_tokens += tokens
            if obs.enabled:
                obs.prefill_tokens.inc(tokens)
        else:
            steps = []
            for stream, _, _ in group:
                request, position = stream.request, stream.emitted
                steps.append(
                    (
                        stream.session,
                        request.q[..., position, :],
                        request.k[..., position, :],
                        request.v[..., position, :],
                    )
                )
            responses = self.server.decode_steps(steps)
            obs = self.obs
            now = self.clock.now()
            for (stream, _, _), response in zip(group, responses):
                stream.outputs.append(response.result.output)
                self._notify_emit(stream, "decode", response.result.output)
                stream.emitted += 1
                telemetry = stream.telemetry
                telemetry.tokens_emitted += 1
                telemetry.iterations_scheduled += 1
                if telemetry.first_token_time is None:
                    # first generated token past the prompt: TTFT lands here
                    telemetry.first_token_time = now
                    if obs.enabled:
                        obs.ttft_seconds.observe(now - telemetry.arrival_time)
                if obs.enabled and obs.trace is not None:
                    obs.trace.event(
                        "decode_step",
                        now,
                        span=stream.span,
                        request_id=stream.request.request_id,
                        position=stream.emitted,
                    )
            report.decode_tokens += len(group)
            self.stats.decode_tokens += len(group)
            if obs.enabled:
                obs.decode_tokens.inc(len(group))

    # ------------------------------------------------------------------ #
    # Preemption
    # ------------------------------------------------------------------ #
    def _preempt_for(
        self, group: List[Tuple[_Stream, str, int]], report: IterationReport
    ) -> None:
        """Free blocks for a failed group by evicting one policy-chosen victim.

        The group's policy-best member is protected — the retry loop must
        shrink toward *somebody* making progress — so the victim is either
        another running stream or a non-head group member (whose eviction
        both frees blocks and shrinks the retried reservation).  When no
        victim remains, the surviving stream alone exceeds the pool: that is
        a sizing error, reported as :exc:`InfeasibleRequest`.
        """
        now = self.clock.now()
        members = [stream for stream, _, _ in group]
        head = self.policy.rank(members, now)[0]
        candidates = [
            stream for stream in self.policy.victims(self._running, now) if stream is not head
        ]
        if not candidates:
            raise InfeasibleRequest(
                f"request {head.request.request_id} needs more KV blocks than "
                f"the pool holds ({self.pool.num_blocks} blocks of "
                f"{self.pool.block_size} tokens) even with every other stream "
                f"preempted"
            )
        self._preempt(candidates[0], report)

    def _preempt(self, victim: _Stream, report: IterationReport) -> None:
        started = time.perf_counter()
        session = victim.session
        cache = session.cache
        if self.preemption == "swap" and victim.emitted > 0:
            handle = cache.swap_out()
            victim.swap_key = victim.request.request_id
            self.swap_store.put(victim.swap_key, handle)
            victim.telemetry.swap_outs += 1
            self.stats.swap_outs += 1
        else:
            # recompute mode (or nothing cached): drop the blocks, store nothing
            cache.release()
            victim.swap_key = None
        session.cache = None
        victim.state = _WAITING
        victim.waiting_since = self.clock.now()
        victim.telemetry.preemptions += 1
        self.stats.preemptions += 1
        self._running.remove(victim)
        self._waiting.append(victim)
        report.preempted.append(victim.request.request_id)
        self.stats.preemption_seconds += time.perf_counter() - started
        obs = self.obs
        if obs.enabled:
            # the mode actually executed: a swap decision with nothing cached
            # degrades to a plain release, counted as recompute
            executed = "swap" if victim.swap_key is not None else "recompute"
            obs.preemptions.labels(mode=executed).inc()
            if obs.trace is not None:
                now = victim.waiting_since
                rid = victim.request.request_id
                event = "swap_out" if executed == "swap" else "preempt"
                obs.trace.event(
                    event, now, span=victim.span, request_id=rid, mode=executed
                )
                victim.queue_span = obs.trace.start_span(
                    "queue", now, request_id=rid, parent=victim.span, cause="preempt"
                )

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _finish_streams(self, report: IterationReport) -> None:
        now = self.clock.now()
        for stream in [s for s in self._running if s.finished]:
            rid = stream.request.request_id
            self.results[rid] = np.concatenate(stream.outputs, axis=-2)
            stream.outputs = []
            self.server.close_decode_session(stream.session)
            stream.state = _FINISHED
            telemetry = stream.telemetry
            telemetry.finish_time = now
            obs = self.obs
            if telemetry.first_token_time is None:
                # prompt-only stream: its "first token" is its completion
                telemetry.first_token_time = now
                if obs.enabled:
                    obs.ttft_seconds.observe(now - telemetry.arrival_time)
            telemetry.decode_seconds = now - telemetry.first_token_time
            if telemetry.slo_latency_seconds is not None:
                telemetry.slack_at_finish = telemetry.slo_latency_seconds - (
                    now - telemetry.arrival_time
                )
                telemetry.slo_attained = telemetry.slack_at_finish >= 0.0
                if telemetry.slo_attained:
                    self.stats.slo_attained += 1
                else:
                    self.stats.slo_missed += 1
            if obs.enabled:
                obs.requests_finished.inc()
                if telemetry.slo_attained is not None:
                    outcome = "attained" if telemetry.slo_attained else "missed"
                    obs.tenant_slo.labels(
                        tenant=telemetry.tenant or "default", outcome=outcome
                    ).inc()
                    obs.slo_slack_seconds.observe(telemetry.slack_at_finish)
                decode_after_first = telemetry.total_tokens - telemetry.prompt_tokens - 1
                if decode_after_first > 0:
                    obs.per_token_seconds.observe(
                        telemetry.decode_seconds / decode_after_first
                    )
                if obs.trace is not None:
                    obs.trace.event(
                        "finish", now, span=stream.span, request_id=rid
                    )
                    if stream.span is not None:
                        obs.trace.end_span(
                            stream.span, now, tokens=telemetry.tokens_emitted
                        )
                        stream.span = None
            self._running.remove(stream)
            self._held.discard(rid)
            self._emit_listeners.pop(rid, None)
            # drop the stream record: it pins the request's full q/k/v
            # tensors, which must not accumulate with a perpetual server's
            # lifetime traffic (results/telemetry stay until the caller
            # consumes them; ids never recycle, so resubmission stays caught)
            del self._streams[rid]
            self.stats.finished += 1
            report.finished.append(rid)


#: Steps in a row that admit, emit and finish nothing before :func:`drain`
#: gives up.  A router's rebalance step may be empty once, so two are not
#: yet a stall.
STALL_STEPS = 3


def drain(
    engine,
    *,
    until: Optional[Collection[int]] = None,
    max_iterations: Optional[int] = None,
) -> Dict[int, np.ndarray]:
    """Step ``engine`` until it is idle, or until every id in ``until`` has
    a result; returns ``engine.results``.

    ``engine`` is a :class:`ContinuousBatchingScheduler` or a
    :class:`~repro.serve.router.ReplicaRouter`: its ``step()`` returns a
    report with ``tokens``, ``admitted`` and ``finished``.
    ``max_iterations`` bounds this call's steps, counted from its first, and
    raises :exc:`RuntimeError` when reached.  :data:`STALL_STEPS` empty steps
    in a row can never unwedge themselves, so the last of them raises
    :exc:`ValueError` instead of spinning.
    """
    wanted = None if until is None else set(until)
    steps = stalled = 0
    while engine.active if wanted is None else wanted - engine.results.keys():
        if max_iterations is not None and steps >= max_iterations:
            raise RuntimeError(
                f"exceeded {max_iterations} steps with {engine.active} streams still active"
            )
        report = engine.step()
        steps += 1
        if report.tokens or report.admitted or report.finished:
            stalled = 0
        else:
            stalled += 1
            require(
                stalled < STALL_STEPS, "serving stalled: no admission, tokens, or finishes"
            )
    return engine.results


__all__ = [
    "ContinuousBatchingScheduler",
    "FCFSPolicy",
    "InfeasibleRequest",
    "IterationReport",
    "LoopRequest",
    "LoopStats",
    "LoopStatsSnapshot",
    "PriorityPolicy",
    "RequestTelemetry",
    "STALL_STEPS",
    "SchedulingPolicy",
    "SlackPolicy",
    "VirtualClock",
    "WallClock",
    "WeightedFairPolicy",
    "check_request",
    "drain",
    "resolve_serving_kwargs",
    "scheduling_policy",
]
