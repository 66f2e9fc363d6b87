"""Named serving scenarios the ``repro-ops`` CLI runs against the loop.

Each scenario is a deterministic workload — request arrivals, prompt/decode
lengths, masks, priorities, pool sizing, scheduling policy — driven through
a :class:`~repro.serve.ReplicaRouter` (of one replica unless asked for more:
a router of one is one :class:`~repro.serve.ContinuousBatchingScheduler`)
on a :class:`~repro.serve.VirtualClock` with an
:class:`~repro.obs.recorder.Observability` recorder attached.  Everything
that reaches the trace buffer is stamped from the virtual clock, so running
the same scenario twice produces **bit-identical** trace JSONL (host wall
times appear only in the metrics histograms, never in trace records).

The scenario zoo mirrors the serving shapes the roadmap cares about:

* ``quick``    — a handful of mixed requests; the CI smoke scenario.
* ``steady``   — seeded Poisson-style arrivals at moderate load.
* ``burst``    — two synchronized waves hammering admission at once.
* ``agentic``  — few streams, long decodes (tool-using agent shape).
* ``rag``      — long prompts, short answers (retrieval-augmented shape).
* ``storm``    — a pool at the feasibility edge; every iteration preempts.
* ``slo-burst`` — a no-deadline batch tenant monopolizes the token budget
  while a chat tenant arrives with tight SLOs; FCFS head-of-line blocking
  misses most deadlines, the slack policy reorders and attains them.

This module lives in ``src`` (not the test harness) because the installed
console script must run scenarios without a checkout of ``tests/``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.masks.presets import longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.obs.recorder import Observability
from repro.perfmodel.decode import blocks_for_tokens
from repro.serve import LoopRequest, ReplicaRouter, VirtualClock
from repro.utils.rng import random_qkv
from repro.utils.validation import require

#: Embedded dimension every scenario uses (kept small: scenarios measure the
#: serving control plane, not kernel arithmetic throughput).
DIM = 4

#: Mask zoo scenarios draw from, indexed so specs stay plain integers.
MASKS = (
    LocalMask(window=3),
    LocalMask(window=7),
    Dilated1DMask(window=5, dilation=2),
    CausalMask(),
    longformer_mask(reach=2, global_tokens=(0,)),
)


@dataclass(frozen=True)
class ScenarioRequest:
    """One stream of a scenario: arrival time, shape, mask, priority, seed."""

    mask_index: int
    prompt: int
    decode: int
    priority: float
    arrival: float
    seed: int
    tenant: Optional[str] = None
    slo: Optional[float] = None

    @property
    def total(self) -> int:
        return max(1, self.prompt + self.decode)


@dataclass(frozen=True)
class Scenario:
    """A complete named workload plus its scheduler/pool configuration."""

    name: str
    description: str
    requests: Tuple[ScenarioRequest, ...]
    extra_blocks: int = 8
    block_size: int = 4
    max_streams: int = 4
    prefill_chunk: int = 8
    max_iteration_tokens: Optional[int] = None
    policy: str = "fcfs"
    policy_seed: int = 0
    preemption: str = "swap"

    @property
    def num_blocks(self) -> int:
        """Pool size: the largest stream's needs (+slack) plus ``extra_blocks``."""
        largest = max(
            blocks_for_tokens(request.total, self.block_size)
            for request in self.requests
        )
        return largest + 2 + self.extra_blocks

    @property
    def total_tokens(self) -> int:
        return sum(request.total for request in self.requests)


def _requests(entries: Sequence[dict]) -> Tuple[ScenarioRequest, ...]:
    out: List[ScenarioRequest] = []
    arrival = 0.0
    for index, entry in enumerate(entries):
        arrival += float(entry.get("gap", 0.0))
        out.append(
            ScenarioRequest(
                mask_index=int(entry.get("mask", index)) % len(MASKS),
                prompt=int(entry["prompt"]),
                decode=int(entry["decode"]),
                priority=float(entry.get("priority", 1.0)),
                arrival=arrival,
                seed=int(entry.get("seed", 1000 + index)),
                tenant=entry.get("tenant"),
                slo=None if entry.get("slo") is None else float(entry["slo"]),
            )
        )
    return tuple(out)


# --------------------------------------------------------------------------- #
# The zoo
# --------------------------------------------------------------------------- #
def _quick(seed: int) -> Scenario:
    entries = [
        {
            "mask": i,
            "prompt": 6 + 2 * (i % 3),
            "decode": 4,
            "gap": 1.0,
            "seed": seed * 97 + i,
        }
        for i in range(6)
    ]
    return Scenario(
        name="quick",
        description="Six mixed requests, comfortable pool — the CI smoke scenario.",
        requests=_requests(entries),
        extra_blocks=8,
        max_streams=4,
        prefill_chunk=4,
    )


def _steady(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    entries = [
        {
            "mask": int(rng.integers(len(MASKS))),
            "prompt": int(rng.integers(4, 20)),
            "decode": int(rng.integers(2, 12)),
            "priority": float(rng.choice((0.5, 1.0, 2.0))),
            "gap": float(rng.exponential(2.0)),
            "seed": int(rng.integers(2**16)),
        }
        for _ in range(16)
    ]
    return Scenario(
        name="steady",
        description="Sixteen Poisson-style arrivals under the weighted-fair policy.",
        requests=_requests(entries),
        extra_blocks=6,
        max_streams=4,
        prefill_chunk=8,
        policy="weighted",
        policy_seed=seed,
    )


def _burst(seed: int) -> Scenario:
    wave1 = [
        {"mask": i, "prompt": 12, "decode": 6, "gap": 0.0, "priority": 1.0, "seed": seed * 31 + i}
        for i in range(6)
    ]
    wave2 = [
        {
            "mask": i,
            "prompt": 4,
            "decode": 4,
            "gap": 8.0 if i == 0 else 0.0,
            "priority": 4.0,
            "seed": seed * 53 + i,
        }
        for i in range(6)
    ]
    return Scenario(
        name="burst",
        description="Two synchronized waves; high-priority latecomers must overtake.",
        requests=_requests(wave1 + wave2),
        extra_blocks=2,
        max_streams=3,
        prefill_chunk=4,
        policy="priority",
    )


def _agentic(seed: int) -> Scenario:
    entries = [
        {"mask": 3, "prompt": 8, "decode": 48, "gap": 2.0, "seed": seed * 11 + i}
        for i in range(3)
    ]
    return Scenario(
        name="agentic",
        description="Few streams, long decodes — per-token latency dominates.",
        requests=_requests(entries),
        extra_blocks=6,
        max_streams=3,
        prefill_chunk=8,
    )


def _rag(seed: int) -> Scenario:
    entries = [
        {"mask": 4, "prompt": 48, "decode": 4, "gap": 1.0, "seed": seed * 13 + i}
        for i in range(4)
    ]
    return Scenario(
        name="rag",
        description="Long prompts, short answers — chunked prefill dominates.",
        requests=_requests(entries),
        extra_blocks=6,
        max_streams=2,
        prefill_chunk=8,
        max_iteration_tokens=16,
    )


def _storm(seed: int) -> Scenario:
    entries = [
        {"mask": 0, "prompt": 8, "decode": 8, "gap": 0.0, "seed": seed * 41 + i}
        for i in range(3)
    ]
    return Scenario(
        name="storm",
        description="Pool at the feasibility edge; nearly every iteration preempts.",
        requests=_requests(entries),
        extra_blocks=0,
        max_streams=3,
        prefill_chunk=4,
        preemption="swap",
    )


def _slo_burst(seed: int) -> Scenario:
    # A batch tenant with no deadlines floods admission at t=0; a chat tenant
    # trickles in behind it with tight SLOs.  Under FCFS the batch streams
    # monopolize the iteration token budget (head-of-line blocking) and most
    # chat deadlines blow; least-slack-first reorders per iteration and
    # attains them.  Run with ``policy="slack"`` to see the contrast.
    batch = [
        {
            "mask": 0,
            "prompt": 16,
            "decode": 16,
            "gap": 0.0,
            "tenant": "batch",
            "seed": seed * 61 + i,
        }
        for i in range(3)
    ]
    chat = [
        {
            "mask": 1,
            "prompt": 4,
            "decode": 4,
            "gap": 1.0,
            "tenant": "chat",
            "slo": 10.0,
            "seed": seed * 71 + i,
        }
        for i in range(9)
    ]
    return Scenario(
        name="slo-burst",
        description="Deadline-free batch flood vs. a chat tenant with tight SLOs.",
        requests=_requests(batch + chat),
        extra_blocks=30,
        max_streams=8,
        prefill_chunk=4,
        max_iteration_tokens=8,
    )


SCENARIOS: Dict[str, Callable[[int], Scenario]] = {
    "quick": _quick,
    "steady": _steady,
    "burst": _burst,
    "agentic": _agentic,
    "rag": _rag,
    "storm": _storm,
    "slo-burst": _slo_burst,
}


def build_scenario(name: str, *, seed: int = 0) -> Scenario:
    """Build the named scenario for ``seed`` (same seed → same workload)."""
    require(name in SCENARIOS, f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name](int(seed))


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Everything one scenario run exposes: recorder, snapshots, telemetry."""

    scenario: Scenario
    seed: int
    obs: Observability
    #: loop counters summed over the replicas
    loop_stats: object
    #: one server stats snapshot per replica
    server_stats: Tuple[object, ...]
    telemetry: Dict[int, object]
    iterations: int
    router_stats: object
    replicas: int

    def summary(self) -> dict:
        """The derived serving numbers the ops CLI leads with."""
        snap = self.obs.snapshot()

        def _percentiles(name: str) -> dict:
            sample = snap.get(name)
            if sample is None or not sample.count:
                return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return {
                "count": sample.count,
                "p50": sample.quantile(0.50),
                "p95": sample.quantile(0.95),
                "p99": sample.quantile(0.99),
            }

        summary = {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "requests": len(self.scenario.requests),
            "total_tokens": self.scenario.total_tokens,
            "iterations": self.iterations,
            "preemptions": self.loop_stats.preemptions,
            "swap_ins": self.loop_stats.swap_ins,
            "ttft_seconds": _percentiles("serving_ttft_seconds"),
            "queue_seconds": _percentiles("serving_queue_seconds"),
            "per_token_seconds": _percentiles("serving_per_token_seconds"),
            "preemption_stall_seconds": _percentiles("serving_preemption_stall_seconds"),
            "router": {
                "replicas": self.replicas,
                "routed": self.router_stats.routed,
                "route_hit_rate": self.router_stats.route_hit_rate,
                "rebalance_passes": self.router_stats.rebalance_passes,
                "moved_streams": self.router_stats.moved_streams,
            },
        }
        slo = self.slo_attainment()
        if slo is not None:
            summary["slo"] = slo
        return summary

    def slo_attainment(self) -> Optional[dict]:
        """Per-tenant SLO attainment from telemetry; ``None`` without SLOs.

        Each tenant block counts only its deadline-carrying requests;
        ``attainment`` is attained/total over every SLO request in the run.
        """
        with_slo = [
            t for t in self.telemetry.values() if t.slo_latency_seconds is not None
        ]
        if not with_slo:
            return None
        tenants: Dict[str, Dict[str, int]] = {}
        for telemetry in with_slo:
            bucket = tenants.setdefault(
                telemetry.tenant or "default", {"attained": 0, "missed": 0}
            )
            bucket["attained" if telemetry.slo_attained else "missed"] += 1
        attained = sum(bucket["attained"] for bucket in tenants.values())
        return {
            "requests": len(with_slo),
            "attained": attained,
            "attainment": attained / len(with_slo),
            "tenants": tenants,
        }

    def to_dict(self) -> dict:
        """JSON payload: summary + full registry snapshot."""
        payload = {"summary": self.summary()}
        payload.update(self.obs.snapshot().to_dict())
        return payload


def run_scenario(
    name_or_scenario,
    *,
    seed: int = 0,
    storage: Optional[str] = None,
    obs: Optional[Observability] = None,
    policy=None,
    clock=None,
    max_iterations: int = 20_000,
    on_iteration: Optional[Callable[[int, Observability], None]] = None,
    replicas: int = 1,
    router_policy: str = "affinity",
) -> ScenarioResult:
    """Drive one scenario to drain on a virtual clock; returns its result.

    The workload runs through a :class:`~repro.serve.ReplicaRouter` of
    ``replicas`` replicas, each with its own ``num_blocks``-sized pool and a
    ``router_policy``-routed share of the streams; one replica is one loop.
    ``obs`` defaults to a fresh enabled recorder (metrics + tracing);
    ``storage`` selects the block pools' KV storage format (``"fp32"`` /
    ``"fp16"`` / ``"int8"``) so operators can compare registry snapshots
    across storage dtypes at identical workloads; ``policy`` (a name, or
    for one replica a :class:`~repro.serve.SchedulingPolicy` instance)
    overrides the scenario's baked-in policy — how the CLI and bench compare
    FCFS vs. slack on the same workload — and ``clock`` overrides the
    default fresh :class:`~repro.serve.VirtualClock`;
    ``on_iteration(iteration, obs)`` is invoked after every router step so a
    live renderer can refresh mid-run.  Outputs and per-request telemetry
    are deterministic, and the summary's ``router`` block carries the
    placement counters.
    """
    scenario = (
        name_or_scenario
        if isinstance(name_or_scenario, Scenario)
        else build_scenario(name_or_scenario, seed=seed)
    )
    clock = clock if clock is not None else VirtualClock()
    obs = obs if obs is not None else Observability()
    router = ReplicaRouter(
        replicas,
        key_dim=DIM,
        num_blocks=scenario.num_blocks,
        block_size=scenario.block_size,
        storage=storage,
        policy=policy if policy is not None else scenario.policy,
        policy_seed=scenario.policy_seed,
        router_policy=router_policy,
        clock=clock,
        obs=obs,
        max_streams=scenario.max_streams,
        prefill_chunk=scenario.prefill_chunk,
        max_iteration_tokens=scenario.max_iteration_tokens,
        preemption=scenario.preemption,
        # fixed label: repeated in-process runs must emit identical series
        name=scenario.name,
    )
    pending = deque(sorted(scenario.requests, key=lambda r: (r.arrival, r.seed)))
    while pending or router.active:
        now = clock.now()
        while pending and pending[0].arrival <= now:
            router.submit(_loop_request(pending.popleft()))
        if not router.active:
            clock.advance(pending[0].arrival - now)
            continue
        require(
            router.iterations < max_iterations,
            f"scenario {scenario.name!r} exceeded {max_iterations} iterations",
        )
        router.step()
        if on_iteration is not None:
            on_iteration(router.iterations, obs)

    result = ScenarioResult(
        scenario=scenario,
        seed=int(seed),
        obs=obs,
        loop_stats=router.loop_stats(),
        server_stats=tuple(handle.server.stats_snapshot() for handle in router.replicas),
        telemetry=dict(router.telemetry),
        iterations=router.iterations,
        router_stats=router.stats,
        replicas=router.num_replicas,
    )
    router.close()
    return result


def _loop_request(request: ScenarioRequest) -> LoopRequest:
    """Materialize one scenario entry into the loop request it describes."""
    q, k, v = random_qkv(request.total, DIM, dtype=np.float32, seed=request.seed)
    return LoopRequest(
        q=q,
        k=k,
        v=v,
        mask=MASKS[request.mask_index],
        prompt_tokens=min(request.prompt, request.total),
        priority=request.priority,
        tenant=request.tenant,
        slo_latency_seconds=request.slo,
    )


__all__ = [
    "DIM",
    "MASKS",
    "SCENARIOS",
    "Scenario",
    "ScenarioRequest",
    "ScenarioResult",
    "build_scenario",
    "run_scenario",
]
