"""Deterministic simulation harness for the continuous-batching loop.

One seeded driver is the single source of randomized serving workloads for
the whole test suite: Poisson arrivals on a **virtual clock**, ragged
prompt/output lengths, a mask drawn from the canonical zoo, a scheduling
policy, a preemption mode, a per-request tensor profile and a pool sized
anywhere from comfortable to storm-tight all come from one ``numpy``
generator, so every run is addressable by a single integer seed.

:func:`run_simulation` drives a :class:`~repro.serve.ReplicaRouter` of the
workload's replica count (one replica is one
:class:`~repro.serve.ContinuousBatchingScheduler`) to completion and then
checks the global invariants every workload must satisfy, failing with the
replay seed in the message:

* **no lost or duplicated tokens** — every request's recorded outputs cover
  exactly its ``total`` rows, and the loop's token counters sum to the
  workload's token count;
* **bit-exactness** — each request's outputs equal a private per-request
  :class:`~repro.serve.DecodeSession` replay *bit for bit* (even across
  preemption, swap-in and recompute restores) and match the one-shot
  ``engine.run`` oracle over :func:`~repro.serve.decode_reference_mask`
  within float tolerance;
* **clean drain** — on every replica: pool refcounts zero, pool
  consistency, empty swap store;
* **conservation across replicas** — no stream lost or duplicated, the
  metrics registry equal to the summed per-replica loop counters (moved
  streams re-count as submissions), and route-decision accounting closed
  (hits + misses = routed = requests).

Workloads also sample a **replica count** and **router policy** (the last
draws of the seed's rng sequence, so pre-router seeds reproduce identical
workloads).

Seed plumbing: ``REPRO_FUZZ_SEED`` (comma-separated list) pins the base
seeds everywhere; ``REPRO_SIM_SEED_COUNT`` expands each base seed into a
contiguous family (``base * 100 + i``), which is how the CI ``sim`` job's
5-seed matrix becomes the nightly 100-seed sweep; ``REPRO_SIM_REPLICAS``
pins the sampled replica count (the CI router job's replica matrix).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.core.engine import GraphAttentionEngine
from repro.masks.presets import longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.perfmodel.decode import blocks_for_tokens
from repro.serve import (
    DecodeSession,
    LoopRequest,
    ReplicaRouter,
    VirtualClock,
    decode_reference_mask,
)
from repro.utils.rng import random_qkv

#: Embedded dimension every randomized serving workload uses.
DIM = 4

#: Canonical mask zoo for randomized serving tests.  Index into this list
#: from specs so shrunk failures name a mask by small integer.
MASKS = [
    LocalMask(window=3),
    LocalMask(window=7),
    Dilated1DMask(window=5, dilation=2),
    CausalMask(),
    longformer_mask(reach=2, global_tokens=(0,)),
    None,  # dense
]

#: Masks usable for decode streams (dense excluded: decode plans want a
#: structured row program; ``None`` is only for one-shot requests).
STREAM_MASKS = len(MASKS) - 1

POLICIES = ("fcfs", "priority", "weighted")
#: Preemption modes a sampled workload can run.  ``"swap"`` fills two slots:
#: the first stood for the retired ``"auto"`` mode, which ran as swap with no
#: device given, so every seed keeps the draw and the workload it had.
PREEMPTION_MODES = ("swap", "swap", "recompute")
PRIORITIES = (0.5, 1.0, 2.0, 4.0)
#: Replica counts a sampled workload can route across; 1 is over-weighted so
#: most seeds run a router of one, which is one loop.
REPLICA_CHOICES = (1, 1, 2, 4)
ROUTER_POLICY_CHOICES = ("affinity", "weighted", "round_robin")


# --------------------------------------------------------------------------- #
# Seed plumbing
# --------------------------------------------------------------------------- #
def fuzz_seeds(default_count: int = 8) -> List[int]:
    """Base replay seeds: ``REPRO_FUZZ_SEED`` (comma list) or ``range(n)``."""
    raw = os.environ.get("REPRO_FUZZ_SEED")
    if raw:
        return [int(part) for part in raw.split(",")]
    return list(range(default_count))


def sim_seeds(default_count: int = 3) -> List[int]:
    """Simulation sweep seeds: each base seed times ``REPRO_SIM_SEED_COUNT``.

    With no environment overrides this is ``range(default_count)``.  The CI
    ``sim`` job pins one base seed per matrix entry; the nightly run raises
    ``REPRO_SIM_SEED_COUNT`` so each entry covers a disjoint family
    ``base * 100 + i`` (disjoint for bases < 100 and counts <= 100).
    """
    count = int(os.environ.get("REPRO_SIM_SEED_COUNT", "0") or 0)
    bases = fuzz_seeds(default_count)
    if count <= 1:
        return bases
    return [base * 100 + i for base in bases for i in range(count)]


# --------------------------------------------------------------------------- #
# Workload specs
# --------------------------------------------------------------------------- #
#: Tensor profiles a simulated stream can decode over.  ``iid`` is the
#: default random stream; ``peaked`` makes every row's attention peak its own
#: most recent column with scores that grow along the stream, so the online
#: softmax rescales its running maximum at every new key; ``collapse`` is
#: peaked for the first half of the horizon and iid after it, so one stream
#: crosses from near one-hot rows to flat ones mid-run.
PROFILES = ("iid", "peaked", "collapse")


@dataclass(frozen=True)
class SimRequestSpec:
    """One simulated stream: arrival, shape, mask, priority, tensor seed."""

    mask_index: int
    prompt: int
    total: int
    priority: float
    arrival: float
    seed: int
    #: tensor profile (see :data:`PROFILES`)
    profile: str = "iid"

    def tensors(self, dim: int = DIM):
        q, k, v = random_qkv(self.total, dim, dtype=np.float32, seed=self.seed)
        if self.profile == "iid":
            return q, k, v
        # peaked: queries aim along e0 and key magnitude grows with position,
        # so each row's argmax is its newest column.  collapse: same, but the
        # growth stops at the midpoint and keys go back to iid noise.
        direction = np.zeros(dim, dtype=np.float32)
        direction[0] = 1.0
        scale = 1.0 + np.arange(self.total, dtype=np.float32)
        peaked_k = np.broadcast_to(direction, (self.total, dim)) * scale[:, None]
        q = np.broadcast_to(direction, q.shape).copy()
        if self.profile == "collapse":
            half = max(1, self.total // 2)
            k = np.concatenate([peaked_k[:half], k[half:]]).astype(np.float32)
        else:
            k = peaked_k.astype(np.float32)
        return q, k, v

    @property
    def mask(self):
        return MASKS[self.mask_index]


@dataclass(frozen=True)
class SimWorkload:
    """A complete simulation: request stream plus scheduler/pool configuration."""

    specs: Sequence[SimRequestSpec]
    num_blocks: int
    block_size: int = 4
    max_streams: int = 4
    prefill_chunk: int = 8
    max_iteration_tokens: Optional[int] = None
    policy: str = "fcfs"
    policy_seed: int = 0
    preemption: str = "swap"
    dim: int = DIM
    #: base seed this workload was sampled from (None for hand-built ones);
    #: failure messages print it for one-variable replay
    seed: Optional[int] = None
    #: replicas of the ReplicaRouter the workload runs through (each pool
    #: sized ``num_blocks``)
    replicas: int = 1
    #: placement policy across the replicas
    router_policy: str = "affinity"

    @property
    def total_tokens(self) -> int:
        return sum(spec.total for spec in self.specs)


def min_feasible_blocks(specs: Sequence[SimRequestSpec], block_size: int) -> int:
    """Blocks the largest stream needs to run alone (+ tail-CoW/restore slack).

    Below this the loop is *structurally* infeasible — no preemption schedule
    can fit the stream — so every sampled pool sizes at or above it; at
    exactly this bound admission pressure is maximal and every iteration may
    preempt.
    """
    largest = max(blocks_for_tokens(spec.total, block_size) for spec in specs)
    return largest + 2


def build_workload(
    entries: Sequence[dict],
    *,
    extra_blocks: int = 0,
    block_size: int = 4,
    max_streams: int = 4,
    prefill_chunk: int = 8,
    max_iteration_tokens: Optional[int] = None,
    policy: str = "fcfs",
    policy_seed: int = 0,
    preemption: str = "swap",
    seed: Optional[int] = None,
) -> SimWorkload:
    """Assemble a :class:`SimWorkload` from plain spec dictionaries.

    Each entry carries ``mask`` (index), ``prompt``, ``decode``, ``priority``
    (index into :data:`PRIORITIES`), ``gap`` (inter-arrival scaled to
    iterations), ``seed`` and optional ``profile`` (tensor profile, default
    ``iid``); arrivals are the running sum of gaps.  The pool is sized ``min_feasible +
    extra_blocks``, so ``extra_blocks=0`` is the preemption-storm edge and
    large values are comfortable.
    """
    specs: List[SimRequestSpec] = []
    arrival = 0.0
    for entry in entries:
        arrival += float(entry.get("gap", 0.0))
        prompt = int(entry["prompt"])
        total = max(1, prompt + int(entry["decode"]))
        specs.append(
            SimRequestSpec(
                mask_index=int(entry["mask"]) % STREAM_MASKS,
                prompt=min(prompt, total),
                total=total,
                priority=PRIORITIES[int(entry.get("priority", 1)) % len(PRIORITIES)],
                arrival=arrival,
                seed=int(entry["seed"]),
                profile=PROFILES[int(entry.get("profile", 0)) % len(PROFILES)],
            )
        )
    return SimWorkload(
        specs=tuple(specs),
        num_blocks=min_feasible_blocks(specs, block_size) + int(extra_blocks),
        block_size=block_size,
        max_streams=max_streams,
        prefill_chunk=prefill_chunk,
        max_iteration_tokens=max_iteration_tokens,
        policy=policy,
        policy_seed=policy_seed,
        preemption=preemption,
        seed=seed,
    )


def sample_workload(
    seed: int,
    *,
    max_requests: int = 6,
    max_prompt: int = 16,
    max_decode: int = 10,
    arrival_rate: float = 0.5,
) -> SimWorkload:
    """Draw one complete workload from a single integer seed.

    Poisson arrivals (exponential inter-arrival gaps at ``arrival_rate``
    requests per virtual second), ragged prompt/output lengths, random mask,
    priority and tensor profile, policy, preemption mode,
    a pool tightness anywhere from storm (``min_feasible``) to comfortable,
    and a replica count + router policy (drawn *last*, so seeds sampled
    before the router existed reproduce identical workloads; the env var
    ``REPRO_SIM_REPLICAS`` pins the replica count after the draw without
    perturbing anything else).
    """
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, max_requests + 1))
    entries = [
        {
            "mask": int(rng.integers(STREAM_MASKS)),
            "prompt": int(rng.integers(0, max_prompt + 1)),
            "decode": int(rng.integers(0, max_decode + 1)),
            "priority": int(rng.integers(len(PRIORITIES))),
            "gap": float(rng.exponential(1.0 / arrival_rate)),
            "seed": int(rng.integers(2**16)),
            "profile": int(rng.integers(len(PROFILES))),
        }
        for _ in range(count)
    ]
    workload = build_workload(
        entries,
        extra_blocks=int(rng.integers(0, 7)),
        block_size=int(rng.integers(2, 7)),
        max_streams=int(rng.integers(1, 5)),
        prefill_chunk=int(rng.integers(1, 9)),
        max_iteration_tokens=None if rng.integers(2) else int(rng.integers(4, 33)),
        policy=POLICIES[int(rng.integers(len(POLICIES)))],
        policy_seed=int(rng.integers(2**16)),
        preemption=PREEMPTION_MODES[int(rng.integers(len(PREEMPTION_MODES)))],
        seed=seed,
    )
    # Router draws come LAST so every seed sampled before the router existed
    # keeps its exact workload; the env pin overrides only the replica count.
    replicas = int(REPLICA_CHOICES[int(rng.integers(len(REPLICA_CHOICES)))])
    router_policy = ROUTER_POLICY_CHOICES[int(rng.integers(len(ROUTER_POLICY_CHOICES)))]
    pinned = os.environ.get("REPRO_SIM_REPLICAS")
    if pinned:
        replicas = int(pinned)
    return replace(workload, replicas=replicas, router_policy=router_policy)


# --------------------------------------------------------------------------- #
# Caller-driven workload sampling (shared with the differential fuzz suite)
# --------------------------------------------------------------------------- #
def sample_oneshot_specs(rng: np.random.Generator, max_requests: int = 5) -> List[dict]:
    """Specs for batched one-shot requests (mask/length/batch-shape/seed)."""
    return [
        {
            "mask": int(rng.integers(len(MASKS))),
            "length": int(rng.integers(1, 24)),
            "batch": int(rng.integers(3)),
            "seed": int(rng.integers(2**16)),
        }
        for _ in range(int(rng.integers(1, max_requests + 1)))
    ]


def sample_stream_specs(rng: np.random.Generator, max_streams: int = 3) -> List[dict]:
    """Specs for caller-driven decode streams (mask/length/prompt/seed)."""
    return [
        {
            "mask": int(rng.integers(STREAM_MASKS)),
            "length": int(rng.integers(1, 16)),
            "prompt": int(rng.integers(16)),
            "seed": int(rng.integers(2**16)),
        }
        for _ in range(int(rng.integers(1, max_streams + 1)))
    ]


def oneshot_tensors(spec: dict, dim: int = DIM):
    """Q/K/V for a one-shot request spec (``batch`` picks the leading axes)."""
    batch = {0: {}, 1: {"heads": 2}, 2: {"heads": 2, "batch": 2}}[spec["batch"]]
    return random_qkv(spec["length"], dim, dtype=np.float32, seed=spec["seed"], **batch)


def stream_tensors(spec: dict, dim: int = DIM):
    """Q/K/V covering a caller-driven decode stream's full horizon."""
    return random_qkv(spec["length"], dim, dtype=np.float32, seed=spec["seed"])


# --------------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------------- #
def oneshot_spec_strategy() -> st.SearchStrategy:
    """Strategy matching :func:`sample_oneshot_specs` entries."""
    return st.fixed_dictionaries(
        {
            "mask": st.integers(min_value=0, max_value=len(MASKS) - 1),
            "length": st.integers(min_value=1, max_value=24),
            "batch": st.integers(min_value=0, max_value=2),
            "seed": st.integers(min_value=0, max_value=2**16),
        }
    )


def stream_spec_strategy() -> st.SearchStrategy:
    """Strategy matching :func:`sample_stream_specs` entries."""
    return st.fixed_dictionaries(
        {
            "mask": st.integers(min_value=0, max_value=STREAM_MASKS - 1),
            "length": st.integers(min_value=1, max_value=16),
            "prompt": st.integers(min_value=0, max_value=16),
            "seed": st.integers(min_value=0, max_value=2**16),
        }
    )


def workload_strategy(max_requests: int = 5) -> st.SearchStrategy:
    """Strategy over full :class:`SimWorkload`\\ s (shrinks toward tiny runs)."""
    entry = st.fixed_dictionaries(
        {
            "mask": st.integers(min_value=0, max_value=STREAM_MASKS - 1),
            "prompt": st.integers(min_value=0, max_value=12),
            "decode": st.integers(min_value=0, max_value=8),
            "priority": st.integers(min_value=0, max_value=len(PRIORITIES) - 1),
            "gap": st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
            "seed": st.integers(min_value=0, max_value=2**16),
            "profile": st.integers(min_value=0, max_value=len(PROFILES) - 1),
        }
    )
    return st.builds(
        lambda entries, extra, bs, streams, chunk, budget, pol, pol_seed, pre: build_workload(
            entries,
            extra_blocks=extra,
            block_size=bs,
            max_streams=streams,
            prefill_chunk=chunk,
            max_iteration_tokens=budget,
            policy=pol,
            policy_seed=pol_seed,
            preemption=pre,
        ),
        st.lists(entry, min_size=1, max_size=max_requests),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
        st.one_of(st.none(), st.integers(min_value=4, max_value=24)),
        st.sampled_from(POLICIES),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from(PREEMPTION_MODES),
    )


# --------------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------------- #
@dataclass
class SimulationReport:
    """Everything a finished simulation exposes for further assertions."""

    workload: SimWorkload
    outputs: Dict[int, np.ndarray]
    telemetry: Dict[int, object]
    #: loop counters summed over the replicas
    loop_stats: object
    #: one live ``LoopStats`` per replica
    replica_loop_stats: Tuple[object, ...]
    #: per-replica server stats, pool snapshots and swap-store stats
    server_stats: Tuple[object, ...]
    pool_stats: Tuple[object, ...]
    swap_stats: Tuple[object, ...]
    #: router steps taken
    iterations: int
    router_stats: object
    #: request id -> spec, in submission order
    requests: Dict[int, SimRequestSpec] = field(default_factory=dict)
    #: the observability recorder the run was driven with (None = disabled)
    obs: Optional[object] = None


def _verify_request_outputs(requests, tensors, results, telemetry, replay) -> int:
    """Per-request oracle block of :func:`run_simulation`.

    Asserts every request finished with exactly ``total`` rows, bit-equal to
    a private :class:`DecodeSession` replay and float-close to the one-shot
    ``engine.run`` oracle; returns the summed emitted-token count.
    """
    engine = GraphAttentionEngine()
    emitted_total = 0
    for rid, spec in requests.items():
        q, k, v = tensors[rid]
        output = results.get(rid)
        assert output is not None, f"request {rid} never finished{replay}"
        record = telemetry[rid]
        # no lost or duplicated tokens: exactly `total` rows, each once
        assert output.shape[-2] == spec.total, (
            f"request {rid} emitted {output.shape[-2]} of {spec.total} rows{replay}"
        )
        assert record.tokens_emitted == spec.total, (
            f"request {rid} counted {record.tokens_emitted} tokens{replay}"
        )
        emitted_total += record.tokens_emitted
        # bit-exact vs. the per-request decode oracle, even across
        # preemption / swap-in / recompute restores / rebalance moves
        oracle = DecodeSession.start(spec.mask, spec.total, retain_outputs=True)
        if spec.prompt:
            oracle.prefill(q[: spec.prompt], k[: spec.prompt], v[: spec.prompt])
        for i in range(spec.prompt, spec.total):
            oracle.step(q[i], k[i], v[i])
        np.testing.assert_array_equal(
            output,
            oracle.outputs(),
            err_msg=f"request {rid} diverged from its decode replay{replay}",
        )
        # and equal to the one-shot engine oracle within float tolerance
        reference = engine.run(q, k, v, decode_reference_mask(spec.mask, spec.total))
        np.testing.assert_allclose(
            output,
            reference.output,
            atol=1e-6,
            rtol=1e-6,
            err_msg=f"request {rid} diverged from engine.run{replay}",
        )
    return emitted_total


def drive_arrivals(
    workload: SimWorkload,
    clock: VirtualClock,
    submit,
    engine,
    *,
    max_iterations: int = 20_000,
    replay: str = "",
):
    """Submit each spec at its arrival time on ``clock`` and step ``engine``
    (a router or a bare loop) until it drains; ``submit(request)`` returns
    the stream's id.  Returns ``(requests, tensors)``, both keyed by id in
    submission order."""
    pending = deque(sorted(workload.specs, key=lambda s: (s.arrival, s.seed)))
    requests: Dict[int, SimRequestSpec] = {}
    tensors: Dict[int, tuple] = {}
    steps = 0
    while pending or engine.active:
        now = clock.now()
        while pending and pending[0].arrival <= now:
            spec = pending.popleft()
            q, k, v = spec.tensors(workload.dim)
            rid = submit(
                LoopRequest(
                    q=q,
                    k=k,
                    v=v,
                    mask=spec.mask,
                    prompt_tokens=spec.prompt,
                    priority=spec.priority,
                )
            )
            requests[rid] = spec
            tensors[rid] = (q, k, v)
        if not engine.active:
            clock.advance(pending[0].arrival - now)
            continue
        assert steps < max_iterations, (
            f"simulation exceeded {max_iterations} iterations{replay}"
        )
        engine.step()
        steps += 1
    return requests, tensors


def run_simulation(
    workload: SimWorkload,
    *,
    max_iterations: int = 20_000,
    check: bool = True,
    obs=None,
) -> SimulationReport:
    """Run one workload to drain on a virtual clock; verify global invariants.

    The arrivals go through a :class:`ReplicaRouter` of ``workload.replicas``
    replicas.  ``check=False`` skips the invariant block (for tests asserting
    failure behaviour or collecting raw telemetry); everything else is
    identical.  ``obs`` (an :class:`repro.obs.Observability`) threads a
    recorder through the servers, pools and loops; when given, the invariant
    block additionally cross-checks the metrics registry against the loops'
    own counters.
    """
    replay = (
        ""
        if workload.seed is None
        else (
            f" (replay: REPRO_FUZZ_SEED={workload.seed}"
            f" REPRO_SIM_REPLICAS={workload.replicas} PYTHONPATH=src"
            f" python -m pytest tests/test_serve_loop_properties.py -k seed_sweep -q)"
        )
    )
    clock = VirtualClock()
    router = ReplicaRouter(
        workload.replicas,
        key_dim=workload.dim,
        num_blocks=workload.num_blocks,
        block_size=workload.block_size,
        policy=workload.policy,
        policy_seed=workload.policy_seed,
        router_policy=workload.router_policy,
        clock=clock,
        obs=obs,
        max_streams=workload.max_streams,
        prefill_chunk=workload.prefill_chunk,
        max_iteration_tokens=workload.max_iteration_tokens,
        preemption=workload.preemption,
        name="sim",
    )
    requests, tensors = drive_arrivals(
        workload, clock, router.submit, router, max_iterations=max_iterations, replay=replay
    )

    stats = router.loop_stats()
    report = SimulationReport(
        workload=workload,
        outputs=dict(router.results),
        telemetry=dict(router.telemetry),
        loop_stats=stats,
        replica_loop_stats=tuple(handle.scheduler.stats for handle in router.replicas),
        server_stats=tuple(handle.server.stats for handle in router.replicas),
        pool_stats=tuple(handle.pool.stats.snapshot() for handle in router.replicas),
        swap_stats=tuple(handle.swap_store.stats for handle in router.replicas),
        iterations=router.iterations,
        router_stats=router.stats,
        requests=requests,
        obs=obs,
    )
    if check:
        emitted_total = _verify_request_outputs(
            requests, tensors, router.results, router.telemetry, replay
        )
        assert emitted_total == workload.total_tokens, f"token conservation broke{replay}"
        assert stats.tokens_total == workload.total_tokens, (
            f"summed replica counters disagree with the workload token count{replay}"
        )
        # no stream lost or duplicated across replicas
        assert len(router.results) == len(requests), replay
        assert stats.finished == len(requests), (
            f"replicas finished {stats.finished} of {len(requests)} streams{replay}"
        )
        # every route decision accounted for; nothing ever sharded here
        rstats = router.stats
        assert rstats.routed == len(requests), replay
        assert rstats.route_hits + rstats.route_misses == rstats.routed, (
            f"route accounting broke{replay}"
        )
        assert rstats.sharded_requests == 0, replay
        # each rebalance move is exactly one withdraw + one re-queue
        assert stats.withdrawn == rstats.moved_streams, (
            f"withdrawals disagree with moved streams{replay}"
        )
        # clean drain on *every* replica: refcounts zero, nothing swapped
        for handle in router.replicas:
            assert handle.pool.blocks_in_use == 0, (
                f"replica {handle.index} leaked blocks at drain{replay}"
            )
            handle.pool.check_consistency()
            assert len(handle.swap_store) == 0, (
                f"replica {handle.index} left streams in its swap store{replay}"
            )
        if obs is not None and obs.enabled:
            # the shared registry must equal the summed per-replica counters;
            # a moved stream re-counts as a submission on its target replica
            snap = obs.snapshot()

            def metric(name, **labels):
                sample = snap.get(name, **labels)
                return 0.0 if sample is None else sample.value

            assert metric("loop_requests_submitted_total") == (
                len(requests) + rstats.moved_streams
            ), replay
            assert metric("loop_requests_finished_total") == len(requests), replay
            assert metric("loop_iterations_total") == stats.iterations, replay
            assert metric("loop_prefill_tokens_total") == stats.prefill_tokens, replay
            assert metric("loop_decode_tokens_total") == stats.decode_tokens, replay
            preempted = sum(
                sample.value for sample in snap.with_name("loop_preemptions_total")
            )
            assert preempted == stats.preemptions, replay
            ttft = snap.get("serving_ttft_seconds")
            assert ttft is not None and ttft.count == len(requests), replay
            assert metric("router_routes_total", outcome="hit") == rstats.route_hits, replay
            assert metric("router_routes_total", outcome="miss") == rstats.route_misses, (
                replay
            )
            assert metric("router_rebalance_passes_total") == rstats.rebalance_passes, (
                replay
            )
            assert metric("router_moved_streams_total") == rstats.moved_streams, replay
    router.close()
    return report
