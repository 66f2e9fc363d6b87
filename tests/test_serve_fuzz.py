"""Differential fuzzing of the serving front-end against per-request oracles.

Random mixed workloads — batched one-shot requests and concurrent paged
decode streams — run through **one** :class:`~repro.serve.AttentionServer`,
and every response is checked against an independent per-request
``engine.run`` (decode streams against the causally clipped reference mask).
All workload randomness comes from the shared simulation harness
(``tests/harness/simulation.py``): the hypothesis strategies and the seeded
sweep draw the same spec shapes, so one seeded driver is the single source
of randomized serving workloads.  The seed-sweep test honors
``REPRO_FUZZ_SEED`` and prints the failing seed so a crash reproduces with
one environment variable:

    REPRO_FUZZ_SEED=<seed> pytest tests/test_serve_fuzz.py -k replay

The replica sweep rides the same sampler: one sampled workload is replayed
at 1, 2 and 4 replicas, through a client's loop and through a bare loop, and
every stream's output must be bit-identical across the five runs — routing
is placement, never computation.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harness.simulation import (
    DIM,
    MASKS,
    drive_arrivals,
    fuzz_seeds,
    run_simulation,
    sample_oneshot_specs,
    sample_stream_specs,
    sample_workload,
    oneshot_spec_strategy,
    oneshot_tensors,
    stream_spec_strategy,
    stream_tensors,
)
from repro.core.engine import GraphAttentionEngine
from repro.serve import (
    AttentionRequest,
    AttentionServer,
    ContinuousBatchingScheduler,
    ServingClient,
    VirtualClock,
)
from repro.serve.decode import decode_reference_mask


def _run_workload(requests, streams, *, flush_every, engine):
    """One server, mixed traffic; returns [(actual, expected), ...]."""
    server = AttentionServer(cache_capacity=16)
    server.create_block_pool(key_dim=DIM, num_blocks=256, block_size=4)
    pairs = []

    pending = []
    for spec in requests:
        q, k, v = oneshot_tensors(spec)
        mask = MASKS[spec["mask"]]
        pending.append(AttentionRequest(q=q, k=k, v=v, mask=mask))
        if len(pending) >= flush_every:
            for request, response in zip(pending, server.serve(pending)):
                expected = engine.run(request.q, request.k, request.v, request.mask)
                pairs.append((response.output, expected.output))
            pending = []
    for request, response in zip(pending, server.serve(pending)):
        expected = engine.run(request.q, request.k, request.v, request.mask)
        pairs.append((response.output, expected.output))

    # decode streams advance in lockstep so same-plan steps coalesce
    live = []
    for spec in streams:
        mask = MASKS[spec["mask"]]
        length = spec["length"]
        session = server.open_session(mask, length, retain_outputs=True)
        q, k, v = stream_tensors(spec)
        prompt = min(spec["prompt"], length)
        if prompt:
            session.prefill(q[:prompt], k[:prompt], v[:prompt])
        live.append({"session": session, "q": q, "k": k, "v": v, "at": prompt})
    while any(s["at"] < s["session"].horizon for s in live):
        batch = [s for s in live if s["at"] < s["session"].horizon]
        server.decode_steps(
            [
                (s["session"], s["q"][s["at"]], s["k"][s["at"]], s["v"][s["at"]])
                for s in batch
            ]
        )
        for s in batch:
            s["at"] += 1
    for s in live:
        session = s["session"]
        reference = engine.run(
            s["q"], s["k"], s["v"],
            decode_reference_mask(MASKS[streams[live.index(s)]["mask"]], session.horizon),
        )
        pairs.append((session.outputs(), reference.output))
        server.close_decode_session(session)
    assert server.block_pool.blocks_in_use == 0
    server.block_pool.check_consistency()
    server.close()
    return pairs


class TestDifferentialFuzz:
    @given(
        requests=st.lists(oneshot_spec_strategy(), max_size=6),
        streams=st.lists(stream_spec_strategy(), max_size=4),
        flush_every=st.integers(min_value=1, max_value=4),
    )
    def test_mixed_workload_matches_per_request_oracle(
        self, requests, streams, flush_every
    ):
        engine = GraphAttentionEngine()
        for actual, expected in _run_workload(
            requests, streams, flush_every=flush_every, engine=engine
        ):
            np.testing.assert_allclose(actual, expected, atol=1e-6, rtol=1e-6)


def _seeded_workload(seed):
    """One caller-driven mixed workload from one integer, via the harness."""
    rng = np.random.default_rng(seed)
    requests = sample_oneshot_specs(rng, max_requests=5)
    streams = sample_stream_specs(rng, max_streams=3)
    return requests, streams, int(rng.integers(1, 4))


@pytest.mark.parametrize("seed", fuzz_seeds(default_count=8))
def test_seed_replay(seed):
    """Seed-addressable fuzz sweep; a failure names its replay seed."""
    engine = GraphAttentionEngine()
    requests, streams, flush_every = _seeded_workload(seed)
    try:
        for actual, expected in _run_workload(
            requests, streams, flush_every=flush_every, engine=engine
        ):
            np.testing.assert_allclose(actual, expected, atol=1e-6, rtol=1e-6)
    except Exception as error:  # pragma: no cover - only on regression
        raise AssertionError(
            f"fuzz workload failed; replay with REPRO_FUZZ_SEED={seed} PYTHONPATH=src"
            f" python -m pytest tests/test_serve_fuzz.py -k replay -q"
        ) from error


def _serve_on_client(workload):
    """The workload's arrivals submitted through a ``ServingClient`` of one
    replica whose loop is stepped directly, as a closed-loop driver steps
    it: ``(requests, outputs)``, both keyed by id."""
    clock = VirtualClock()
    with ServingClient(
        key_dim=workload.dim,
        num_blocks=workload.num_blocks,
        block_size=workload.block_size,
        policy=workload.policy,
        policy_seed=workload.policy_seed,
        clock=clock,
        max_streams=workload.max_streams,
        prefill_chunk=workload.prefill_chunk,
        max_iteration_tokens=workload.max_iteration_tokens,
        preemption=workload.preemption,
    ) as client:
        requests, _ = drive_arrivals(workload, clock, client.submit, client.scheduler)
        return requests, dict(client.scheduler.results)


def _serve_on_bare_loop(workload):
    """The same arrivals on a :class:`ContinuousBatchingScheduler` built
    without a client or router: ``(requests, outputs)``, both keyed by id."""
    clock = VirtualClock()
    with AttentionServer() as server:
        server.create_block_pool(
            key_dim=workload.dim, num_blocks=workload.num_blocks, block_size=workload.block_size
        )
        loop = ContinuousBatchingScheduler(
            server,
            policy=workload.policy,
            policy_seed=workload.policy_seed,
            clock=clock,
            max_streams=workload.max_streams,
            prefill_chunk=workload.prefill_chunk,
            max_iteration_tokens=workload.max_iteration_tokens,
            preemption=workload.preemption,
        )
        requests, _ = drive_arrivals(workload, clock, loop.submit, loop)
        return requests, dict(loop.results)


@pytest.mark.parametrize("seed", fuzz_seeds(default_count=4))
def test_replica_counts_agree_bitwise(seed):
    """One sampled workload, three replica counts, a client's loop and a
    bare loop, identical bits throughout.

    The drivers submit arrivals in the same order and assign monotonically
    increasing ids, so matching submission ranks across runs pairs the same
    stream with itself; every pair must be ``assert_array_equal``-identical
    (the run_simulation invariant block already pinned each run to its own
    DecodeSession replay — this closes the loop *between* replica counts,
    and between a router of one and the loop it wraps).
    """
    workload = sample_workload(seed)
    runs = [
        (report.requests, report.outputs)
        for report in (
            run_simulation(replace(workload, replicas=n, router_policy="affinity"))
            for n in (1, 2, 4)
        )
    ]
    for loop_requests, loop_outputs in (
        _serve_on_client(workload),
        _serve_on_bare_loop(workload),
    ):
        # a router of one numbers streams exactly as a bare loop does
        assert list(loop_requests) == list(runs[0][0])
        runs.append((loop_requests, loop_outputs))
    base_requests, base_outputs = runs[0]
    base_order = sorted(base_requests)
    for requests, outputs in runs[1:]:
        order = sorted(requests)
        assert [base_requests[r] for r in base_order] == [
            requests[r] for r in order
        ], f"submission order diverged across replica counts (seed {seed})"
        for rid_a, rid_b in zip(base_order, order):
            np.testing.assert_array_equal(
                base_outputs[rid_a],
                outputs[rid_b],
                err_msg=(
                    f"stream diverged between replica counts; replay with"
                    f" REPRO_FUZZ_SEED={seed}"
                ),
            )
