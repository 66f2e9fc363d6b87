"""Unit tests for the continuous-batching loop's building blocks.

Clocks, policies, the swap store, stacked/chunked prefill and the scheduler's
lifecycle mechanics (admission, budgeting, preemption, infeasibility) are
each pinned down in isolation here; the randomized whole-system behaviour
lives in ``test_serve_loop_properties.py`` on top of the simulation harness.
"""

import numpy as np
import pytest

from repro.core.engine import GraphAttentionEngine
from repro.masks.presets import longformer_mask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.obs.recorder import Observability
from repro.serve import (
    AttentionServer,
    ServingClient,
    ContinuousBatchingScheduler,
    DecodeSession,
    FCFSPolicy,
    InfeasibleRequest,
    IterationReport,
    LoopRequest,
    PriorityPolicy,
    SwapStore,
    VirtualClock,
    WallClock,
    WeightedFairPolicy,
    decode_reference_mask,
    drain,
    scheduling_policy,
    stacked_prefill,
)
from repro.serve.loop import STALL_STEPS, RequestTelemetry, _Stream
from repro.serve.paging import BlockPool, PagedKVCache
from repro.utils.rng import random_qkv

DIM = 4
MASK = LocalMask(window=5)


def _stream(rid, *, arrival=0.0, priority=1.0, emitted=0):
    telemetry = RequestTelemetry(
        request_id=rid,
        priority=priority,
        prompt_tokens=1,
        total_tokens=8,
        arrival_time=arrival,
        tokens_emitted=emitted,
    )
    q, k, v = random_qkv(8, DIM, dtype=np.float32, seed=rid)
    request = LoopRequest(q=q, k=k, v=v, mask=MASK, prompt_tokens=1, priority=priority)
    request.request_id = rid
    return _Stream(request=request, telemetry=telemetry, waiting_since=arrival)


class TestClocks:
    def test_virtual_clock_ticks_and_advances(self):
        clock = VirtualClock(start=5.0, iteration_seconds=2.0)
        assert clock.now() == 5.0
        clock.tick()
        assert clock.now() == 7.0
        clock.advance(0.5)
        assert clock.now() == 7.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_wall_clock_monotonic_and_tick_noop(self):
        clock = WallClock()
        a = clock.now()
        clock.tick()
        assert clock.now() >= a


class TestPolicies:
    def test_fcfs_ranks_by_arrival(self):
        streams = [_stream(2, arrival=3.0), _stream(0, arrival=1.0), _stream(1, arrival=2.0)]
        order = FCFSPolicy().rank(streams, now=10.0)
        assert [s.request.request_id for s in order] == [0, 1, 2]

    def test_priority_ranks_by_priority_then_arrival(self):
        streams = [
            _stream(0, arrival=0.0, priority=1.0),
            _stream(1, arrival=1.0, priority=4.0),
            _stream(2, arrival=2.0, priority=4.0),
        ]
        order = PriorityPolicy().rank(streams, now=10.0)
        assert [s.request.request_id for s in order] == [1, 2, 0]

    def test_victims_reverse_rank(self):
        streams = [_stream(0, arrival=0.0), _stream(1, arrival=1.0)]
        assert [s.request.request_id for s in FCFSPolicy().victims(streams, 2.0)] == [1, 0]

    def test_weighted_fair_is_seed_deterministic_and_input_order_invariant(self):
        streams = [_stream(i, arrival=float(i), emitted=i * 10) for i in range(5)]
        a = WeightedFairPolicy(seed=7).rank(streams, now=0.0)
        b = WeightedFairPolicy(seed=7).rank(list(reversed(streams)), now=0.0)
        assert [s.request.request_id for s in a] == [s.request.request_id for s in b]

    def test_weighted_fair_prefers_underserved_streams(self):
        # one starved stream among heavily-served ones: with weight
        # priority/(1+served) it should head the ranking almost always
        streams = [_stream(0, emitted=0)] + [_stream(i, emitted=500) for i in range(1, 5)]
        policy = WeightedFairPolicy(seed=0)
        heads = [policy.rank(streams, now=0.0)[0].request.request_id for _ in range(50)]
        assert heads.count(0) > 40

    def test_weighted_fair_first_pick_follows_the_weights(self):
        # one vectorised draw per rank: its order is distributed as successive
        # weight-proportional picks, so the head is stream i w.p. w_i / sum(w)
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        streams = [_stream(i, arrival=float(i), priority=w) for i, w in enumerate(weights)]
        policy, ranks = WeightedFairPolicy(seed=0), 20_000
        heads = np.bincount([policy.rank(streams, now=0.0)[0].request.request_id for _ in range(ranks)], minlength=4)
        p = weights / weights.sum()
        assert np.all(np.abs(heads - ranks * p) <= 4 * np.sqrt(ranks * p * (1 - p)))

    def test_factory(self):
        assert isinstance(scheduling_policy("fcfs"), FCFSPolicy)
        assert isinstance(scheduling_policy("priority"), PriorityPolicy)
        assert isinstance(scheduling_policy("weighted", seed=3), WeightedFairPolicy)
        with pytest.raises(ValueError):
            scheduling_policy("lottery")


class TestLoopRequest:
    def test_validation(self):
        q, k, v = random_qkv(8, DIM, dtype=np.float32, seed=0)
        with pytest.raises(ValueError):
            LoopRequest(q=q, k=k, v=v, prompt_tokens=9)  # prompt beyond stream
        with pytest.raises(ValueError):
            LoopRequest(q=q, k=k, v=v, priority=0.0)
        with pytest.raises(ValueError):
            LoopRequest(q=q, k=k[:4], v=v)
        request = LoopRequest(q=q, k=k, v=v, prompt_tokens=3)
        assert request.total_tokens == 8 and request.decode_tokens == 5
        assert request.batch_shape == ()


class TestSwapStore:
    def test_put_peek_pop_and_stats(self):
        pool = BlockPool(8, 4, key_dim=DIM)
        cache = PagedKVCache(pool)
        k = np.arange(24, dtype=np.float32).reshape(6, DIM)
        cache.extend(k, k + 100.0)
        handle = cache.swap_out()
        assert cache.released and pool.blocks_in_use == 0
        assert handle.length == 6 and handle.nbytes == k.nbytes * 2

        store = SwapStore()
        store.put("s", handle)
        assert "s" in store and len(store) == 1
        assert store.resident_bytes == handle.nbytes
        assert store.stats.swap_outs == 1 and store.stats.bytes_out == handle.nbytes
        with pytest.raises(ValueError):
            store.put("s", handle)  # double swap-out
        assert store.peek("s") is handle
        assert store.stats.swap_ins == 0  # peek does not consume
        assert store.pop("s") is handle
        assert len(store) == 0 and store.stats.swap_ins == 1
        with pytest.raises(ValueError):
            store.pop("s")

    def test_swap_out_round_trip_is_bit_exact_and_reshares_warm_blocks(self):
        pool = BlockPool(8, 4, key_dim=DIM)
        cache = PagedKVCache(pool)
        q, k, v = random_qkv(8, DIM, dtype=np.float32, seed=1)
        cache.extend(k, v)
        handle = cache.swap_out()
        # full blocks parked in the evictable LRU; the restore re-shares them
        shares_before = pool.stats.share_hits
        restored = PagedKVCache(pool)
        restored.extend(handle.keys, handle.values)
        assert pool.stats.share_hits > shares_before
        np.testing.assert_array_equal(restored.keys(), k)
        np.testing.assert_array_equal(restored.values(), v)
        restored.release()

    def test_swap_out_refuses_released_cache(self):
        pool = BlockPool(4, 4, key_dim=DIM)
        cache = PagedKVCache(pool)
        cache.release()
        with pytest.raises(ValueError):
            cache.swap_out()


class TestStackedPrefill:
    def test_matches_per_session_prefill_bit_exactly(self):
        pool = BlockPool(64, 4, key_dim=DIM)
        q, k, v = random_qkv(12, DIM, dtype=np.float32, seed=3)
        stacked = [DecodeSession.start(MASK, 12, pool=pool) for _ in range(3)]
        solo = DecodeSession.start(MASK, 12, pool=pool)
        results = stacked_prefill(
            stacked, [q[:8]] * 3, [k[:8]] * 3, [v[:8]] * 3
        )
        reference = solo.prefill(q[:8], k[:8], v[:8])
        for result in results:
            np.testing.assert_array_equal(result.output, reference.output)
            assert result.meta["coalesced"] == 3
        assert all(s.position == 8 for s in stacked)
        for s in stacked + [solo]:
            s.close()
        assert pool.blocks_in_use == 0

    def test_mismatched_sessions_equal_individual_prefills(self):
        pool = BlockPool(64, 4, key_dim=DIM)
        masks = (MASK, MASK, LocalMask(window=9))
        stacked = [DecodeSession.start(mask, 12, pool=pool) for mask in masks]
        solo = [DecodeSession.start(mask, 12, pool=pool) for mask in masks]
        q, k, v = random_qkv(12, DIM, dtype=np.float32, seed=4)
        for session in (stacked[1], solo[1]):
            session.prefill(q[:4], k[:4], v[:4])  # positions now differ
        chunks = [(0, 4), (4, 9), (0, 3)]
        results = stacked_prefill(stacked, *([x[a:b] for a, b in chunks] for x in (q, k, v)))
        for result, session, (a, b) in zip(results, solo, chunks):
            expected = session.prefill(q[a:b], k[a:b], v[a:b])
            np.testing.assert_array_equal(result.output, expected.output)
            assert result.meta["positions"] == expected.meta["positions"]
        assert [s.position for s in stacked] == [4, 9, 3]
        for s in stacked + solo:
            s.close()
        assert pool.blocks_in_use == 0

    def test_pool_exhaustion_advances_no_session(self):
        pool = BlockPool(4, 2, key_dim=DIM)
        sessions = [DecodeSession.start(MASK, 12, pool=pool) for _ in range(2)]
        q, k, v = random_qkv(12, DIM, dtype=np.float32, seed=5)
        from repro.serve import PoolExhausted

        with pytest.raises(PoolExhausted):
            stacked_prefill(
                sessions,
                [q[:6], q[6:12]],
                [k[:6], k[6:12]],
                [v[:6], v[6:12]],
            )
        assert all(s.position == 0 for s in sessions)
        assert pool.blocks_in_use == 0
        pool.check_consistency()

    def test_server_prefill_chunks_groups_and_counts(self):
        with AttentionServer() as server:
            pool = server.create_block_pool(key_dim=DIM, num_blocks=64, block_size=4)
            q, k, v = random_qkv(12, DIM, dtype=np.float32, seed=6)
            a = ServingClient(server).open_session(MASK, 12)
            b = ServingClient(server).open_session(MASK, 12)
            responses = server.prefill_chunks(
                [(a, q[:6], k[:6], v[:6]), (b, q[:6], k[:6], v[:6])]
            )
            np.testing.assert_array_equal(responses[0].output, responses[1].output)
            assert server.stats.prefill_chunks == 2
            assert server.stats.prefill_stacked_executions == 1
            assert server.stats.prefill_coalesced_chunks == 2
            assert server.stats.prefill_tokens == 12
            with pytest.raises(ValueError):
                server.prefill_chunks([(a, q[:2], k[:2], v[:2])] * 2)
            for s in (a, b):
                server.close_decode_session(s)
            assert pool.blocks_in_use == 0


class TestSchedulerMechanics:
    def _request(self, total, prompt, seed, priority=1.0):
        q, k, v = random_qkv(total, DIM, dtype=np.float32, seed=seed)
        return LoopRequest(q=q, k=k, v=v, mask=MASK, prompt_tokens=prompt, priority=priority)

    def test_chunked_prefill_equals_whole_prefill(self):
        outputs = {}
        for chunk in (2, 32):
            server = AttentionServer()
            server.create_block_pool(key_dim=DIM, num_blocks=64, block_size=4)
            scheduler = ContinuousBatchingScheduler(
                server, clock=VirtualClock(), prefill_chunk=chunk
            )
            rid = scheduler.submit(self._request(16, 12, seed=7))
            outputs[chunk] = scheduler.run(max_iterations=100)[rid]
            server.close()
        np.testing.assert_array_equal(outputs[2], outputs[32])

    def test_requires_block_pool(self):
        with pytest.raises(ValueError):
            ContinuousBatchingScheduler(AttentionServer())

    def test_iteration_token_budget_is_respected(self):
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=64, block_size=4)
        scheduler = ContinuousBatchingScheduler(
            server, clock=VirtualClock(), max_iteration_tokens=3, prefill_chunk=8
        )
        scheduler.submit(self._request(12, 8, seed=8))
        scheduler.submit(self._request(12, 8, seed=9))
        report = scheduler.step()
        assert report.tokens == 3  # budget caps the mixed batch
        scheduler.run(max_iterations=100)
        server.close()

    def test_queue_time_measured_on_virtual_clock(self):
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=6, block_size=4)
        scheduler = ContinuousBatchingScheduler(
            server, clock=VirtualClock(), max_streams=1, prefill_chunk=32
        )
        first = scheduler.submit(self._request(8, 8, seed=10))
        second = scheduler.submit(self._request(8, 8, seed=11))
        scheduler.run(max_iterations=100)
        assert scheduler.telemetry[first].queue_seconds == 0.0
        # the second stream waited exactly while the first ran (virtual time)
        assert scheduler.telemetry[second].queue_seconds > 0.0
        assert scheduler.telemetry[second].queue_seconds == float(
            int(scheduler.telemetry[second].queue_seconds)
        )
        server.close()

    def test_forced_swap_preemption_round_trip_bit_exact(self):
        # pool fits ~one stream: admitting the second forces the first out
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=6, block_size=4)
        scheduler = ContinuousBatchingScheduler(
            server,
            clock=VirtualClock(),
            max_streams=2,
            prefill_chunk=4,
            preemption="swap",
        )
        requests = [self._request(16, 8, seed=20 + i) for i in range(2)]
        rids = scheduler.submit_many(requests)
        results = scheduler.run(max_iterations=500)
        assert scheduler.stats.preemptions >= 1
        assert scheduler.stats.swap_outs >= 1 and scheduler.stats.swap_ins >= 1
        engine = GraphAttentionEngine()
        for rid, request in zip(rids, requests):
            oracle = engine.run(
                request.q, request.k, request.v, decode_reference_mask(MASK, 16)
            )
            np.testing.assert_allclose(results[rid], oracle.output, atol=1e-6, rtol=1e-6)
        assert len(scheduler.swap_store) == 0
        assert server.block_pool.blocks_in_use == 0
        server.close()

    def test_infeasible_request_rejected_at_submit(self):
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=2, block_size=2)
        scheduler = ContinuousBatchingScheduler(
            server, clock=VirtualClock(), prefill_chunk=4
        )
        with pytest.raises(InfeasibleRequest):
            scheduler.submit(self._request(16, 16, seed=30))  # needs 8 blocks of 2
        # the rejected stream left no trace: the loop still serves others
        rid = scheduler.submit(self._request(4, 4, seed=31))
        assert rid in scheduler.run(max_iterations=100)
        server.close()

    def test_blocked_stream_admitted_once_an_open_session_frees_blocks(self):
        # the loop's waiting queue is the one admission queue: a stream
        # refused its grant stays queued, and the first iteration after the
        # blocks come back admits it, whoever held them
        server = AttentionServer()
        pool = server.create_block_pool(key_dim=DIM, num_blocks=2, block_size=4)
        client = ServingClient(server)
        hog = client.open_session(MASK, 8, reserve_tokens=8)
        scheduler = ContinuousBatchingScheduler(server, clock=VirtualClock(), prefill_chunk=4)
        request = self._request(8, 4, seed=40)
        rid = scheduler.submit(request)
        report = scheduler.step()
        assert report.admitted == [] and report.tokens == 0
        assert scheduler.waiting == 1 and scheduler.stats.admission_blocked == 1
        client.close_session(hog)
        results = scheduler.run(max_iterations=100)
        oracle = GraphAttentionEngine().run(
            request.q, request.k, request.v, decode_reference_mask(MASK, 8)
        )
        np.testing.assert_allclose(results[rid], oracle.output, atol=1e-6, rtol=1e-6)
        assert pool.blocks_in_use == 0
        server.close()

    def test_admission_follows_arrival_order_under_pool_pressure(self):
        # two one-block grants fill a two-block pool: the first two arrivals
        # are admitted in order and the third waits its turn
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=2, block_size=4)
        scheduler = ContinuousBatchingScheduler(
            server, policy=FCFSPolicy(), clock=VirtualClock(), prefill_chunk=4
        )
        rids = scheduler.submit_many([self._request(4, 4, seed=50 + i) for i in range(3)])
        report = scheduler.step()
        assert report.admitted == rids[:2]
        assert scheduler.waiting == 1 and scheduler.stats.admission_blocked == 1
        report = scheduler.step()
        assert report.admitted == rids[2:]
        server.close()

    def _blocked_head(self):
        """A three-block pool with two blocks held outside the loop and an
        FCFS loop whose head stream needs both of them for its first chunk."""
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=3, block_size=4)
        client = ServingClient(server)
        hog = client.open_session(MASK, 8, reserve_tokens=8)
        scheduler = ContinuousBatchingScheduler(
            server, policy=FCFSPolicy(), clock=VirtualClock(), prefill_chunk=8
        )
        head = scheduler.submit(self._request(8, 8, seed=60))
        return server, client, hog, scheduler, head

    def test_blocked_head_is_not_jumped_by_a_stream_that_fits(self):
        server, client, hog, scheduler, head = self._blocked_head()
        small = scheduler.submit(self._request(4, 4, seed=61))  # one block: fits
        report = scheduler.step()
        assert report.admitted == [] and scheduler.waiting == 2
        assert server.block_pool.blocks_in_use == 2
        client.close_session(hog)
        report = scheduler.step()
        assert report.admitted == [head, small]
        server.close()

    def test_session_open_is_not_queued_behind_a_blocked_stream(self):
        # one capacity grant and no second queue: a reject-mode open takes
        # the free block at once while the loop's head waits for two
        server, client, hog, scheduler, head = self._blocked_head()
        scheduler.step()
        assert scheduler.waiting == 1
        assert server.stats.admission_rejected == 1  # the loop's refusal
        session = client.open_session(MASK, 4, reserve_tokens=4)
        assert server.block_pool.blocks_in_use == 3
        assert server.stats.admission_rejected == 1
        client.close_session(session)
        client.close_session(hog)
        assert head in scheduler.run(max_iterations=100)
        assert server.block_pool.blocks_in_use == 0
        server.close()

    def test_priority_policy_admits_urgent_request_first(self):
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=64, block_size=4)
        scheduler = ContinuousBatchingScheduler(
            server,
            policy=PriorityPolicy(),
            clock=VirtualClock(),
            max_streams=1,
            prefill_chunk=32,
        )
        low = scheduler.submit(self._request(8, 8, seed=31, priority=1.0))
        high = scheduler.submit(self._request(8, 8, seed=32, priority=4.0))
        scheduler.run(max_iterations=100)
        assert (
            scheduler.telemetry[high].first_scheduled_time
            < scheduler.telemetry[low].first_scheduled_time
        )
        server.close()


class _IdleEngine:
    """An engine with one stream that never moves: every step is empty."""

    active = 1
    results: dict = {}

    def __init__(self, useful_steps=0):
        self.steps = 0
        self.useful_steps = useful_steps

    def step(self):
        self.steps += 1
        return IterationReport(
            iteration=self.steps, decode_tokens=int(self.steps <= self.useful_steps)
        )


class TestDrain:
    def test_the_third_empty_step_in_a_row_is_a_stall(self):
        engine = _IdleEngine()
        with pytest.raises(ValueError, match="stalled"):
            drain(engine)
        assert engine.steps == STALL_STEPS == 3

    def test_a_useful_step_resets_the_stall_count(self):
        engine = _IdleEngine(useful_steps=4)
        with pytest.raises(ValueError, match="stalled"):
            drain(engine)
        assert engine.steps == 4 + STALL_STEPS

    def test_max_iterations_counts_from_each_call(self):
        engine = _IdleEngine(useful_steps=100)
        for calls in (1, 2):
            with pytest.raises(RuntimeError, match="exceeded 5 steps"):
                drain(engine, max_iterations=5)
            assert engine.steps == 5 * calls

    def test_until_stops_once_every_id_has_a_result(self):
        engine = _IdleEngine(useful_steps=100)
        engine.results = {7: np.zeros(1)}
        assert drain(engine, until=[7]) is engine.results
        assert engine.steps == 0


def _kernel_passes(stats, kind=None):
    """Kernel passes the server ran (of ``kind``, else both): singleton plus
    stacked passes."""
    decode = stats.decode_steps - stats.decode_coalesced_steps + stats.decode_stacked_executions
    prefill = stats.prefill_chunks - stats.prefill_coalesced_chunks + stats.prefill_stacked_executions
    return {"decode": decode, "prefill": prefill, None: decode + prefill}[kind]


class TestIterationBatching:
    """32 aligned streams (prompt 32, +48 decoded, ``LocalMask(17)``, d=32):
    the loop stacks every stream into one pass per iteration, where callers
    stepping their own sessions pay a pass per stream per token."""

    STREAMS, PROMPT, DECODE, HEAD_DIM, BLOCK_SIZE = 32, 32, 48, 32, 16
    MASK = LocalMask(window=17)

    def _server(self):
        server = AttentionServer(cache_capacity=8)
        horizon = self.PROMPT + self.DECODE
        server.create_block_pool(
            key_dim=self.HEAD_DIM,
            num_blocks=self.STREAMS * (horizon // self.BLOCK_SIZE + 2),
            block_size=self.BLOCK_SIZE,
        )
        return server

    def test_loop_drains_in_half_the_passes_of_caller_driven_steps(self):
        horizon = self.PROMPT + self.DECODE
        data = [
            random_qkv(horizon, self.HEAD_DIM, dtype=np.float32, seed=s)
            for s in range(self.STREAMS)
        ]

        server = self._server()
        client = ServingClient(server)
        sessions = []
        for q, k, v in data:
            session = client.open_session(self.MASK, horizon, retain_outputs=True)
            server.prefill_chunks(
                [(session, q[: self.PROMPT], k[: self.PROMPT], v[: self.PROMPT])]
            )
            sessions.append(session)
        for i in range(self.PROMPT, horizon):
            for session, (q, k, v) in zip(sessions, data):
                server.decode_step(session, q[i], k[i], v[i])
        caller_passes = _kernel_passes(server.stats_snapshot())
        caller_outputs = [session.outputs() for session in sessions]
        for session in sessions:
            client.close_session(session)
        server.close()

        server = self._server()
        scheduler = ContinuousBatchingScheduler(
            server, max_streams=self.STREAMS, prefill_chunk=self.PROMPT
        )
        rids = [
            scheduler.submit(
                LoopRequest(q=q, k=k, v=v, mask=self.MASK, prompt_tokens=self.PROMPT)
            )
            for q, k, v in data
        ]
        results = scheduler.run()
        loop_passes = _kernel_passes(server.stats_snapshot())
        server.close()

        for rid, expected in zip(rids, caller_outputs):
            np.testing.assert_array_equal(results[rid], expected)
        assert caller_passes == self.STREAMS * (1 + self.DECODE)
        assert 2 * loop_passes <= caller_passes

    def test_staggered_streams_run_one_pass_per_kind_per_iteration(self):
        """Streams of three mask families, staggered prompts and different
        horizons: every iteration runs at most one prefill and one decode
        pass, and each stream's output equals its own session replay."""
        masks = (LocalMask(17), Dilated1DMask(window=9, dilation=2), longformer_mask(reach=6, global_tokens=(0,)))
        requests = []
        for s in range(12):
            prompt, total = 5 + 7 * s, 60 + 3 * s
            q, k, v = random_qkv(total, self.HEAD_DIM, dtype=np.float32, seed=100 + s)
            requests.append(LoopRequest(q=q, k=k, v=v, mask=masks[s % 3], prompt_tokens=prompt))

        server = self._server()
        scheduler = ContinuousBatchingScheduler(server, max_streams=len(requests), prefill_chunk=16)
        rids = scheduler.submit_many(requests)
        previous = server.stats_snapshot()
        iterations = prefill_iterations = 0
        while scheduler.active:
            report = scheduler.step()
            stats = server.stats_snapshot()
            prefill = _kernel_passes(stats, "prefill") - _kernel_passes(previous, "prefill")
            decode = _kernel_passes(stats, "decode") - _kernel_passes(previous, "decode")
            assert prefill == (report.prefill_tokens > 0) and decode == (report.decode_tokens > 0)
            iterations += 1
            prefill_iterations += prefill
            previous = stats
        results = scheduler.results
        server.close()

        assert _kernel_passes(previous) <= 2 * iterations < stats.decode_steps + stats.prefill_chunks
        assert prefill_iterations > 1  # prompts really were staggered over iterations
        for rid, request in zip(rids, requests):
            replay = DecodeSession.start(request.mask, request.total_tokens, retain_outputs=True)
            prompt = request.prompt_tokens
            replay.prefill(request.q[:prompt], request.k[:prompt], request.v[:prompt])
            for i in range(prompt, request.total_tokens):
                replay.step(request.q[i], request.k[i], request.v[i])
            np.testing.assert_array_equal(results[rid], replay.outputs())

    def test_a_decode_pass_counts_its_tokens_once(self):
        obs = Observability()
        server = self._server()
        scheduler = ContinuousBatchingScheduler(server, max_streams=self.STREAMS, prefill_chunk=self.PROMPT, obs=obs)
        for s in range(self.STREAMS):
            q, k, v = random_qkv(self.PROMPT + 2, self.HEAD_DIM, dtype=np.float32, seed=s)
            scheduler.submit(LoopRequest(q=q, k=k, v=v, mask=self.MASK, prompt_tokens=self.PROMPT))
        scheduler.step()  # every prompt in one prefill pass
        increments = []
        counter = obs.decode_tokens
        original = counter.inc
        counter.inc = lambda amount=1.0: (increments.append(amount), original(amount))[1]
        report = scheduler.step()
        server.close()
        assert report.decode_tokens == self.STREAMS
        assert increments == [self.STREAMS]
