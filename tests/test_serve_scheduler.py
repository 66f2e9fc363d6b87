"""Tests for the batched request scheduler (repro.serve.scheduler)."""

import threading
import time

import numpy as np
import pytest

from repro.core.dense import sdp_attention
from repro.core.engine import GraphAttentionEngine
from repro.distributed.partition_balance import balanced_worker_bins
from repro.masks.presets import longformer_mask
from repro.masks.windowed import LocalMask
from repro.perfmodel.devices import A100_SXM4_80GB, L40_48GB, V100_SXM2_32GB
from repro.serve.client import ServingClient
from repro.serve.paging import PoolExhausted
from repro.serve.plan import compile_plan
from repro.serve.scheduler import AttentionServer
from repro.serve.session import AttentionRequest
from repro.utils.rng import random_qkv


@pytest.fixture
def server():
    return AttentionServer(cache_capacity=8)


def _requests(count, length=96, dim=12, mask=None, seed0=0):
    out = []
    for i in range(count):
        q, k, v = random_qkv(length, dim, seed=seed0 + i)
        out.append(AttentionRequest(q=q, k=k, v=v, mask=mask))
    return out


class TestBatching:
    def test_same_shape_requests_share_one_batch(self, server):
        mask = longformer_mask(reach=4, global_tokens=(0,))
        responses = server.serve(_requests(5, mask=mask))
        assert len(responses) == 5
        assert server.stats.batches == 1
        assert server.stats.plans_compiled == 1
        assert len({r.plan_key for r in responses}) == 1

    def test_mixed_shapes_split_into_batches(self, server):
        reqs = _requests(3, mask=LocalMask(window=5)) + _requests(3, mask=LocalMask(window=7))
        server.serve(reqs)
        assert server.stats.batches == 2
        assert server.stats.plans_compiled == 2

    def test_responses_follow_submission_order(self, server):
        reqs = []
        for i in range(8):
            mask = LocalMask(window=5) if i % 2 else LocalMask(window=7)
            reqs.extend(_requests(1, mask=mask, seed0=100 + i))
        responses = server.serve(reqs)
        assert [r.request_id for r in responses] == [r.request_id for r in reqs]

    def test_duplicate_request_objects_keep_submission_order(self, server):
        # the same request object submitted twice must not shuffle responses
        q, k, v = random_qkv(96, 12, seed=77)
        req_a = AttentionRequest(q=q, k=k, v=v, mask=LocalMask(window=5))
        q2, k2, v2 = random_qkv(96, 12, seed=78)
        req_b = AttentionRequest(q=q2, k=k2, v=v2, mask=LocalMask(window=7))
        responses = server.serve([req_a, req_b, req_a])
        np.testing.assert_array_equal(responses[0].output, responses[2].output)
        reference_b = sdp_attention(q2, k2, v2, LocalMask(window=7)).output
        np.testing.assert_allclose(responses[1].output, reference_b, atol=1e-5, rtol=1e-5)

    def test_warm_cache_across_flushes(self, server):
        mask = longformer_mask(reach=4, global_tokens=(0,))
        first = server.serve(_requests(2, mask=mask))
        second = server.serve(_requests(2, mask=mask, seed0=50))
        assert not first[0].cache_hit
        assert all(r.cache_hit for r in second)
        assert server.stats.plans_compiled == 1

    def test_serve_with_no_requests(self, server):
        assert server.serve([]) == []
        assert server.stats.flushes == 0

    def test_serve_stamps_fresh_ids_in_order_and_keeps_given_ones(self, server):
        reqs = _requests(3, mask=LocalMask(window=5))
        reqs[1].request_id = 1000
        responses = server.serve(reqs)
        ids = [r.request_id for r in responses]
        assert ids[1] == 1000
        assert ids[0] < ids[2] < 1000
        # the stamped ids land on the request objects too
        assert [r.request_id for r in reqs] == ids

    def test_ids_unique_across_intake_paths(self, server):
        # serve, handle and session opens all draw from one counter
        q, k, v = random_qkv(96, 12, seed=5)
        served = server.serve([AttentionRequest(q=q, k=k, v=v, mask=LocalMask(window=5))])
        handled = server.handle(q, k, v, LocalMask(window=5))
        session = ServingClient(server).open_session(LocalMask(window=5), 8)
        ids = [served[0].request_id, handled.request_id, session.session_id]
        assert len(set(ids)) == 3


class TestCorrectness:
    def test_served_outputs_match_dense_reference(self, server):
        mask = longformer_mask(reach=6, global_tokens=(0, 50))
        reqs = _requests(4, length=128, dim=16, mask=mask)
        for request, response in zip(reqs, server.serve(reqs)):
            reference = sdp_attention(request.q, request.k, request.v, mask).output
            np.testing.assert_allclose(response.output, reference, atol=1e-5, rtol=1e-5)
            assert response.result.algorithm == "composed"
            assert response.latency_s >= 0

    def test_served_output_identical_to_engine_run(self, server):
        mask = longformer_mask(reach=6, global_tokens=(0,))
        q, k, v = random_qkv(128, 16, seed=11)
        engine = GraphAttentionEngine()
        expected = engine.run(q, k, v, mask)
        response = server.handle(q, k, v, mask)
        np.testing.assert_array_equal(response.output, expected.output)

    def test_composed_request_algorithm(self, server):
        from repro.masks.presets import bigbird_mask

        mask = bigbird_mask(reach=4, global_tokens=(0,), random_sparsity=0.02, seed=3)
        q, k, v = random_qkv(96, 12, seed=21)
        response = server.handle(q, k, v, mask)
        # the union runs as its local band plus one CSR remainder
        assert response.result.algorithm == "composed"
        assert response.result.meta["components"] == ["local", "csr"]
        reference = sdp_attention(q, k, v, mask).output
        np.testing.assert_allclose(response.output, reference, atol=1e-5, rtol=1e-5)

    def test_dense_requests_supported(self, server):
        q, k, v = random_qkv(64, 8, seed=31)
        response = server.handle(q, k, v, None)
        assert response.result.algorithm == "flash"


class TestLifecycle:
    def test_close_is_idempotent_and_the_server_keeps_serving(self):
        server = AttentionServer(cache_capacity=4)
        first = server.serve(_requests(2, mask=LocalMask(window=5)))
        server.close()
        server.close()  # a second close is a no-op, not an error
        again = server.serve(_requests(2, mask=LocalMask(window=5)))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.output, b.output)
        assert again[0].cache_hit  # close keeps the plan cache warm
        assert server.stats.plans_compiled == 1

    def test_context_manager_yields_the_server(self):
        with AttentionServer(cache_capacity=4) as server:
            assert isinstance(server, AttentionServer)
            inside = server.serve(_requests(3, mask=LocalMask(window=5)))
        after = server.serve(_requests(3, mask=LocalMask(window=5)))
        for a, b in zip(inside, after):
            np.testing.assert_array_equal(a.output, b.output)

    def test_concurrent_serves_match_serial_and_count_every_request(self):
        mask = longformer_mask(reach=4, global_tokens=(0,))
        serial = [
            AttentionServer(cache_capacity=4).serve(_requests(3, mask=mask, seed0=10 * i))
            for i in range(4)
        ]
        server = AttentionServer(cache_capacity=4)
        start = threading.Barrier(4)
        results, errors = [None] * 4, []

        def serve(i):
            try:
                reqs = _requests(3, mask=mask, seed0=10 * i)
                start.wait(timeout=30.0)
                results[i] = server.serve(reqs)
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=serve, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for want, got in zip(serial, results):
            for a, b in zip(want, got):
                np.testing.assert_array_equal(a.output, b.output)
        assert server.stats.requests == 12 and server.stats.flushes == 4
        assert server.stats.stacked_executions == 4
        assert server.stats.coalesced_requests == 12
        assert server.stats.plans_compiled == 1


class TestDevicePrediction:
    @pytest.mark.parametrize("device", [A100_SXM4_80GB, L40_48GB, V100_SXM2_32GB])
    def test_server_plans_carry_the_compiled_prediction(self, device):
        mask = longformer_mask(reach=8, global_tokens=(0,))
        server = AttentionServer(cache_capacity=2, device=device, head_dim=12)
        plan, hit = server.plan_for(mask, 96)
        assert not hit
        direct = compile_plan(mask, 96, device=device, head_dim=12)
        assert plan.device == device.name
        assert plan.predicted.seconds == direct.predicted.seconds > 0
        # requests resolve to the same predicted plan, and serve unchanged
        response = server.serve(_requests(1, mask=mask))[0]
        assert response.cache_hit and response.plan_key == server.key_for(mask, 96)
        plain = AttentionServer(cache_capacity=2)
        np.testing.assert_array_equal(
            response.output, plain.serve(_requests(1, mask=mask))[0].output
        )
        assert plain.plan_for(mask, 96)[0].predicted is None


class TestWorkerBins:
    def test_bins_cover_all_items_once(self):
        loads = np.array([5, 1, 9, 3, 7, 2], dtype=np.int64)
        bins = balanced_worker_bins(loads, 3)
        assert len(bins) == 3
        seen = np.sort(np.concatenate(bins))
        np.testing.assert_array_equal(seen, np.arange(loads.size))

    def test_bins_balance_skewed_loads(self):
        loads = np.array([100, 1, 1, 1, 1, 1, 1, 1], dtype=np.int64)
        bins = balanced_worker_bins(loads, 2)
        totals = sorted(int(loads[b].sum()) for b in bins)
        assert totals == [7, 100]  # heavy item isolated, light items grouped

    def test_empty_loads_yield_empty_bins(self):
        bins = balanced_worker_bins(np.empty(0, dtype=np.int64), 3)
        assert len(bins) == 3 and all(b.size == 0 for b in bins)

    def test_fractional_loads_are_not_truncated(self):
        # sub-integer costs (e.g. predicted seconds) must still spread out
        loads = np.array([0.9, 0.8, 0.7, 0.6])
        bins = balanced_worker_bins(loads, 2)
        sizes = sorted(b.size for b in bins)
        assert sizes == [2, 2]
        totals = sorted(float(loads[b].sum()) for b in bins)
        assert totals == pytest.approx([1.5, 1.5])


class TestStats:
    def test_throughput_and_latency_populate(self, server):
        server.serve(_requests(4, mask=LocalMask(window=5)))
        stats = server.stats
        assert stats.requests == 4
        assert stats.flushes == 1
        assert stats.wall_seconds > 0
        assert stats.throughput_rps > 0
        assert stats.mean_latency_s > 0
        assert stats.cache is server.cache.stats

    def test_coalescing_counters_count_each_stacked_group_once(self, server):
        # two stackable groups (3 and 2 requests) and one singleton
        reqs = (
            _requests(3, mask=LocalMask(window=5))
            + _requests(2, mask=LocalMask(window=7), seed0=10)
            + _requests(1, length=64, mask=LocalMask(window=5), seed0=20)
        )
        server.serve(reqs)
        assert server.stats.batches == 3
        assert server.stats.stacked_executions == 2
        assert server.stats.coalesced_requests == 5
        server.serve(reqs[:3])
        assert server.stats.stacked_executions == 3
        assert server.stats.coalesced_requests == 8
        assert server.stats.requests == 9 and server.stats.flushes == 2

    def test_warm_serving_beats_per_request_engine_dispatch(self):
        """Acceptance check: a warm plan cache amortises compilation.

        N repeated composed-mask requests through a warm server must be
        measurably faster per request than N independent engine.run() calls,
        each of which re-materialises the CSR components and re-runs the
        union/difference algebra.  Each path runs once untimed first, since
        a process's first kernel call pays for loading the kernel; then
        interleaved repeats are compared by their medians, and the timed
        serves must compile no plan.
        """
        length, dim, n, repeats = 1_024, 16, 12, 21
        mask = longformer_mask(reach=50, global_tokens=(0, 512))
        data = [random_qkv(length, dim, seed=400 + i) for i in range(n)]
        server = AttentionServer(cache_capacity=4)
        engine = GraphAttentionEngine()

        def serve():
            server.serve([AttentionRequest(q=q, k=k, v=v, mask=mask) for q, k, v in data])

        def dispatch():
            for q, k, v in data:
                engine.run(q, k, v, mask)

        serve()  # warms the plan cache
        dispatch()
        misses = server.cache.stats.misses
        seconds = {serve: [], dispatch: []}
        for repeat in range(repeats):
            for path in (serve, dispatch) if repeat % 2 == 0 else (dispatch, serve):
                engine.history.clear()  # the engine keeps every result it returns
                start = time.perf_counter()
                path()
                seconds[path].append(time.perf_counter() - start)
        assert server.cache.stats.misses == misses
        warm_seconds = float(np.median(seconds[serve]))
        engine_seconds = float(np.median(seconds[dispatch]))
        assert warm_seconds < engine_seconds, (
            f"warm serving ({warm_seconds:.3f}s) should beat per-request "
            f"dispatch ({engine_seconds:.3f}s) for {n} requests (medians of {repeats})"
        )


class TestPagedAdmission:
    DIM = 4

    def _server(self, num_blocks=4, block_size=4):
        server = AttentionServer(cache_capacity=8)
        server.create_block_pool(
            key_dim=self.DIM, num_blocks=num_blocks, block_size=block_size
        )
        return server

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_a_server_without_a_pool_gives_each_session_its_own(self, dtype):
        with AttentionServer() as server:
            session = ServingClient(server).open_session(LocalMask(window=3), 40)
            assert session.cache is None
            q, k, v = random_qkv(5, self.DIM, dtype=dtype, seed=5)
            session.prefill(q, k, v)
            pool = session.cache.pool
            assert (pool.num_blocks, pool.block_size) == (3, 16)  # ceil(40 / 16)
            assert pool.dtype == dtype and pool.storage_dtype == dtype
            assert session.position == 5 and pool.blocks_in_use == 1
            server.close_decode_session(session)
            assert pool.blocks_in_use == 0

    def test_a_session_on_the_server_pool_holds_its_reservation(self):
        with self._server(num_blocks=4, block_size=4) as server:
            client = ServingClient(server)
            session = client.open_session(LocalMask(window=3), 16, reserve_tokens=9)
            assert session.cache.pool is server.block_pool
            assert session.cache.prereserved_blocks == 3  # ceil(9 / 4)
            assert server.block_pool.blocks_in_use == 3
            with pytest.raises(PoolExhausted):
                client.open_session(LocalMask(window=3), 16, reserve_tokens=8)
            assert server.stats.admission_rejected == 1
            assert server.block_pool.blocks_in_use == 3
            server.close_decode_session(session)
            assert server.block_pool.blocks_in_use == 0

    def test_create_block_pool_needs_exactly_one_sizing(self):
        with AttentionServer() as server:
            with pytest.raises(ValueError):
                server.create_block_pool(key_dim=4)
            with pytest.raises(ValueError):
                server.create_block_pool(
                    key_dim=4, num_blocks=4, memory_budget_bytes=1 << 20
                )

    def test_budget_sized_pool_and_occupancy_stats(self):
        with AttentionServer() as server:
            pool = server.create_block_pool(
                key_dim=self.DIM, memory_budget_bytes=1 << 16, block_size=4
            )
            assert pool.nbytes <= 1 << 16
            assert server.stats.block_occupancy == 0.0
            session = ServingClient(server).open_session(LocalMask(window=3), 16)
            q, k, v = random_qkv(8, self.DIM, seed=1)
            session.prefill(q, k, v)
            assert server.stats.block_occupancy > 0.0
            assert session.cache.pool is pool
            server.close_decode_session(session)
            assert server.stats.block_occupancy == 0.0
            assert server.stats.sessions_closed == 1

    def test_admission_rejects_when_pool_is_full(self):
        with self._server(num_blocks=2, block_size=4) as server:
            first = ServingClient(server).open_session(LocalMask(window=3), 8, reserve_tokens=8)
            q, k, v = random_qkv(8, self.DIM, seed=2)
            first.prefill(q, k, v)  # owns both blocks
            with pytest.raises(PoolExhausted):
                ServingClient(server).open_session(LocalMask(window=3), 8, reserve_tokens=8)
            assert server.stats.admission_rejected == 1

    @pytest.mark.parametrize("close", ["server", "session"])
    def test_refused_open_is_granted_once_blocks_free(self, close):
        # no server-side queue sits between the pool and the grant, so
        # blocks freed by either close path are grantable at once
        with self._server(num_blocks=2, block_size=4) as server:
            client = ServingClient(server)
            first = client.open_session(LocalMask(window=3), 8, reserve_tokens=8)
            q, k, v = random_qkv(8, self.DIM, seed=3)
            first.prefill(q, k, v)
            with pytest.raises(PoolExhausted):
                client.open_session(LocalMask(window=3), 8, reserve_tokens=8)
            if close == "server":
                server.close_decode_session(first)
            else:
                first.close()  # bypasses the server's bookkeeping
            second = client.open_session(LocalMask(window=3), 8, reserve_tokens=8)
            q, k, v = random_qkv(8, self.DIM, seed=4)
            second.prefill(q, k, v)
            assert second.position == 8
            assert server.stats.admission_rejected == 1
            server.close_decode_session(second)
            assert server.block_pool.blocks_in_use == 0

    def test_infeasible_reserve_tokens_fails_its_caller(self):
        # regression: a grant no pool state could ever satisfy must raise a
        # ValueError — as PoolExhausted, a caller retrying on exhaustion
        # would wait forever
        with self._server(num_blocks=2, block_size=4) as server:
            too_big = 2 * 4 + 1  # needs 3 blocks of 2
            with pytest.raises(ValueError):
                ServingClient(server).open_session(LocalMask(window=3), 16, reserve_tokens=too_big)
            # a feasible request still sails through afterwards
            session = ServingClient(server).open_session(LocalMask(window=3), 8, reserve_tokens=8)
            server.close_decode_session(session)

    def test_failed_open_with_invalid_mask_leaks_no_blocks(self):
        # regression: prereserving before plan compilation leaked blocks on
        # every invalid open until the pool was wedged shut
        with self._server(num_blocks=4, block_size=4) as server:
            for _ in range(6):
                with pytest.raises(ValueError):
                    ServingClient(server).open_session(np.ones((3, 5)), 8)
            assert server.block_pool.blocks_in_use == 0
            session = ServingClient(server).open_session(LocalMask(window=3), 8)
            assert session.cache.pool is server.block_pool
            server.close_decode_session(session)
