"""Async serving edge: streaming bit-exactness, tenant isolation, drain.

Everything runs on a :class:`VirtualClock`, so every assertion about time,
slack, or ordering is deterministic.  ``pytest-asyncio`` is not available in
the CI container, so each test is a synchronous function driving its
coroutine through ``asyncio.run`` — the edge itself never notices.
"""

import asyncio

import numpy as np
import pytest

from repro.masks.windowed import LocalMask
from repro.serve import (
    AsyncServingEdge,
    AttentionServer,
    ContinuousBatchingScheduler,
    DecodeSession,
    EdgeClosed,
    LoopRequest,
    StreamCancelled,
    TenantConfig,
    TenantThrottled,
    VirtualClock,
    scheduling_policy,
)
from repro.utils.rng import random_qkv

DIM = 4
MASK = LocalMask(window=3)


def _request(total, prompt, seed, **kwargs):
    q, k, v = random_qkv(total, DIM, dtype=np.float32, seed=seed)
    return LoopRequest(q=q, k=k, v=v, mask=MASK, prompt_tokens=prompt, **kwargs)


def _oracle(request):
    total = request.total_tokens
    session = DecodeSession.start(request.mask, total, retain_outputs=True)
    prompt = request.prompt_tokens
    session.prefill(request.q[:prompt], request.k[:prompt], request.v[:prompt])
    for i in range(prompt, total):
        session.step(request.q[i], request.k[i], request.v[i])
    return session.outputs()


def _scheduler(num_blocks, *, policy="slack", max_streams=8, **kwargs):
    server = AttentionServer(cache_capacity=16)
    server.create_block_pool(key_dim=DIM, num_blocks=num_blocks, block_size=4)
    return ContinuousBatchingScheduler(
        server,
        policy=scheduling_policy(policy),
        clock=VirtualClock(),
        max_streams=max_streams,
        prefill_chunk=4,
        **kwargs,
    )


async def _yield_iterations(n):
    for _ in range(n):
        await asyncio.sleep(0)


class TestStreamingBitExactness:
    def test_streams_match_oracles_with_throttle_and_preemption(self):
        """The acceptance scenario: streamed chunks are bit-exact against
        per-request DecodeSession replays while (a) at least one tenant gets
        throttled at admission and (b) at least one deadline-driven
        preemption evicts a no-SLO stream for an SLO stream's blocks."""
        # the pool cannot hold everyone's full KV growth at once: under the
        # slack policy the evicted victims must be the no-deadline streams
        scheduler = _scheduler(12, policy="slack", max_streams=8)
        batch = [_request(32, 8, seed=11 + i, tenant="batch") for i in range(2)]
        chat = [
            _request(8, 4, seed=31 + i, tenant="chat", slo_latency_seconds=12.0)
            for i in range(2)
        ]
        spam = [_request(8, 4, seed=51 + i, tenant="spam") for i in range(2)]
        oracles = {id(r): _oracle(r) for r in batch + chat + spam}
        throttled = []

        async def run():
            outputs = {}
            async with AsyncServingEdge(
                scheduler,
                tenants={"spam": TenantConfig(rate_per_second=0.01, burst=1)},
            ) as edge:
                tasks = {}
                for request in batch:
                    stream = await edge.submit(request)
                    tasks[id(request)] = asyncio.create_task(stream.collect())
                # let the batch tenant grow its KV footprint first
                await _yield_iterations(6)
                for request in chat:
                    stream = await edge.submit(request)
                    tasks[id(request)] = asyncio.create_task(stream.collect())
                stream = await edge.submit(spam[0])
                tasks[id(spam[0])] = asyncio.create_task(stream.collect())
                try:
                    await edge.submit(spam[1])
                except TenantThrottled as error:
                    throttled.append(error)
                for key, task in tasks.items():
                    outputs[key] = await task
                assert edge.stats.throttled == 1
                assert edge.stats.finished == len(tasks)
            return outputs

        outputs = asyncio.run(run())
        assert throttled and throttled[0].tenant == "spam"
        assert throttled[0].reason == "rate"
        assert scheduler.stats.preemptions >= 1
        for request in batch + chat + [spam[0]]:
            np.testing.assert_array_equal(outputs[id(request)], oracles[id(request)])
        # deadline-driven victim choice: every preempted stream was a
        # best-effort one; the SLO-carrying chat streams were never evicted
        preempted = [t for t in scheduler.telemetry.values() if t.preemptions]
        assert preempted
        assert all(t.slo_latency_seconds is None for t in preempted)
        for telemetry in scheduler.telemetry.values():
            if telemetry.tenant == "chat":
                assert telemetry.slo_attained is not None
            else:
                assert telemetry.slo_attained is None

    def test_interleaved_consumers_each_bit_exact(self):
        scheduler = _scheduler(24, policy="fcfs")
        requests = [_request(10 + 2 * i, 4, seed=70 + i) for i in range(4)]
        oracles = [_oracle(r) for r in requests]

        async def run():
            async with AsyncServingEdge(scheduler) as edge:
                streams = [await edge.submit(r) for r in requests]
                return await asyncio.gather(*[s.collect() for s in streams])

        outputs = asyncio.run(run())
        for output, oracle in zip(outputs, oracles):
            np.testing.assert_array_equal(output, oracle)


class TestBackpressure:
    def test_stalled_consumer_holds_only_its_stream(self):
        scheduler = _scheduler(24, policy="fcfs")
        slow_req = _request(16, 4, seed=90)
        fast_req = _request(16, 4, seed=91)
        slow_oracle, fast_oracle = _oracle(slow_req), _oracle(fast_req)

        async def run():
            async with AsyncServingEdge(scheduler, max_buffered_chunks=2) as edge:
                slow = await edge.submit(slow_req)
                fast = await edge.submit(fast_req)
                fast_task = asyncio.create_task(fast.collect())
                # nobody reads `slow`: its queue fills and the edge holds it
                await fast_task
                assert scheduler.held == 1
                assert edge.stats.backpressure_holds >= 1
                held_telemetry = scheduler.telemetry[slow.request_id]
                assert held_telemetry.finish_time is None  # parked, not done
                # the stalled client finally reads: the hold releases and the
                # stream runs to completion
                slow_output = await slow.collect()
                assert scheduler.held == 0
                return await fast_task, slow_output

        fast_output, slow_output = asyncio.run(run())
        np.testing.assert_array_equal(fast_output, fast_oracle)
        np.testing.assert_array_equal(slow_output, slow_oracle)


class TestTenantIsolation:
    def test_stream_quota_enforced_and_released(self):
        scheduler = _scheduler(24)
        config = {"t": TenantConfig(max_streams=1)}

        async def run():
            async with AsyncServingEdge(scheduler, tenants=config) as edge:
                first = await edge.submit(_request(8, 4, seed=1), tenant="t")
                with pytest.raises(TenantThrottled) as info:
                    await edge.submit(_request(8, 4, seed=2), tenant="t")
                assert info.value.reason == "quota"
                await first.collect()
                # the finished stream released its quota slot
                second = await edge.submit(_request(8, 4, seed=2), tenant="t")
                await second.collect()

        asyncio.run(run())

    def test_block_budget_enforced(self):
        scheduler = _scheduler(24)
        config = {"t": TenantConfig(max_blocks=4)}

        async def run():
            async with AsyncServingEdge(scheduler, tenants=config) as edge:
                first = await edge.submit(_request(16, 4, seed=3), tenant="t")
                with pytest.raises(TenantThrottled) as info:
                    await edge.submit(_request(16, 4, seed=4), tenant="t")
                assert info.value.reason == "budget"
                await first.collect()

        asyncio.run(run())

    def test_rate_bucket_refills_on_the_virtual_clock(self):
        scheduler = _scheduler(24)
        config = {"t": TenantConfig(rate_per_second=0.5, burst=1)}

        async def run():
            async with AsyncServingEdge(scheduler, tenants=config) as edge:
                first = await edge.submit(_request(8, 4, seed=5), tenant="t")
                with pytest.raises(TenantThrottled):
                    await edge.submit(_request(8, 4, seed=6), tenant="t")
                await first.collect()  # steps advance the virtual clock
                assert scheduler.clock.now() >= 2.0
                second = await edge.submit(_request(8, 4, seed=6), tenant="t")
                await second.collect()

        asyncio.run(run())

    def test_tenant_mismatch_rejected(self):
        scheduler = _scheduler(24)

        async def run():
            async with AsyncServingEdge(scheduler) as edge:
                with pytest.raises(ValueError):
                    await edge.submit(_request(8, 4, seed=7, tenant="a"), tenant="b")

        asyncio.run(run())


class TestCancellation:
    def test_disconnect_mid_decode_releases_blocks_and_quota(self):
        scheduler = _scheduler(24)
        pool = scheduler.pool
        config = {"t": TenantConfig(max_streams=1)}

        async def run():
            async with AsyncServingEdge(scheduler, tenants=config) as edge:
                stream = await edge.submit(_request(24, 4, seed=8), tenant="t")
                chunks = [await stream.__anext__()]  # ensure it is mid-decode
                assert pool.blocks_in_use > 0
                assert await stream.cancel()
                with pytest.raises(StreamCancelled):
                    while True:
                        chunks.append(await stream.__anext__())
                assert not await stream.cancel()  # second cancel is a no-op
                # blocks, swap credit, and the tenant's quota slot all retract
                assert pool.blocks_in_use == 0
                assert len(scheduler.swap_store) == 0
                assert scheduler.active == 0
                assert scheduler.telemetry[stream.request_id].cancelled
                replacement = await edge.submit(_request(8, 4, seed=9), tenant="t")
                await replacement.collect()
                assert edge.stats.cancelled == 1

        asyncio.run(run())
        assert pool.blocks_in_use == 0

    def test_disconnect_between_passes_of_one_iteration(self):
        """A client disconnect inside a scheduler iteration.

        The survivor decodes while the victim is still prefilling, so the
        iteration runs a decode pass and then a prefill pass.  The disconnect
        fires between the two: the victim's blocks and quota slot must
        retract, its prefill chunk must not run, the survivor must stay
        bit-exact, and the pool must drain to zero.
        """
        scheduler = _scheduler(24, policy="fcfs")
        pool = scheduler.pool
        config = {"t": TenantConfig(max_streams=2)}
        survivor_req = _request(24, 4, seed=41)
        victim_req = _request(24, 16, seed=40)
        survivor_oracle = _oracle(survivor_req)
        decode_steps, prefill_chunks = scheduler.server.decode_steps, scheduler.server.prefill_chunks
        fired, prefilled_after = [], []

        async def run():
            async with AsyncServingEdge(scheduler, tenants=config) as edge:
                survivor = await edge.submit(survivor_req, tenant="t")
                victim = await edge.submit(victim_req, tenant="t")
                victim_session = []

                def decode_then_disconnect(steps):
                    responses = decode_steps(steps)
                    stream = scheduler._streams.get(victim.request_id)
                    if not fired and stream is not None and stream.prompt_remaining > 0:
                        victim_session.append(stream.session)
                        fired.append(pool.blocks_in_use)
                        edge._teardown_stream(
                            edge._streams[victim.request_id],
                            error=StreamCancelled("client vanished mid-iteration"),
                        )
                    return responses

                def record_prefill(chunks):
                    if fired:
                        prefilled_after.extend(chunk[0] for chunk in chunks)
                    return prefill_chunks(chunks)

                scheduler.server.decode_steps = decode_then_disconnect
                scheduler.server.prefill_chunks = record_prefill
                survivor_task = asyncio.create_task(survivor.collect())
                with pytest.raises(StreamCancelled):
                    await victim.collect()
                assert scheduler.telemetry[victim.request_id].cancelled
                output = await survivor_task
                assert fired, "no iteration ran a decode pass before the victim's prefill"
                assert not any(session is victim_session[0] for session in prefilled_after)
                assert edge.stats.cancelled == 1
                # quota retraction: the tenant's slot frees for a third stream
                replacement = await edge.submit(_request(8, 4, seed=42), tenant="t")
                await replacement.collect()
                return output

        # wait_for only guards the run against a consumer left waiting
        output = asyncio.run(asyncio.wait_for(run(), timeout=60))
        np.testing.assert_array_equal(output, survivor_oracle)
        assert fired[0] > 0  # the victim held blocks when the disconnect fired
        assert pool.blocks_in_use == 0
        assert len(scheduler.swap_store) == 0
        assert scheduler.active == 0

    def test_cancel_unknown_stream_returns_false(self):
        scheduler = _scheduler(24)

        async def run():
            async with AsyncServingEdge(scheduler) as edge:
                assert not await edge.cancel(12345)

        asyncio.run(run())


class TestShutdown:
    def test_drain_finishes_in_flight_and_rejects_new(self):
        scheduler = _scheduler(24)
        requests = [_request(12, 4, seed=20 + i) for i in range(3)]
        oracles = [_oracle(r) for r in requests]

        async def run():
            edge = await AsyncServingEdge(scheduler).start()
            streams = [await edge.submit(r) for r in requests]
            tasks = [asyncio.create_task(s.collect()) for s in streams]
            drain = asyncio.create_task(edge.shutdown(drain=True))
            await _yield_iterations(2)
            with pytest.raises(EdgeClosed):
                await edge.submit(_request(8, 4, seed=99))
            outputs = await asyncio.gather(*tasks)
            await drain
            assert edge.stats.finished == len(requests)
            assert not edge.running
            return outputs

        outputs = asyncio.run(run())
        for output, oracle in zip(outputs, oracles):
            np.testing.assert_array_equal(output, oracle)
        assert scheduler.pool.blocks_in_use == 0

    def test_hard_shutdown_cancels_in_flight(self):
        scheduler = _scheduler(24)

        async def run():
            edge = await AsyncServingEdge(scheduler).start()
            stream = await edge.submit(_request(24, 4, seed=30))
            await _yield_iterations(4)
            await edge.shutdown(drain=False)
            with pytest.raises(EdgeClosed):
                await stream.collect()
            assert edge.stats.cancelled == 1

        asyncio.run(run())
        assert scheduler.pool.blocks_in_use == 0
        assert scheduler.active == 0

    def test_submit_after_shutdown_raises(self):
        scheduler = _scheduler(24)

        async def run():
            edge = AsyncServingEdge(scheduler)
            async with edge:
                pass
            with pytest.raises(EdgeClosed):
                await edge.submit(_request(8, 4, seed=31))

        asyncio.run(run())


class TestSchedulerFailure:
    def test_a_step_that_raises_fails_every_open_stream(self):
        """A scheduler step that raises (a kernel error, say) reaches every
        open stream's consumer, closes the edge to new streams and is
        re-raised once by shutdown; the blocks of the torn-down streams
        return to the pool."""
        scheduler = _scheduler(24)
        step, calls = scheduler.step, []

        def step_failing_on_second_call():
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("kernel failed mid-iteration")
            return step()

        scheduler.step = step_failing_on_second_call

        async def run():
            edge = await AsyncServingEdge(scheduler).start()
            streams = [await edge.submit(_request(24, 4, seed=60 + i)) for i in range(3)]
            for stream in streams:
                # wait_for only guards the run: a consumer left waiting times out
                with pytest.raises(RuntimeError, match="kernel failed"):
                    await asyncio.wait_for(stream.collect(), timeout=5)
            assert not edge.running
            with pytest.raises(EdgeClosed):
                await edge.submit(_request(8, 4, seed=63))
            with pytest.raises(RuntimeError, match="kernel failed"):
                await asyncio.wait_for(edge.shutdown(drain=True), timeout=5)
            await edge.shutdown()  # re-raised once only
            assert edge.stats.cancelled == 3

        asyncio.run(run())
        assert len(calls) == 2
        assert scheduler.pool.blocks_in_use == 0
        assert scheduler.active == 0
