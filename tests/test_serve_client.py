"""ServingClient: the one public surface over the router, its loops, and the edge."""

import asyncio
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import perfmodel
from repro.core import compiled
from repro.core.engine import ALGORITHMS, GraphAttentionEngine
from repro.masks.base import MaskSpec
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.obs.recorder import Observability
from repro.obs.scenarios import run_scenario
from repro.perfmodel import A100_SXM4_80GB
from repro.perfmodel import decode as perfmodel_decode
from repro.serve import (
    AsyncServingEdge,
    AttentionRequest,
    AttentionServer,
    BlockPool,
    ContinuousBatchingScheduler,
    DecodeSession,
    FCFSPolicy,
    GenerationResult,
    LoopRequest,
    PagedKVCache,
    PoolExhausted,
    ReplicaRouter,
    RouterStats,
    ServingClient,
    SlackPolicy,
    SwapStore,
    TenantConfig,
    TenantThrottled,
    VirtualClock,
    compile_plan,
    resolve_serving_kwargs,
    scheduling_policy,
)
from repro.utils.rng import random_qkv

DIM = 4
MASK = LocalMask(window=3)


def _data(total, seed):
    return random_qkv(total, DIM, dtype=np.float32, seed=seed)


def _oracle(q, k, v, mask, prompt):
    total = q.shape[-2]
    session = DecodeSession.start(mask, total, retain_outputs=True)
    session.prefill(q[:prompt], k[:prompt], v[:prompt])
    for i in range(prompt, total):
        session.step(q[i], k[i], v[i])
    return session.outputs()


def _client(**kwargs):
    kwargs.setdefault("key_dim", DIM)
    kwargs.setdefault("num_blocks", 32)
    kwargs.setdefault("block_size", 4)
    kwargs.setdefault("clock", VirtualClock())
    return ServingClient(**kwargs)


class TestGenerate:
    def test_generate_matches_session_oracle(self):
        q, k, v = _data(12, seed=3)
        with _client(policy="slack") as client:
            result = client.generate(q, k, v, MASK, prompt_tokens=5)
        assert isinstance(result, GenerationResult)
        np.testing.assert_array_equal(result.output, _oracle(q, k, v, MASK, 5))
        assert result.telemetry.tokens_emitted == 12

    def test_generate_many_interleaves_but_matches_solo(self):
        workloads = [
            (_data(8 + 2 * i, seed=20 + i), Dilated1DMask(window=3, dilation=2), 4)
            for i in range(3)
        ]
        with _client() as client:
            results = client.generate_many(
                [
                    client._as_request(q, k, v, mask, prompt_tokens=prompt)
                    for (q, k, v), mask, prompt in workloads
                ]
            )
        for result, ((q, k, v), mask, prompt) in zip(results, workloads):
            np.testing.assert_array_equal(result.output, _oracle(q, k, v, mask, prompt))

    def test_slo_and_tenant_reach_telemetry(self):
        q, k, v = _data(8, seed=5)
        with _client(policy="slack") as client:
            result = client.generate(
                q, k, v, MASK, prompt_tokens=4, tenant="acme", slo_latency_seconds=40.0
            )
        assert result.telemetry.tenant == "acme"
        assert result.slo_attained is True
        assert result.telemetry.slack_at_finish is not None

    def test_agenerate_equals_generate(self):
        q, k, v = _data(10, seed=7)
        with _client() as sync_client:
            expected = sync_client.generate(q, k, v, MASK, prompt_tokens=4).output

        async def run():
            with _client() as async_client:
                result = await async_client.agenerate(q, k, v, MASK, prompt_tokens=4)
                return result.output

        np.testing.assert_array_equal(asyncio.run(run()), expected)


class TestIterationLimit:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_limit_counts_from_each_calls_first_iteration(self, replicas):
        # one call takes 9 iterations: a limit of 12 fits one call, not two
        q, k, v = _data(12, seed=3)
        with _client(replicas=replicas) as client:
            first = client.generate(q, k, v, MASK, prompt_tokens=4, max_iterations=12)
            second = client.generate(q, k, v, MASK, prompt_tokens=4, max_iterations=12)
            np.testing.assert_array_equal(second.output, first.output)
            client.submit(client._as_request(q, k, v, MASK, prompt_tokens=4))
            outputs = client.router.run(max_iterations=12)
            assert len(outputs) == 1


def _stamps(telemetry):
    return (
        telemetry.arrival_time,
        telemetry.first_scheduled_time,
        telemetry.first_token_time,
        telemetry.finish_time,
        telemetry.queue_seconds,
    )


class TestRouterOfOneClock:
    """A client's router of one leaves the ticking to its loop, so the edge
    stepping ``client.scheduler`` on a :class:`VirtualClock` sees time move
    exactly as an edge over a bare loop does."""

    #: one request per four virtual seconds: a stream's own iterations
    #: refill the bucket, so a router that swallowed its loop's ticks would
    #: throttle the second request and stamp every stream at time 0
    TENANTS = {"metered": TenantConfig(rate_per_second=0.25, burst=1)}
    #: (total tokens, virtual seconds the caller waits before submitting)
    ARRIVALS = ((8, 0), (3, 0), (3, 0), (3, 2), (8, 0), (5, 3))

    def _requests(self):
        for index, (total, gap) in enumerate(self.ARRIVALS):
            q, k, v = _data(total, seed=70 + index)
            yield index, gap, LoopRequest(q=q, k=k, v=v, mask=MASK, prompt_tokens=2)

    async def _through_client(self):
        outcomes = []
        with _client(tenants=self.TENANTS) as client:
            for index, gap, request in self._requests():
                client.clock.advance(gap)
                try:
                    if index % 2:
                        result = await client.agenerate(
                            request.q,
                            request.k,
                            request.v,
                            MASK,
                            prompt_tokens=request.prompt_tokens,
                            tenant="metered",
                        )
                        output, telemetry = result.output, result.telemetry
                    else:
                        stream = await client.astream(request, tenant="metered")
                        output = await stream.collect()
                        telemetry = client.router.telemetry[stream.request_id]
                    outcomes.append(("served", output, _stamps(telemetry)))
                except TenantThrottled as error:
                    outcomes.append((error.reason, None, client.clock.now()))
            await client.edge.shutdown()
        return outcomes

    async def _through_bare_loop(self):
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=32, block_size=4)
        scheduler = ContinuousBatchingScheduler(server, clock=VirtualClock())
        edge = AsyncServingEdge(scheduler, tenants=self.TENANTS)
        outcomes = []
        for _, gap, request in self._requests():
            scheduler.clock.advance(gap)
            try:
                stream = await edge.submit(request, tenant="metered")
                output = await stream.collect()
                outcomes.append(("served", output, _stamps(scheduler.telemetry[stream.request_id])))
            except TenantThrottled as error:
                outcomes.append((error.reason, None, scheduler.clock.now()))
        await edge.shutdown()
        server.close()
        return outcomes

    def test_edge_on_a_router_of_one_keeps_the_loops_clock(self):
        routed = asyncio.run(self._through_client())
        bare = asyncio.run(self._through_bare_loop())
        kinds = [kind for kind, _, _ in bare]
        assert "served" in kinds and "rate" in kinds  # both outcomes exercised
        assert [kind for kind, _, _ in routed] == kinds
        for (kind, output, stamps), (_, want, want_stamps) in zip(routed, bare):
            assert stamps == want_stamps
            if kind == "served":
                np.testing.assert_array_equal(output, want)
        assert max(stamps[3] for kind, _, stamps in bare if kind == "served") > 0.0


class TestConstructorKeywords:
    """The uniform obs=/clock=/policy=/storage= surface (one shared validator)."""

    def test_policy_accepts_name_and_instance(self):
        assert isinstance(_client(policy="slack").scheduler.policy, SlackPolicy)
        custom = FCFSPolicy()
        assert _client(policy=custom).scheduler.policy is custom

    def test_unknown_policy_name_lists_valid_names(self):
        with pytest.raises(ValueError) as info:
            _client(policy="sjf")
        message = str(info.value)
        assert "sjf" in message
        for name in ("fcfs", "priority", "slack", "weighted"):
            assert name in message

    def test_scheduling_policy_registry_contract(self):
        # the satellite fix: unknown names raise ValueError (not KeyError)
        # naming every valid policy; instances pass straight through
        with pytest.raises(ValueError):
            scheduling_policy("nope")
        instance = SlackPolicy()
        assert scheduling_policy(instance) is instance

    def test_storage_keyword_builds_quantized_pool(self):
        client = _client(storage="int8")
        assert client.scheduler.pool.storage == "int8"
        q, k, v = _data(8, seed=9)
        result = client.generate(q, k, v, MASK, prompt_tokens=4)
        assert result.output.shape == (8, DIM)
        client.close()

    def test_invalid_clock_and_obs_rejected(self):
        with pytest.raises(ValueError):
            _client(clock=object())
        with pytest.raises(ValueError):
            _client(obs="yes please")

    def test_session_on_a_server_without_a_pool_pages_through_its_own(self):
        with AttentionServer() as server:  # no pool: the session brings one
            session = server.open_session(MASK, 8, retain_outputs=True)
            q, k, v = _data(8, seed=11)
            session.prefill(q[:4], k[:4], v[:4])
            for i in range(4, 8):
                session.step(q[i], k[i], v[i])
            np.testing.assert_array_equal(session.outputs(), _oracle(q, k, v, MASK, 4))
            server.close_decode_session(session)
        with pytest.raises(TypeError):
            ServingClient()  # a client's loops need a pool layout

    def test_run_scenario_accepts_the_same_keywords(self):
        result = run_scenario(
            "quick", policy=SlackPolicy(), clock=VirtualClock(), obs=Observability()
        )
        assert result.loop_stats.finished == len(result.scenario.requests)
        with pytest.raises(ValueError):
            run_scenario("quick", policy="sjf")

    def test_resolver_is_shared(self):
        policy, clock, obs = resolve_serving_kwargs(
            policy="slack", clock=VirtualClock(), obs=None
        )
        assert isinstance(policy, SlackPolicy)
        assert not obs.enabled  # NULL_OBS default


class TestSurface:
    """Sessions open on the server, and what left the surface stays gone."""

    def test_refused_open_succeeds_on_retry_after_close(self):
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=5, block_size=4)
        hog = server.open_session(MASK, 16, reserve_tokens=16)
        with pytest.raises(PoolExhausted):
            server.open_session(MASK, 8, reserve_tokens=8)
        server.close_decode_session(hog)
        session = server.open_session(MASK, 8, retain_outputs=True, reserve_tokens=8)
        q, k, v = _data(8, seed=13)
        session.prefill(q[:4], k[:4], v[:4])
        for i in range(4, 8):
            session.step(q[i], k[i], v[i])
        np.testing.assert_array_equal(session.outputs(), _oracle(q, k, v, MASK, 4))
        assert server.stats.admission_rejected == 1
        server.close_decode_session(session)
        server.close()

    def test_ticket_queue_entry_points_are_gone(self):
        # the loop's waiting queue is the one admission queue
        for name in (
            "open_decode_session",
            "request_decode_session",
            "admit_queued",
            "queued_sessions",
        ):
            assert not hasattr(AttentionServer, name), name
        assert not hasattr(ServingClient, "request_session")

    def test_packages_export_no_ticket_or_one_shot_session(self):
        import repro
        import repro.serve

        for module in (repro, repro.serve):
            for name in ("DecodeTicket", "ServingSession"):
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in module.__all__

    def test_speculative_decoding_is_gone(self):
        # one decode pass kind: no module, option, rollback window or scores
        # output is left for speculative decoding
        with pytest.raises(ImportError):
            import repro.serve.speculate  # noqa: F401
        q, k, v = _data(8, seed=19)
        with pytest.raises(TypeError):
            LoopRequest(q=q, k=k, v=v, mask=MASK, speculate_k=2)
        with _client() as client:
            with pytest.raises(TypeError):
                client.generate(q, k, v, MASK, prompt_tokens=4, speculate_k=2)
        assert not hasattr(AttentionServer, "speculate_steps")
        assert not hasattr(PagedKVCache, "begin_speculative")
        assert not hasattr(MaskSpec, "draft_variant")
        arena = compiled.Arena(k, v)
        with pytest.raises(TypeError):
            compiled.edge_attention(q, arena, np.arange(8), np.arange(9), 0.5, return_scores=True)
        assert len(compiled.edge_attention(q, arena, np.arange(8), np.arange(9), 0.5)) == 3

    def test_gpu_serving_models_and_their_knobs_are_gone(self):
        # no analytical GPU serving model is left, and no option that only
        # such a model or a test set: the loop swaps or recomputes as told,
        # servers run serially, and every union compiles the one auto way
        with pytest.raises(ImportError):
            import repro.perfmodel.router  # noqa: F401
        for name in (
            "DecodeRuntimeModel",
            "DecodeStepEstimate",
            "PreemptionCostEstimate",
            "RebalanceEstimate",
            "RoutingCostEstimate",
            "SloEstimate",
            "balanced_makespan",
            "decode_step_flops",
            "fingerprint_seconds",
            "min_feasible_slo",
            "preemption_cost",
            "rebalance_gain",
            "router_throughput_scaling",
            "routing_cost",
        ):
            assert not hasattr(perfmodel, name), name
            assert name not in perfmodel.__all__
        for name in ("DECODE_ROW_EFFICIENCY", "SWAP_BANDWIDTH_FRACTION"):
            assert not hasattr(perfmodel_decode, name), name
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=8)
        with pytest.raises(ValueError):
            ContinuousBatchingScheduler(server, preemption="auto")
        with pytest.raises(TypeError):
            ContinuousBatchingScheduler(server, device=A100_SXM4_80GB)
        with pytest.raises(TypeError):
            _client(device=A100_SXM4_80GB)
        with pytest.raises(TypeError):
            ReplicaRouter(2, key_dim=DIM, device=A100_SXM4_80GB)
        with pytest.raises(TypeError):
            AttentionServer(max_workers=2)
        with pytest.raises(TypeError):
            AttentionServer(prefer_composition=False)
        with pytest.raises(TypeError):
            GraphAttentionEngine(prefer_composition=False)
        with pytest.raises(TypeError):
            compile_plan(MASK, 8, prefer_composition=False)
        assert "composed" not in ALGORITHMS
        q, k, v = _data(8, seed=23)
        with pytest.raises(TypeError):
            compile_plan(MASK, 8, algorithm="composed")
        with pytest.raises(TypeError):
            AttentionRequest(q=q, k=k, v=v, mask=MASK, algorithm="composed")
        with pytest.raises(TypeError):
            server.handle(q, k, v, MASK, algorithm="composed")

    def test_router_work_beyond_placement_and_the_client_loop_path_are_gone(self):
        # the router places and nothing else: no sharded execution of
        # oversized prompts, no thread pool; the client drives a router at
        # every replica count and adopts no server, loop, budget or store
        assert not hasattr(ReplicaRouter, "_submit_sharded")
        obs = Observability()
        with ReplicaRouter(2, key_dim=DIM, obs=obs) as router:
            assert not hasattr(router, "comm_stats")
        assert obs.snapshot().get("router_routes_total", outcome="sharded") is None
        assert "sharded_requests" not in {spec.name for spec in dataclasses.fields(RouterStats)}
        assert "router_comm_bytes_total" not in Observability().registry.names()
        with pytest.raises(TypeError):
            ReplicaRouter(2, key_dim=DIM, threaded=True)
        server = AttentionServer()
        server.create_block_pool(key_dim=DIM, num_blocks=8)
        with pytest.raises(TypeError):
            ServingClient(server)
        with pytest.raises(TypeError):
            ServingClient(server=server, key_dim=DIM)
        for name, value in (
            ("scheduler", ContinuousBatchingScheduler(server)),
            ("memory_budget_bytes", 1 << 16),
            ("swap_store", SwapStore()),
            ("rebalance_interval", 2),
        ):
            with pytest.raises(TypeError):
                _client(**{name: value})
        for name in ("open_session", "close_session"):
            assert not hasattr(ServingClient, name), name
        server.close()

    def test_client_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with _client() as client:
                q, k, v = _data(8, seed=17)
                client.generate(q, k, v, MASK, prompt_tokens=4)


#: Every dtype family a caller might hand in: only real floating point is
#: attention input; the rest truncate (int, bool) or drop a component (complex).
INPUT_DTYPES = (np.int8, np.int64, np.bool_, np.complex64, np.complex128, np.float16, np.float32, np.float64)


@st.composite
def _inputs(draw):
    """q/k/v of one short stream in a drawn dtype, maybe with one NaN or inf."""
    total = draw(st.integers(min_value=2, max_value=8))
    dtype = np.dtype(draw(st.sampled_from(INPUT_DTYPES)))
    q, k, v = (x.astype(dtype) for x in _data(total, seed=draw(st.integers(0, 2**16))))
    poison = None
    if dtype.kind in "fc":
        poison = draw(
            st.none()
            | st.tuples(
                st.integers(0, 2),
                st.integers(0, total * DIM - 1),
                st.sampled_from((np.nan, np.inf, -np.inf)),
            )
        )
    if poison is not None:
        which, index, value = poison
        (q, k, v)[which].flat[index] = value
    valid = dtype.kind == "f" and poison is None
    return q, k, v, valid


def _pool_replay(q, k, v, prompt):
    """The stream decoded alone on a pool laid out like the client's."""
    pool = BlockPool(32, 4, key_dim=DIM)
    session = DecodeSession.start(MASK, q.shape[-2], retain_outputs=True, pool=pool)
    session.prefill(q[:prompt], k[:prompt], v[:prompt])
    for i in range(prompt, q.shape[-2]):
        session.step(q[i], k[i], v[i])
    return session.outputs()


@st.composite
def _misshapen(draw):
    """q/k/v of one short stream laid out unlike the client's pools (no
    batch axes, ``d_k = d_v = DIM``): another batch shape, d_k or d_v."""
    layout = draw(
        st.tuples(
            st.sampled_from([(), (1,), (2,), (2, 3)]),
            st.sampled_from([DIM, 2, 8]),
            st.sampled_from([DIM, 2, 8]),
        ).filter(lambda layout: layout != ((), DIM, DIM))
    )
    batch, d_k, d_v = layout
    total = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q, k = (rng.standard_normal(batch + (total, d_k)).astype(np.float32) for _ in range(2))
    v = rng.standard_normal(batch + (total, d_v)).astype(np.float32)
    return q, k, v


class TestInputValidation:
    """Requests refuse q/k/v that are not finite real floating point, or
    laid out unlike the pool, and pass valid ones through unchanged."""

    GOOD_PROMPT = 3

    def _good(self):
        q, k, v = _data(8, seed=31)
        return LoopRequest(q=q, k=k, v=v, mask=MASK, prompt_tokens=self.GOOD_PROMPT)

    @pytest.mark.parametrize("replicas", [1, 2])
    @given(inputs=_misshapen())
    def test_misshapen_request_is_refused_at_submit(self, replicas, inputs):
        q, k, v = inputs
        good = self._good()
        with _client(replicas=replicas) as client:
            rid = client.submit(good)
            with pytest.raises(ValueError, match="do not match the pool layout"):
                client.submit(LoopRequest(q=q, k=k, v=v, mask=MASK))
            output = client.router.run(max_iterations=50)[rid]
            assert client.router.stats.routed == 1
            for handle in client.router.replicas:
                assert handle.pool.blocks_in_use == 0
        np.testing.assert_array_equal(output, _pool_replay(good.q, good.k, good.v, self.GOOD_PROMPT))

    @given(inputs=_misshapen())
    def test_misshapen_request_is_refused_at_the_edge(self, inputs):
        q, k, v = inputs
        good = self._good()

        async def serve(scheduler):
            async with AsyncServingEdge(scheduler) as edge:
                stream = await edge.submit(good)
                with pytest.raises(ValueError, match="do not match the pool layout"):
                    await edge.submit(LoopRequest(q=q, k=k, v=v, mask=MASK))
                output = await stream.collect()
                assert edge.running
            return output

        with _client() as client:
            output = asyncio.run(serve(client.scheduler))
            assert client.scheduler.pool.blocks_in_use == 0
        np.testing.assert_array_equal(output, _pool_replay(good.q, good.k, good.v, self.GOOD_PROMPT))

    @given(inputs=_inputs())
    def test_generate_and_submit(self, inputs):
        q, k, v, valid = inputs
        with _client() as client:
            if not valid:
                with pytest.raises(ValueError):
                    client.generate(q, k, v, MASK, prompt_tokens=1)
                with pytest.raises(ValueError):
                    client.submit(LoopRequest(q=q, k=k, v=v, mask=MASK, prompt_tokens=1))
                assert client.scheduler.active == 0
                return
            expected = _pool_replay(q, k, v, 1)
            generated = client.generate(q, k, v, MASK, prompt_tokens=1).output
            rid = client.submit(LoopRequest(q=q, k=k, v=v, mask=MASK, prompt_tokens=1))
            submitted = client.scheduler.run()[rid]
        for output in (generated, submitted):
            assert output.dtype == q.dtype
            np.testing.assert_array_equal(output, expected)

    @given(inputs=_inputs())
    def test_serve(self, inputs):
        q, k, v, valid = inputs
        server = AttentionServer()
        try:
            if not valid:
                with pytest.raises(ValueError):
                    server.serve([AttentionRequest(q=q, k=k, v=v, mask=MASK)])
                return
            output = server.serve([AttentionRequest(q=q, k=k, v=v, mask=MASK)])[0].output
        finally:
            server.close()
        np.testing.assert_array_equal(output, compile_plan(MASK, q.shape[-2]).execute(q, k, v).output)

    @pytest.mark.parametrize("name", ["q", "k", "v"])
    def test_refusal_names_the_operand(self, name):
        q, k, v = _data(6, seed=23)
        operands = {"q": q, "k": k, "v": v}
        operands[name] = operands[name].astype(np.int64)
        with pytest.raises(ValueError, match=f"{name} must be a real floating-point array, got int64"):
            LoopRequest(**operands, mask=MASK)
        with pytest.raises(ValueError, match=f"{name} must be a real floating-point array, got int64"):
            AttentionRequest(**operands, mask=MASK)
        operands[name] = operands[name].astype(np.float32)
        operands[name][3, 1] = np.nan
        with pytest.raises(ValueError, match=f"{name} contains 1 non-finite entries"):
            LoopRequest(**operands, mask=MASK)
        with pytest.raises(ValueError, match=f"{name} contains 1 non-finite entries"):
            AttentionRequest(**operands, mask=MASK)

    def test_attention_request_takes_array_likes(self):
        """Nested lists become arrays, as :class:`LoopRequest` converts them."""
        q, k, v = _data(6, seed=29)
        request = AttentionRequest(q=q.tolist(), k=k.tolist(), v=v.tolist(), mask=MASK)
        assert request.q.dtype == np.float64 and request.length == 6
        with pytest.raises(ValueError, match="q must be a real floating-point array"):
            AttentionRequest(q=[[1, 2], [3, 4]], k=[[1, 2], [3, 4]], v=[[1, 2], [3, 4]])
        with pytest.raises(ValueError, match=r"q must be a \(\.\.\., L, d_k\) array"):
            AttentionRequest(q=[0.1, 0.2], k=[0.1, 0.2], v=[0.1, 0.2])
        with AttentionServer() as server:
            output = server.serve([request])[0].output
        expected = compile_plan(MASK, 6).execute(*(x.astype(np.float64) for x in (q, k, v))).output
        np.testing.assert_array_equal(output, expected)
