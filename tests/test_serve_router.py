"""Differential suite for the multi-replica router (repro.serve.router).

The headline invariant: **routing is placement, not computation**.  For every
mask family, every storage dtype and every replica count, a workload routed
across N replicas emits outputs *bit-identical* (``==``, not ``allclose``) to
the same workload on one replica, and each stream equals its own private
:class:`~repro.serve.DecodeSession` replay over a same-storage pool.  The
invariant survives everything the router can do to a stream: affinity and
fallback placement, mid-decode cancellation of a neighbour, per-replica pool
exhaustion (preempt/swap/restore), and rebalance moves (which only ever touch
streams that have not computed anything yet).

The one deliberate exception is the sharded path: an oversized prompt runs
as FlashDecoding-style K/V-parallel attention across a
:class:`~repro.distributed.SimulatedWorld`, whose online-softmax merge
reassociates float additions — that path is checked at float tolerance, and
its communication volume is checked against the comm layer's own stats.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.distributed import balanced_worker_bins
from repro.masks.presets import longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.core.engine import GraphAttentionEngine
from repro.obs import Observability
from repro.serve import (
    DecodeSession,
    InfeasibleRequest,
    LoopRequest,
    ReplicaRouter,
    ServingClient,
    SlackPolicy,
    VirtualClock,
    aggregate_loop_stats,
    decode_reference_mask,
    prefix_fingerprints,
)
from repro.serve.paging import BlockPool

DIM = 4

MASKS = [
    LocalMask(window=5),
    CausalMask(),
    Dilated1DMask(window=5, dilation=2),
    longformer_mask(reach=2, global_tokens=(0,)),
]


def _ids(mask):
    return type(mask).__name__ if type(mask).__name__ != "MaskSpec" else "preset"


def _family_specs(
    mask,
    *,
    num_families=2,
    per_family=3,
    prompt=8,
    total=14,
    seed=0,
):
    """Stream specs in ``num_families`` groups sharing a full-block K/V prefix.

    Fingerprints hash K/V only, so queries always differ; with
    ``block_size=4`` a prompt of 8 contributes two full blocks to the
    affinity chain.  Specs are plain dicts so each run materializes fresh
    :class:`LoopRequest` objects (submit stamps ``request_id`` in place).
    """
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(num_families):
        pk = rng.normal(size=(prompt, DIM)).astype(np.float32)
        pv = rng.normal(size=(prompt, DIM)).astype(np.float32)
        for _ in range(per_family):
            tail = total - prompt
            specs.append(
                {
                    "mask": mask,
                    "prompt": prompt,
                    "total": total,
                    "q": rng.normal(size=(total, DIM)).astype(np.float32),
                    "k": np.concatenate(
                        [pk, rng.normal(size=(tail, DIM)).astype(np.float32)]
                    ),
                    "v": np.concatenate(
                        [pv, rng.normal(size=(tail, DIM)).astype(np.float32)]
                    ),
                }
            )
    return specs


def _request(spec) -> LoopRequest:
    return LoopRequest(
        q=spec["q"],
        k=spec["k"],
        v=spec["v"],
        mask=spec["mask"],
        prompt_tokens=spec["prompt"],
    )


def _run_routed(specs, *, replicas, **kwargs):
    """Submit every spec, run to drain, return (outputs in submission order, router)."""
    kwargs.setdefault("key_dim", DIM)
    kwargs.setdefault("num_blocks", 16)
    kwargs.setdefault("block_size", 4)
    kwargs.setdefault("max_streams", 4)
    kwargs.setdefault("rebalance_interval", 0)
    router = ReplicaRouter(replicas, **kwargs)
    rids = [router.submit(_request(spec)) for spec in specs]
    router.run()
    outputs = [router.results[rid] for rid in rids]
    return outputs, router


def _replay(spec, storage):
    """Private same-storage DecodeSession replay of one stream."""
    pool = BlockPool(32, 4, key_dim=DIM, storage=storage)
    session = DecodeSession.start(
        spec["mask"], spec["total"], retain_outputs=True, pool=pool
    )
    q, k, v = spec["q"], spec["k"], spec["v"]
    if spec["prompt"]:
        session.prefill(q[: spec["prompt"]], k[: spec["prompt"]], v[: spec["prompt"]])
    for i in range(spec["prompt"], spec["total"]):
        session.step(q[i], k[i], v[i])
    return session.outputs()


# --------------------------------------------------------------------------- #
# The headline differential: routed == single replica, bit for bit
# --------------------------------------------------------------------------- #
class TestRoutedBitExact:
    @pytest.mark.parametrize("mask", MASKS, ids=_ids)
    @pytest.mark.parametrize("storage", ["fp32", "fp16", "int8"])
    @pytest.mark.parametrize("replicas", [2, 4])
    def test_routed_equals_single_replica_oracle(self, mask, storage, replicas):
        specs = _family_specs(mask, seed=7)
        routed, router = _run_routed(specs, replicas=replicas, storage=storage)
        oracle, single = _run_routed(specs, replicas=1, storage=storage)
        for got, want, spec in zip(routed, oracle, specs):
            assert_array_equal(got, want)
            assert_array_equal(got, _replay(spec, storage))
        # placement spread the work without losing or duplicating a stream
        assert router.stats.routed == len(specs)
        assert router.stats.route_hits + router.stats.route_misses == len(specs)
        assert router.loop_stats().finished == len(specs)
        assert single.stats.route_hits + single.stats.route_misses == len(specs)
        router.close()
        single.close()

    @pytest.mark.parametrize("router_policy", ["affinity", "weighted", "round_robin"])
    def test_every_routing_policy_is_bit_exact(self, router_policy):
        specs = _family_specs(CausalMask(), seed=11)
        routed, router = _run_routed(
            specs, replicas=3, router_policy=router_policy, storage="fp32"
        )
        oracle, single = _run_routed(specs, replicas=1, storage="fp32")
        for got, want in zip(routed, oracle):
            assert_array_equal(got, want)
        if router_policy == "round_robin":
            assert router.stats.route_hits == 0  # never consults the prefix map
        router.close()
        single.close()

    def test_threaded_stepping_is_bit_exact(self):
        specs = _family_specs(LocalMask(window=5), num_families=3, seed=3)
        routed, router = _run_routed(specs, replicas=4, threaded=True, storage="fp32")
        oracle, single = _run_routed(specs, replicas=1, storage="fp32")
        for got, want in zip(routed, oracle):
            assert_array_equal(got, want)
        router.close()
        single.close()


# --------------------------------------------------------------------------- #
# Affinity: shared prefixes land warm
# --------------------------------------------------------------------------- #
class TestAffinity:
    def test_shared_prefix_families_hit_after_first_sight(self):
        specs = _family_specs(CausalMask(), num_families=3, per_family=4, seed=5)
        _, router = _run_routed(specs, replicas=4, storage="fp32")
        # exactly one cold miss per family; every later family member hits
        assert router.stats.route_misses == 3
        assert router.stats.route_hits == len(specs) - 3
        assert router.stats.route_hit_rate == pytest.approx(9 / 12)
        router.close()

    def test_family_members_share_a_replica(self):
        specs = _family_specs(CausalMask(), num_families=2, per_family=4, seed=9)
        router = ReplicaRouter(4, key_dim=DIM, num_blocks=16, block_size=4)
        rids = [router.submit(_request(spec)) for spec in specs]
        placements = [router._placements[rid].replica for rid in rids]
        assert len(set(placements[:4])) == 1
        assert len(set(placements[4:])) == 1
        router.run()
        router.close()

    def test_fingerprints_match_what_the_pool_would_register(self):
        # the router's routing key is the pool-free fingerprint chain; it
        # must agree with a direct call over the same prompt tensors
        spec = _family_specs(CausalMask(), num_families=1, per_family=1, seed=2)[0]
        router = ReplicaRouter(2, key_dim=DIM, num_blocks=16, block_size=4)
        rid = router.submit(_request(spec))
        chain = prefix_fingerprints(
            spec["k"][: spec["prompt"]],
            spec["v"][: spec["prompt"]],
            block_size=4,
            storage=router.storage,
            dtype=router.pool_dtype,
        )
        assert router._placements[rid].fingerprints == chain
        assert len(chain) == spec["prompt"] // 4
        router.run()
        router.close()


# --------------------------------------------------------------------------- #
# Scaling: replicas add capacity on the virtual clock
# --------------------------------------------------------------------------- #
class TestScaling:
    """32 streams in 4 families share a 36-token prompt and decode 4 private
    tokens each, so 90% of every stream's tokens sit in the shared prefix.

    Replicas model independent workers that each advance one iteration per
    tick of one shared virtual clock, so the clock reads how many
    iterations the cluster needs to drain the queue.
    """

    @pytest.fixture(scope="class")
    def drains(self):
        specs = _family_specs(
            None, num_families=4, per_family=8, prompt=36, total=40, seed=0
        )
        runs = {}
        for replicas, router_policy in [(1, "affinity"), (4, "affinity"), (4, "round_robin")]:
            clock = VirtualClock()
            outputs, router = _run_routed(
                specs,
                replicas=replicas,
                router_policy=router_policy,
                clock=clock,
                num_blocks=96,
                max_streams=8,
                prefill_chunk=36,
            )
            router.close()
            runs[replicas, router_policy] = (outputs, router.stats, clock.now())
        return runs

    def test_four_replicas_match_one_bit_for_bit(self, drains):
        for got, want in zip(drains[4, "affinity"][0], drains[1, "affinity"][0]):
            assert_array_equal(got, want)

    def test_affinity_lands_family_members_warm(self, drains):
        assert drains[4, "affinity"][1].route_hit_rate >= 0.8
        assert drains[4, "round_robin"][1].route_hit_rate == 0.0

    def test_four_replicas_drain_at_least_1_8x_faster(self, drains):
        one, four = drains[1, "affinity"][2], drains[4, "affinity"][2]
        assert one >= 1.8 * four


# --------------------------------------------------------------------------- #
# Mid-decode cancellation
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_mid_decode_cancel_drops_one_stream_and_disturbs_none(self):
        specs = _family_specs(LocalMask(window=5), num_families=2, per_family=3, seed=13)
        router = ReplicaRouter(2, key_dim=DIM, num_blocks=16, block_size=4)
        rids = [router.submit(_request(spec)) for spec in specs]
        for _ in range(3):  # let decode get under way before the cancel
            router.step()
        victim = rids[1]
        assert victim not in router.results
        assert router.cancel(victim)
        assert not router.cancel(victim)  # second cancel races nothing
        router.run()
        assert victim not in router.results
        assert router.telemetry[victim].cancelled
        assert router.stats.cancelled == 1
        survivors, oracle_router = _run_routed(
            [spec for rid, spec in zip(rids, specs) if rid != victim],
            replicas=1,
        )
        live = [rid for rid in rids if rid != victim]
        for rid, want in zip(live, survivors):
            assert_array_equal(router.results[rid], want)
        # cancellation released the victim's blocks on its replica
        for handle in router.replicas:
            assert handle.pool.blocks_in_use == 0
            handle.pool.check_consistency()
        router.close()
        oracle_router.close()

    def test_placements_go_with_finished_and_cancelled_streams(self):
        specs = _family_specs(LocalMask(window=5), num_families=2, per_family=3, seed=53)
        router = ReplicaRouter(2, key_dim=DIM, num_blocks=16, block_size=4)
        rids = [router.submit(_request(spec)) for spec in specs]
        assert sorted(router._placements) == rids
        router.step()
        assert router.cancel(rids[0])
        router.run()
        for rid in rids[1:]:
            router.results.pop(rid)
        assert router._placements == {}
        assert not router.cancel(rids[0])  # already cancelled
        assert not router.cancel(rids[1])  # finished and popped
        assert not router.cancel(max(rids) + 1)  # never existed
        router.close()

    def test_cancel_unknown_and_finished_ids_return_false(self):
        specs = _family_specs(CausalMask(), num_families=1, per_family=1, seed=1)
        router = ReplicaRouter(2, key_dim=DIM, num_blocks=16, block_size=4)
        rid = router.submit(_request(specs[0]))
        router.run()
        assert not router.cancel(rid)  # already finished
        assert not router.cancel(999)  # never existed
        router.close()


# --------------------------------------------------------------------------- #
# Per-replica pool exhaustion: preemption on one replica, bits unchanged
# --------------------------------------------------------------------------- #
class TestPoolExhaustion:
    @pytest.mark.parametrize("preemption", ["swap", "recompute"])
    def test_tight_replica_pools_preempt_but_stay_exact(self, preemption):
        # every stream needs 4 blocks (+CoW slack); a 6-block replica pool
        # can run only one at a time, so co-routed streams must preempt
        specs = _family_specs(
            LocalMask(window=5), num_families=1, per_family=6, prompt=8, total=16,
            seed=17,
        )
        routed, router = _run_routed(
            specs,
            replicas=2,
            num_blocks=6,
            max_streams=3,
            preemption=preemption,
            storage="fp32",
        )
        assert router.loop_stats().preemptions > 0
        oracle, single = _run_routed(
            specs, replicas=1, num_blocks=6, max_streams=3, preemption=preemption,
            storage="fp32",
        )
        for got, want, spec in zip(routed, oracle, specs):
            assert_array_equal(got, want)
            assert_array_equal(got, _replay(spec, "fp32"))
        for handle in router.replicas:
            assert handle.pool.blocks_in_use == 0
            assert len(handle.swap_store) == 0
        router.close()
        single.close()


# --------------------------------------------------------------------------- #
# Rebalancing: partitioner-driven moves, recorded and bit-preserving
# --------------------------------------------------------------------------- #
class TestRebalance:
    def _skewed_router(self, specs, replicas=4):
        # identical prefixes + affinity pile every stream onto one replica;
        # max_streams=1 keeps most of them waiting (withdrawable) so the
        # first rebalance pass has real work to spread
        router = ReplicaRouter(
            replicas,
            key_dim=DIM,
            num_blocks=16,
            block_size=4,
            max_streams=1,
            rebalance_interval=2,
        )
        rids = [router.submit(_request(spec)) for spec in specs]
        return router, rids

    def test_rebalance_record_matches_the_partitioner(self):
        specs = _family_specs(CausalMask(), num_families=1, per_family=8, seed=23)
        router, rids = self._skewed_router(specs)
        while router.last_rebalance is None or router.last_rebalance.moved == 0:
            router.step()
        record = router.last_rebalance
        # the record's bins are exactly balanced_worker_bins over its costs
        expected = balanced_worker_bins(record.costs, router.num_replicas)
        assert len(record.bins) == len(expected)
        for got, want in zip(record.bins, expected):
            assert_array_equal(got, want)
        assert record.moved >= 1
        assert router.stats.moved_streams >= record.moved
        assert router.stats.rebalance_passes >= 1
        router.run()
        router.close()

    @pytest.mark.parametrize("streams", [5, 8])
    @pytest.mark.parametrize("replicas", [2, 3, 4])
    def test_rebalance_pass_lands_each_bin_on_its_replica(self, replicas, streams):
        # the immovable base load stays put and bin rank r's weight lands on
        # replica_order[r], so the pass's makespan is known before it runs
        specs = _family_specs(CausalMask(), num_families=1, per_family=streams, seed=61)
        router, _ = self._skewed_router(specs, replicas)
        before = router.replica_loads()
        origins, costs = [], []
        for handle in router.replicas:
            for rid in handle.scheduler.withdrawable():
                origins.append(handle.index)
                costs.append(handle.scheduler.telemetry[rid].total_tokens)
        moved = router.rebalance()
        record = router.last_rebalance
        assert moved == record.moved > 0
        assert_array_equal(record.costs, costs)
        expected = before - np.bincount(origins, weights=costs, minlength=router.num_replicas)
        weights = sorted((record.costs[b].sum() for b in record.bins), reverse=True)
        for replica, weight in zip(record.replica_order, weights):
            expected[replica] += weight
        after = router.replica_loads()
        assert_array_equal(after, expected)
        assert after.max() == expected.max() < before.max()
        router.run()
        router.close()

    def test_moved_streams_finish_bit_exact(self):
        specs = _family_specs(CausalMask(), num_families=1, per_family=8, seed=29)
        router, rids = self._skewed_router(specs)
        router.run()
        assert router.stats.moved_streams > 0  # skew forced real moves
        # a moved stream keeps the id its first replica gave it
        assert [router.telemetry[rid].request_id for rid in rids] == rids
        oracle, single = _run_routed(specs, replicas=1)
        for rid, want, spec in zip(rids, oracle, specs):
            assert_array_equal(router.results[rid], want)
            assert_array_equal(router.results[rid], _replay(spec, "fp32"))
        # a move is one withdraw + one resubmit, counted on the loop side too
        assert router.loop_stats().withdrawn == router.stats.moved_streams
        router.close()
        single.close()


# --------------------------------------------------------------------------- #
# Sharded execution of oversized prompts (the one float-tolerance path)
# --------------------------------------------------------------------------- #
class TestSharded:
    def _oversized_spec(self, total=40, seed=31):
        rng = np.random.default_rng(seed)
        return {
            "mask": CausalMask(),
            "prompt": total,
            "total": total,
            "q": rng.normal(size=(total, DIM)).astype(np.float32),
            "k": rng.normal(size=(total, DIM)).astype(np.float32),
            "v": rng.normal(size=(total, DIM)).astype(np.float32),
        }

    def test_oversized_prompt_shards_and_matches_engine(self):
        spec = self._oversized_spec()
        # 40 tokens need 10 blocks; each replica holds 4 -> must shard
        router = ReplicaRouter(4, key_dim=DIM, num_blocks=4, block_size=4)
        rid = router.submit(_request(spec))
        assert rid in router.results  # sharded requests finish synchronously
        reference = GraphAttentionEngine().run(
            spec["q"], spec["k"], spec["v"],
            decode_reference_mask(spec["mask"], spec["total"]),
        )
        np.testing.assert_allclose(
            router.results[rid], reference.output, atol=1e-6, rtol=1e-6
        )
        assert router.stats.sharded_requests == 1
        assert router.stats.routed == 0  # sharding bypasses placement
        assert router.comm_stats.bytes_moved > 0
        telemetry = router.telemetry[rid]
        assert telemetry.tokens_emitted == spec["total"]
        router.close()

    def test_oversized_decode_request_is_infeasible(self):
        spec = self._oversized_spec()
        router = ReplicaRouter(2, key_dim=DIM, num_blocks=4, block_size=4)
        request = _request(spec)
        request.prompt_tokens = 8  # decode tokens cannot shard
        with pytest.raises(InfeasibleRequest):
            router.submit(request)
        router.close()



# --------------------------------------------------------------------------- #
# Telemetry plumbing
# --------------------------------------------------------------------------- #
class TestTelemetry:
    def test_aggregate_loop_stats_sums_every_replica(self):
        specs = _family_specs(CausalMask(), num_families=2, per_family=3, seed=37)
        _, router = _run_routed(specs, replicas=3)
        total = router.loop_stats()
        parts = [handle.scheduler.stats.snapshot() for handle in router.replicas]
        assert total.finished == sum(p.finished for p in parts) == len(specs)
        assert total.iterations == sum(p.iterations for p in parts)
        assert total.prefill_tokens == sum(p.prefill_tokens for p in parts)
        assert total.decode_tokens == sum(p.decode_tokens for p in parts)
        # and the free-function alias agrees
        again = aggregate_loop_stats(parts)
        assert again.tokens_total == total.tokens_total
        router.close()

    def test_obs_counters_close_against_router_stats(self):
        obs = Observability()
        specs = _family_specs(CausalMask(), num_families=2, per_family=3, seed=41)
        _, router = _run_routed(specs, replicas=2, obs=obs)
        snap = obs.snapshot()
        hits = snap.get("router_routes_total", outcome="hit")
        misses = snap.get("router_routes_total", outcome="miss")
        assert (hits.value if hits else 0) == router.stats.route_hits
        assert (misses.value if misses else 0) == router.stats.route_misses
        assert router.stats.route_hits + router.stats.route_misses == len(specs)
        submitted = snap.get("loop_requests_submitted_total")
        assert submitted.value == len(specs) + router.stats.moved_streams
        router.close()

    def test_ids_are_the_replicas_ids(self):
        specs = _family_specs(CausalMask(), num_families=2, per_family=2, seed=59)
        obs = Observability()
        router = ReplicaRouter(
            2, key_dim=DIM, num_blocks=16, block_size=4, obs=obs, rebalance_interval=0
        )
        rids = [router.submit(_request(spec)) for spec in specs]
        assert len(set(rids)) == len(rids)
        for rid in rids:
            handle = router.replicas[router._placements[rid].replica]
            assert handle.scheduler.telemetry[rid] is router.telemetry[rid]
        finished = []
        while router.active:
            finished += router.step().finished
        assert sorted(finished) == rids == sorted(router.results)
        spans = [r for r in obs.trace.drain() if r.get("kind") == "span" and r["name"] == "request"]
        assert sorted(span["request"] for span in spans) == rids
        router.close()

    def test_one_replica_takes_a_policy_instance(self):
        policy = SlackPolicy()
        with ReplicaRouter(1, key_dim=DIM, policy=policy) as router:
            assert router.replicas[0].scheduler.policy is policy
        with pytest.raises(ValueError):
            ReplicaRouter(2, key_dim=DIM, policy=SlackPolicy())

    def test_replica_loads_reports_pending_tokens(self):
        router = ReplicaRouter(3, key_dim=DIM, num_blocks=16, block_size=4)
        assert_array_equal(router.replica_loads(), np.zeros(3, dtype=np.int64))
        spec = _family_specs(CausalMask(), num_families=1, per_family=1, seed=43)[0]
        router.submit(_request(spec))
        assert router.replica_loads().sum() == spec["total"]
        router.run()
        assert router.replica_loads().sum() == 0
        router.close()


# --------------------------------------------------------------------------- #
# The client facade
# --------------------------------------------------------------------------- #
class TestClientReplicas:
    def test_generate_many_matches_single_replica_client(self):
        specs = _family_specs(CausalMask(), num_families=2, per_family=3, seed=47)
        requests = [_request(spec) for spec in specs]
        with ServingClient(replicas=4, key_dim=DIM) as routed_client:
            routed = routed_client.generate_many(requests)
        requests_again = [_request(spec) for spec in specs]
        with ServingClient(replicas=1, key_dim=DIM) as plain_client:
            plain = plain_client.generate_many(requests_again)
        for got, want in zip(routed, plain):
            assert_array_equal(got.output, want.output)

    def test_single_server_entry_points_are_guarded(self):
        with ServingClient(replicas=2, key_dim=DIM) as client:
            assert client.router is not None
            with pytest.raises(ValueError):
                client.scheduler
            with pytest.raises(ValueError):
                client.open_session(CausalMask(), 8)
