"""Tests for the multi-replica routing cost model (repro.perfmodel.router).

Three families of checks:

* **internal consistency** — routing cost is monotone in prompt length and
  counts only whole blocks; scaling-law algebra matches its closed form at
  the corners (perfect affinity -> exactly N, nothing shared -> exactly N).
* **cross-module agreement** — ``rebalance_gain`` and ``balanced_makespan``
  run the *same* partitioner as ``ReplicaRouter.rebalance``, so their moved
  counts and post-move loads must replay against a live router's
  ``RebalanceRecord``, and the int8 param-byte constant must stay in sync
  with ``repro.serve.quant`` (the two subpackages deliberately do not
  import each other).
* **economics** — routing one request costs microseconds, orders below the
  prefill a single warm block saves, so affinity routing is always a win.
"""

import numpy as np
import pytest

from repro.perfmodel.router import (
    FINGERPRINT_BANDWIDTH,
    MOVE_STREAM_SECONDS,
    ROUTE_LOOKUP_SECONDS,
    balanced_makespan,
    fingerprint_seconds,
    rebalance_gain,
    router_throughput_scaling,
    routing_cost,
)


class TestRoutingCost:
    def test_only_whole_blocks_are_hashed(self):
        # 10 tokens at block_size 4 -> 8 covered tokens, 2-token tail ignored
        estimate = routing_cost(10, 4, block_size=4)
        assert estimate.hashed_bytes == 8 * (4 + 4) * 4
        assert routing_cost(3, 4, block_size=4).hashed_bytes == 0

    def test_monotone_in_prompt_and_dims(self):
        costs = [routing_cost(n, 8).seconds for n in (0, 16, 64, 256)]
        assert costs == sorted(costs)
        assert routing_cost(64, 16).seconds > routing_cost(64, 8).seconds

    def test_int8_params_enter_the_hash(self):
        from repro.serve.quant import QUANT_PARAM_BYTES_PER_TOKEN

        plain = routing_cost(16, 4, storage_itemsize=1)
        quant = routing_cost(
            16, 4, storage_itemsize=1,
            param_bytes_per_token=QUANT_PARAM_BYTES_PER_TOKEN,
        )
        assert quant.hashed_bytes - plain.hashed_bytes == 16 * QUANT_PARAM_BYTES_PER_TOKEN

    def test_param_byte_constant_in_sync_with_serve(self):
        # perfmodel never imports serve; this test is the sync contract
        from repro.serve.quant import (
            QUANT_PARAM_BYTES_PER_TOKEN,
            storage_param_bytes_per_token,
        )

        assert storage_param_bytes_per_token("int8") == QUANT_PARAM_BYTES_PER_TOKEN
        assert storage_param_bytes_per_token("fp16") == 0

    def test_lookup_floor_and_bandwidth(self):
        assert routing_cost(0, 4).seconds == ROUTE_LOOKUP_SECONDS
        assert fingerprint_seconds(int(FINGERPRINT_BANDWIDTH)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            fingerprint_seconds(-1)

    def test_routing_tax_is_dwarfed_by_the_prefill_it_saves(self):
        # a hit saves re-prefilling the whole shared prefix; even at an
        # optimistic 10 us/token that is ~2.6 ms against a ~264 us hash tax
        estimate = routing_cost(256, 64, block_size=16)
        assert estimate.worthwhile_when_saved_seconds < 256 * 10e-6
        # and the tax is pure bandwidth: double the prompt, double the cost
        assert routing_cost(512, 64, block_size=16).fingerprint_seconds == (
            pytest.approx(2 * estimate.fingerprint_seconds)
        )


class TestScalingLaw:
    def test_perfect_affinity_scales_linearly(self):
        for n in (1, 2, 4, 8):
            assert router_throughput_scaling(
                n, route_hit_rate=1.0, shared_prefill_fraction=0.9
            ) == pytest.approx(n)

    def test_nothing_shared_scales_linearly(self):
        assert router_throughput_scaling(
            4, route_hit_rate=0.0, shared_prefill_fraction=0.0
        ) == pytest.approx(4.0)

    def test_cold_routing_pays_the_shared_prefill_again(self):
        # h=0, s=0.9: four replicas deliver only 4/1.9
        assert router_throughput_scaling(
            4, route_hit_rate=0.0, shared_prefill_fraction=0.9
        ) == pytest.approx(4 / 1.9)

    def test_bench_regime_clears_the_ci_floor(self):
        # test_serve_router's scaling workload: 4 replicas, hit rate >= 0.8,
        # 90% shared prefix
        assert router_throughput_scaling(
            4, route_hit_rate=0.8, shared_prefill_fraction=0.9
        ) > 1.8

    def test_monotone_in_hit_rate(self):
        curve = [
            router_throughput_scaling(4, route_hit_rate=h, shared_prefill_fraction=0.9)
            for h in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert curve == sorted(curve)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            router_throughput_scaling(0, route_hit_rate=0.5, shared_prefill_fraction=0.5)
        with pytest.raises(ValueError):
            router_throughput_scaling(2, route_hit_rate=1.5, shared_prefill_fraction=0.5)


class TestRebalanceModel:
    def test_balanced_makespan_is_lpt_partition(self):
        assert balanced_makespan([10, 10, 10, 10], 4) == 10
        assert balanced_makespan([], 4) == 0.0
        # LPT on {7, 5, 4, 3, 1} over 2 workers: {7, 3} vs {5, 4, 1} -> 10
        assert balanced_makespan([7, 5, 4, 3, 1], 2) == 10

    def test_all_on_one_replica_spreads_flat(self):
        estimate = rebalance_gain([100, 0, 0, 0], [25, 25, 25, 25], [0, 0, 0, 0])
        assert estimate.makespan_before == 100
        assert estimate.makespan_after == 25
        assert estimate.moved_streams == 3  # one bin stays home
        assert estimate.move_seconds == 3 * MOVE_STREAM_SECONDS
        assert estimate.worthwhile
        assert estimate.makespan_gain == pytest.approx(4.0)

    def test_no_movable_streams_changes_nothing(self):
        estimate = rebalance_gain([60, 20], [], [])
        assert estimate.makespan_after == estimate.makespan_before == 60
        assert estimate.moved_streams == 0
        assert not estimate.worthwhile

    def test_origin_validation(self):
        with pytest.raises(ValueError):
            rebalance_gain([10, 10], [5], [7])

    def test_model_replays_a_live_router_rebalance(self):
        """The model's pairing is the router's pairing, bit for bit."""
        from repro.masks.structured import CausalMask
        from repro.serve import LoopRequest, ReplicaRouter

        rng = np.random.default_rng(61)
        router = ReplicaRouter(
            4, key_dim=4, num_blocks=16, block_size=4, max_streams=1,
            rebalance_interval=2,
        )
        pk = rng.normal(size=(8, 4)).astype(np.float32)
        pv = rng.normal(size=(8, 4)).astype(np.float32)
        for _ in range(8):
            total = int(rng.integers(10, 18))
            tail = total - 8
            router.submit(
                LoopRequest(
                    q=rng.normal(size=(total, 4)).astype(np.float32),
                    k=np.concatenate([pk, rng.normal(size=(tail, 4)).astype(np.float32)]),
                    v=np.concatenate([pv, rng.normal(size=(tail, 4)).astype(np.float32)]),
                    mask=CausalMask(),
                    prompt_tokens=8,
                )
            )
        # capture the load/cost picture the next rebalance pass will see,
        # then trigger it directly and compare the model's account
        loads = router.replica_loads().astype(float)
        movable_replicas = []
        movable_costs = []
        for handle in router.replicas:
            for local_id in handle.scheduler.withdrawable():
                movable_replicas.append(handle.index)
                movable_costs.append(handle.scheduler.telemetry[local_id].total_tokens)
        estimate = rebalance_gain(loads, movable_costs, movable_replicas)
        moved = router.rebalance()
        assert moved == estimate.moved_streams > 0
        np.testing.assert_allclose(
            router.replica_loads().max(), estimate.makespan_after
        )
        assert estimate.worthwhile
        router.run()
        router.close()
