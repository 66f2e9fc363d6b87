"""Tests for sequence-parallel masked attention over the simulated communicator."""

import numpy as np
import pytest

from repro.core.dense import sdp_attention
from repro.core.engine import GraphAttentionEngine
from repro.distributed.comm import SimulatedWorld
from repro.distributed.sequence_parallel import (
    kv_parallel_attention,
    sequence_parallel_attention,
    shard_rows,
)
from repro.masks.global_ import GlobalNonLocalMask
from repro.masks.presets import bigbird_mask, default_global_tokens, longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import LocalMask
from repro.utils.rng import random_qkv
from repro.utils.validation import assert_allclose_paper


@pytest.fixture(scope="module")
def inputs():
    return random_qkv(384, 16, dtype=np.float64, seed=21)


class TestCorrectness:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 5, 8])
    def test_matches_single_node_result(self, inputs, num_ranks):
        q, k, v = inputs
        mask = longformer_mask(reach=10, global_tokens=(0, 200)).to_csr(q.shape[0])
        reference = sdp_attention(q, k, v, mask).output
        result = sequence_parallel_attention(q, k, v, mask, num_ranks=num_ranks)
        assert_allclose_paper(result.output, reference, context=f"{num_ranks} ranks")

    def test_accepts_mask_spec(self, inputs):
        q, k, v = inputs
        spec = LocalMask(window=8)
        reference = sdp_attention(q, k, v, spec).output
        result = sequence_parallel_attention(q, k, v, spec, num_ranks=4)
        assert_allclose_paper(result.output, reference)

    def test_bigbird_mask_distributed(self, inputs):
        q, k, v = inputs
        mask = bigbird_mask(
            reach=8, global_tokens=default_global_tokens(q.shape[0], 3), random_sparsity=0.01, seed=5
        ).to_csr(q.shape[0])
        reference = sdp_attention(q, k, v, mask).output
        result = sequence_parallel_attention(q, k, v, mask, num_ranks=4)
        assert_allclose_paper(result.output, reference)

    def test_equal_row_partition_also_correct(self, inputs):
        q, k, v = inputs
        mask = LocalMask(window=6).to_csr(q.shape[0])
        reference = sdp_attention(q, k, v, mask).output
        result = sequence_parallel_attention(q, k, v, mask, num_ranks=3, balance_by_edges=False)
        assert_allclose_paper(result.output, reference)


class TestWorkDistribution:
    def test_per_rank_ops_sum_to_total_edges(self, inputs):
        q, k, v = inputs
        mask = LocalMask(window=6).to_csr(q.shape[0])
        result = sequence_parallel_attention(q, k, v, mask, num_ranks=4)
        assert result.total_ops.dot_products == mask.nnz
        assert result.work_per_rank().sum() == mask.nnz

    def test_edge_balancing_helps_on_skewed_mask(self, inputs):
        q, k, v = inputs
        length = q.shape[0]
        mask = (LocalMask(window=2) | GlobalNonLocalMask([0, 1, 2], window=2)).to_csr(length)
        naive = sequence_parallel_attention(q, k, v, mask, num_ranks=4, balance_by_edges=False)
        balanced = sequence_parallel_attention(q, k, v, mask, num_ranks=4, balance_by_edges=True)
        assert balanced.load_balance() <= naive.load_balance()

    def test_shard_rows_contiguous_bounds(self):
        partition = shard_rows(100, 4)
        assert partition.bounds[0][0] == 0 and partition.bounds[-1][1] == 100

    def test_single_rank_degenerates_to_serial(self, inputs):
        q, k, v = inputs
        mask = LocalMask(window=4).to_csr(q.shape[0])
        result = sequence_parallel_attention(q, k, v, mask, num_ranks=1)
        assert result.num_ranks == 1
        assert result.load_balance() == 1.0


class TestCommunication:
    def test_allgather_volume_scales_with_ranks(self, inputs):
        q, k, v = inputs
        mask = LocalMask(window=4).to_csr(q.shape[0])
        small = sequence_parallel_attention(q, k, v, mask, num_ranks=2).comm_stats.bytes_moved
        large = sequence_parallel_attention(q, k, v, mask, num_ranks=8).comm_stats.bytes_moved
        assert large > small

    def test_collectives_recorded(self, inputs):
        q, k, v = inputs
        mask = LocalMask(window=4).to_csr(q.shape[0])
        stats = sequence_parallel_attention(q, k, v, mask, num_ranks=4).comm_stats
        assert stats.collectives.get("allgather", 0) == 2  # K and V
        assert stats.collectives.get("scatter", 0) == 3  # Q, K shards, V shards

    def test_external_world_reused(self, inputs):
        q, k, v = inputs
        mask = LocalMask(window=4).to_csr(q.shape[0])
        world = SimulatedWorld(4)
        sequence_parallel_attention(q, k, v, mask, num_ranks=4, world=world)
        assert world.stats.bytes_moved > 0

    def test_world_size_mismatch_rejected(self, inputs):
        q, k, v = inputs
        mask = LocalMask(window=4).to_csr(q.shape[0])
        with pytest.raises(ValueError):
            sequence_parallel_attention(q, k, v, mask, num_ranks=4, world=SimulatedWorld(2))

    def test_mask_shape_mismatch_rejected(self, inputs):
        q, k, v = inputs
        with pytest.raises(ValueError):
            sequence_parallel_attention(q, k, v, LocalMask(window=4).to_csr(128), num_ranks=2)


class TestKVParallel:
    """K/V rows scatter, Q broadcasts, and per-rank partial online-softmax
    states merge at rank 0: equal to the one-node kernel up to float
    reassociation, with communication counted on the world it runs on."""

    def _inputs(self, total=40, dim=4, seed=19):
        rng = np.random.default_rng(seed)
        q, k, v = (rng.normal(size=(total, dim)).astype(np.float32) for _ in range(3))
        return q, k, v, CausalMask()

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_matches_the_engine(self, num_ranks):
        q, k, v, mask = self._inputs()
        result = kv_parallel_attention(q, k, v, mask, num_ranks=num_ranks)
        reference = GraphAttentionEngine().run(q, k, v, mask)
        np.testing.assert_allclose(result.output, reference.output, atol=1e-6, rtol=1e-6)

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_comm_stats_repeat_exactly(self, num_ranks):
        q, k, v, mask = self._inputs()
        first, second = (SimulatedWorld(num_ranks) for _ in range(2))
        once = kv_parallel_attention(q, k, v, mask, num_ranks=num_ranks, world=first)
        again = kv_parallel_attention(q, k, v, mask, num_ranks=num_ranks, world=second)
        np.testing.assert_array_equal(once.output, again.output)
        assert once.comm_stats is first.stats
        assert first.stats.bytes_moved == second.stats.bytes_moved > 0
        assert first.stats.messages == second.stats.messages
        assert first.stats.collectives == second.stats.collectives

    def test_stats_add_up_across_calls_on_one_world(self):
        world, single = SimulatedWorld(2), SimulatedWorld(2)
        q, k, v, mask = self._inputs(seed=23)
        kv_parallel_attention(q, k, v, mask, num_ranks=2, world=single)
        kv_parallel_attention(q, k, v, mask, num_ranks=2, world=world)
        q, k, v, mask = self._inputs(seed=29)
        kv_parallel_attention(q, k, v, mask, num_ranks=2, world=world)
        assert world.stats.bytes_moved == 2 * single.stats.bytes_moved
        assert world.stats.messages == 2 * single.stats.messages
        assert world.stats.collectives == {
            kind: 2 * count for kind, count in single.stats.collectives.items()
        }
