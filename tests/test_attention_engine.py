"""Tests for the GraphAttentionEngine dispatcher."""

import numpy as np
import pytest

from repro.core.dense import sdp_attention
from repro.core.engine import ALGORITHMS, GraphAttentionEngine
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalNonLocalMask
from repro.masks.presets import bigbird_mask, longformer_mask
from repro.masks.random_ import RandomMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.utils.validation import assert_allclose_paper


@pytest.fixture
def engine():
    return GraphAttentionEngine()


class TestAutoDispatch:
    def test_none_mask_uses_flash(self, engine, small_qkv):
        q, k, v = small_qkv
        result = engine.run(q, k, v, None)
        assert result.algorithm == "flash"

    @pytest.mark.parametrize(
        "spec,expected_algorithm",
        [
            (LocalMask(window=4), "local"),
            (Dilated1DMask(window=5, dilation=1), "dilated1d"),
            (Dilated2DMask(block_size=16, dilation=1), "dilated2d"),
            (GlobalNonLocalMask([0], window=2), "global"),
        ],
    )
    def test_specialised_kernels_selected(self, engine, small_qkv, spec, expected_algorithm):
        q, k, v = small_qkv
        result = engine.run(q, k, v, spec)
        assert result.algorithm == expected_algorithm
        reference = sdp_attention(q, k, v, spec).output
        np.testing.assert_allclose(result.output, reference, atol=1e-8)

    def test_arbitrary_mask_falls_back_to_csr(self, engine, small_qkv):
        q, k, v = small_qkv
        spec = RandomMask(sparsity=0.1, seed=0)
        result = engine.run(q, k, v, spec)
        assert result.algorithm == "csr"

    def test_dense_array_input(self, engine, small_qkv):
        q, k, v = small_qkv
        dense_mask = LocalMask(window=3).to_dense(q.shape[0])
        result = engine.run(q, k, v, dense_mask)
        reference = sdp_attention(q, k, v, dense_mask).output
        np.testing.assert_allclose(result.output, reference, atol=1e-8)

    def test_union_of_specialised_masks_is_composed(self, engine, medium_qkv):
        q, k, v = medium_qkv
        mask = longformer_mask(reach=10, global_tokens=(0, 200))
        result = engine.run(q, k, v, mask)
        assert result.algorithm == "composed"
        assert_allclose_paper(result.output, sdp_attention(q, k, v, mask).output)

    def test_union_with_random_component_runs_local_plus_one_csr(self, engine, medium_qkv):
        q, k, v = medium_qkv
        mask = bigbird_mask(reach=10, global_tokens=(0,), random_sparsity=0.01, seed=1)
        result = engine.run(q, k, v, mask)
        assert result.algorithm == "composed"
        assert result.meta["components"] == ["local", "csr"]
        assert_allclose_paper(result.output, sdp_attention(q, k, v, mask).output)


class TestNamedAlgorithms:
    def test_algorithm_names_exported(self):
        assert "csr" in ALGORITHMS and "auto" in ALGORITHMS

    def test_explicit_algorithm_selection(self, engine, small_qkv):
        q, k, v = small_qkv
        spec = LocalMask(window=4)
        reference = sdp_attention(q, k, v, spec).output
        for name in ("sdp", "csr", "coo", "local"):
            result = engine.run(q, k, v, spec, algorithm=name)
            np.testing.assert_allclose(result.output, reference, atol=1e-8)

    def test_flash_rejects_mask(self, engine, small_qkv):
        q, k, v = small_qkv
        with pytest.raises(ValueError):
            engine.run(q, k, v, LocalMask(window=2), algorithm="flash")

    def test_unknown_algorithm_rejected(self, engine, small_qkv):
        q, k, v = small_qkv
        with pytest.raises(ValueError):
            engine.run(q, k, v, None, algorithm="magic")

    def test_csr_requires_mask(self, engine, small_qkv):
        q, k, v = small_qkv
        with pytest.raises(ValueError):
            engine.run(q, k, v, None, algorithm="csr")


class TestBookkeeping:
    def test_history_and_op_totals(self, small_qkv):
        engine = GraphAttentionEngine()
        q, k, v = small_qkv
        engine.run(q, k, v, LocalMask(window=3))
        engine.run(q, k, v, LocalMask(window=3), algorithm="sdp")
        assert len(engine.history) == 2
        totals = engine.op_counts()
        assert totals["dot_products"] > 0
        assert totals["wasted_dot_products"] > 0  # SDP call wastes work

    def test_streamed_executor_propagates(self, small_qkv):
        q, k, v = small_qkv
        engine = GraphAttentionEngine(executor="streamed")
        result = engine.run(q, k, v, LocalMask(window=3))
        reference = sdp_attention(q, k, v, LocalMask(window=3)).output
        np.testing.assert_allclose(result.output, reference, atol=1e-8)
