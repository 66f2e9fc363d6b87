"""Tests for the implicit ordered-sparsity kernels (Local, Dilated-1D/2D, Global)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.dense import sdp_attention
from repro.core.implicit_kernels import (
    _CHUNK_ELEMENT_BUDGET,
    dilated1d_attention,
    dilated2d_attention,
    global_attention,
    local_attention,
)
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalNonLocalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.utils.rng import random_qkv
from repro.utils.validation import assert_allclose_paper


class TestLocalKernel:
    @pytest.mark.parametrize("window", [1, 2, 8, 33, 64])
    def test_matches_dense_reference(self, small_qkv, window):
        q, k, v = small_qkv
        expected = sdp_attention(q, k, v, LocalMask(window=window)).output
        np.testing.assert_allclose(local_attention(q, k, v, window).output, expected, atol=1e-10)

    def test_paper_verification_tolerance(self, paper_qkv):
        q, k, v = paper_qkv
        expected = sdp_attention(q, k, v, LocalMask(window=17)).output
        assert_allclose_paper(local_attention(q, k, v, 17).output, expected)

    def test_streamed_matches_vectorized(self, small_qkv):
        q, k, v = small_qkv
        vec = local_attention(q, k, v, 5)
        streamed = local_attention(q, k, v, 5, executor="streamed")
        np.testing.assert_allclose(streamed.output, vec.output, atol=1e-10)

    def test_row_chunking_does_not_change_result(self, small_qkv):
        q, k, v = small_qkv
        full = local_attention(q, k, v, 7).output
        for chunk in (1, 3, 17, 1000):
            np.testing.assert_allclose(
                local_attention(q, k, v, 7, row_chunk=chunk).output, full, atol=1e-12
            )

    def test_window_one_returns_value_rows(self, small_qkv):
        q, k, v = small_qkv
        # each token attends only itself: softmax over one element = 1
        np.testing.assert_allclose(local_attention(q, k, v, 1).output, v, atol=1e-10)

    def test_window_covering_sequence_equals_dense(self, small_qkv):
        q, k, v = small_qkv
        expected = sdp_attention(q, k, v).output
        np.testing.assert_allclose(local_attention(q, k, v, q.shape[0] + 10).output, expected, atol=1e-10)

    def test_op_counts_charge_only_mask_edges(self, small_qkv):
        q, k, v = small_qkv
        window = 5
        result = local_attention(q, k, v, window)
        nnz = LocalMask(window=window).nnz(q.shape[0])
        assert result.ops.dot_products - result.ops.wasted_dot_products == nnz
        # boundary padding is small compared to the useful work
        assert result.ops.wasted_dot_products < nnz

    def test_statistics_allow_merging(self, small_qkv):
        q, k, v = small_qkv
        result = local_attention(q, k, v, 4)
        assert result.row_max.shape == (q.shape[0],)
        assert np.all(result.row_sum > 0)


class TestDilated1DKernel:
    @pytest.mark.parametrize("window,dilation", [(5, 1), (9, 2), (13, 3), (4, 0)])
    def test_matches_dense_reference(self, small_qkv, window, dilation):
        q, k, v = small_qkv
        mask = Dilated1DMask(window=window, dilation=dilation)
        expected = sdp_attention(q, k, v, mask).output
        result = dilated1d_attention(q, k, v, window, dilation)
        np.testing.assert_allclose(result.output, expected, atol=1e-10)

    def test_zero_dilation_equals_local_kernel(self, small_qkv):
        q, k, v = small_qkv
        np.testing.assert_allclose(
            dilated1d_attention(q, k, v, 6, 0).output,
            local_attention(q, k, v, 6).output,
            atol=1e-12,
        )

    def test_streamed_matches_vectorized(self, small_qkv):
        q, k, v = small_qkv
        vec = dilated1d_attention(q, k, v, 7, 2)
        streamed = dilated1d_attention(q, k, v, 7, 2, executor="streamed")
        np.testing.assert_allclose(streamed.output, vec.output, atol=1e-10)

    def test_paper_verification_tolerance(self, paper_qkv):
        q, k, v = paper_qkv
        mask = Dilated1DMask(window=21, dilation=1)
        expected = sdp_attention(q, k, v, mask).output
        assert_allclose_paper(dilated1d_attention(q, k, v, 21, 1).output, expected)


class TestDilated2DKernel:
    @pytest.mark.parametrize("block,dilation", [(8, 1), (16, 0), (5, 2), (64, 1)])
    def test_matches_dense_reference(self, small_qkv, block, dilation):
        q, k, v = small_qkv
        mask = Dilated2DMask(block_size=block, dilation=dilation)
        expected = sdp_attention(q, k, v, mask).output
        result = dilated2d_attention(q, k, v, block, dilation)
        np.testing.assert_allclose(result.output, expected, atol=1e-10)

    def test_off_grid_rows_left_at_zero(self, small_qkv):
        q, k, v = small_qkv
        result = dilated2d_attention(q, k, v, 8, 1)
        mask = Dilated2DMask(block_size=8, dilation=1)
        empty = np.setdiff1d(np.arange(q.shape[0]), mask.active_rows(q.shape[0]))
        np.testing.assert_array_equal(result.output[empty], np.zeros((empty.size, v.shape[1])))

    def test_streamed_matches_vectorized(self, small_qkv):
        q, k, v = small_qkv
        vec = dilated2d_attention(q, k, v, 8, 1)
        streamed = dilated2d_attention(q, k, v, 8, 1, executor="streamed")
        np.testing.assert_allclose(streamed.output, vec.output, atol=1e-10)

    def test_paper_verification_tolerance(self, paper_qkv):
        q, k, v = paper_qkv
        mask = Dilated2DMask(block_size=32, dilation=1)
        expected = sdp_attention(q, k, v, mask).output
        assert_allclose_paper(dilated2d_attention(q, k, v, 32, 1).output, expected)

    def test_work_optimal(self, small_qkv):
        q, k, v = small_qkv
        result = dilated2d_attention(q, k, v, 8, 1)
        assert result.ops.dot_products == Dilated2DMask(block_size=8, dilation=1).nnz(q.shape[0])
        assert result.ops.wasted_dot_products == 0


class TestGlobalKernel:
    @pytest.mark.parametrize("tokens,window", [([0], 1), ([0, 31], 4), ([5, 20, 40], 8), ([63], 2)])
    def test_matches_dense_reference(self, small_qkv, tokens, window):
        q, k, v = small_qkv
        mask = GlobalNonLocalMask(tokens, window=window)
        expected = sdp_attention(q, k, v, mask).output
        result = global_attention(q, k, v, tokens, window)
        np.testing.assert_allclose(result.output, expected, atol=1e-10)

    def test_paper_verification_tolerance(self, paper_qkv):
        q, k, v = paper_qkv
        tokens, window = [0, 100, 200], 10
        expected = sdp_attention(q, k, v, GlobalNonLocalMask(tokens, window=window)).output
        assert_allclose_paper(global_attention(q, k, v, tokens, window).output, expected)

    def test_streamed_matches_vectorized(self, small_qkv):
        q, k, v = small_qkv
        vec = global_attention(q, k, v, [0, 16], 3)
        streamed = global_attention(q, k, v, [0, 16], 3, executor="streamed")
        np.testing.assert_allclose(streamed.output, vec.output, atol=1e-10)

    def test_non_global_rows_only_see_global_columns(self, small_qkv):
        q, k, v = small_qkv
        tokens = [0]
        result = global_attention(q, k, v, tokens, 1)
        # a non-global row's output is exactly V[0] (softmax over a single key)
        np.testing.assert_allclose(result.output[10], v[0], atol=1e-10)

    def test_token_out_of_range_rejected(self, small_qkv):
        q, k, v = small_qkv
        with pytest.raises(ValueError):
            global_attention(q, k, v, [q.shape[0] + 5], 1)

    def test_window_exclusion_leaves_rows_near_globals_empty(self, small_qkv):
        q, k, v = small_qkv
        # with a huge window every global column is excluded for nearby rows
        result = global_attention(q, k, v, [0], window=q.shape[0])
        assert result.empty_rows().size == q.shape[0]


#: Stencil calls by strategy: bands of 193 and 129 offsets run the banded
#: GEMM, bands of 31 offsets the exact gather.
STENCIL_CALLS = {
    "local-gemm": lambda q, k, v: local_attention(q, k, v, 97),
    "dilated-gemm": lambda q, k, v: dilated1d_attention(q, k, v, 193, 2),
    "local-gather": lambda q, k, v: local_attention(q, k, v, 16),
    "dilated-gather": lambda q, k, v: dilated1d_attention(q, k, v, 46, 2),
}


class TestStackWidth:
    """A stack of any width tiles every slice exactly as a single-slice call."""

    @pytest.fixture(scope="class")
    def stack(self):
        # 160 slices: past the width where a stack-sized row chunk would
        # shrink below the 193-offset band (about 56 slices)
        return random_qkv(2048, 8, dtype=np.float64, batch=160, seed=7)

    @pytest.mark.parametrize("case", sorted(STENCIL_CALLS))
    def test_wide_stacks_equal_single_slice_calls(self, stack, case):
        run = STENCIL_CALLS[case]
        q, k, v = stack
        singles = [run(q[b], k[b], v[b]) for b in range(q.shape[0])]
        wasted = singles[0].ops.wasted_dot_products
        assert wasted > 0
        for width in (64, 160):
            stacked = run(q[:width], k[:width], v[:width])
            for field in ("output", "row_max", "row_sum"):
                expected = np.stack([getattr(single, field) for single in singles[:width]])
                np.testing.assert_array_equal(getattr(stacked, field), expected)
            assert stacked.ops.wasted_dot_products == width * wasted

    def test_wide_stack_temporaries_fit_the_element_budget(self, stack):
        q, k, v = stack
        tracemalloc.start()
        try:
            result = local_attention(q, k, v, 97)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = result.output.nbytes + result.row_max.nbytes + result.row_sum.nbytes
        # the score tile is the one budget-sized temporary; the rest (a
        # group's chunk outputs and row statistics) is a small fraction
        assert peak - held <= 1.25 * _CHUNK_ELEMENT_BUDGET * q.itemsize
