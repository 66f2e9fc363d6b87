"""Tests for the work-counting, work-optimality and PRAM cost models (Section IV-B)."""

import numpy as np
import pytest

from repro.core.dense import sdp_attention
from repro.core.explicit_kernels import csr_attention
from repro.core.flash import flash_attention
from repro.core.implicit_kernels import (
    dilated1d_attention,
    dilated2d_attention,
    local_attention,
)
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.random_ import RandomMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.sparse.block import blockify
from repro.utils.rng import random_qkv
from repro.work.counting import (
    dense_dot_products,
    dense_flops,
    expected_dot_products,
    serial_complexity,
    sparse_flops,
)
from repro.work.optimality import check_work_optimality, work_efficiency
from repro.work.pram import PRAMCostModel, block_sparse_cost, dense_invalidate_cost, graph_cost


class TestCounting:
    def test_serial_complexity_formula(self):
        assert serial_complexity(0.01, 1000, 64) == pytest.approx(0.01 * 1000 * 1000 * 64)

    def test_dense_dot_products(self):
        assert dense_dot_products(128) == 128 * 128

    def test_flops_formulas(self):
        assert sparse_flops(10, 8) == 2 * 10 * 8 + 2 * 10 * 8
        assert dense_flops(16, 8) == sparse_flops(256, 8)

    def test_expected_dot_products_from_all_representations(self):
        mask = LocalMask(window=3)
        length = 64
        nnz = mask.nnz(length)
        assert expected_dot_products(mask, length) == nnz
        assert expected_dot_products(mask.to_csr(length)) == nnz
        assert expected_dot_products(mask.to_coo(length)) == nnz
        assert expected_dot_products(nnz) == nnz

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            serial_complexity(1.5, 10, 4)
        with pytest.raises(ValueError):
            expected_dot_products(LocalMask(window=2))


class TestWorkOptimality:
    def test_graph_kernels_are_work_optimal(self, small_qkv):
        q, k, v = small_qkv
        length, dim = q.shape
        cases = [
            (csr_attention(q, k, v, RandomMask(sparsity=0.1, seed=0).to_csr(length)),
             RandomMask(sparsity=0.1, seed=0).to_csr(length).nnz),
            (local_attention(q, k, v, 5), LocalMask(window=5).nnz(length)),
            (dilated2d_attention(q, k, v, 8, 1), Dilated2DMask(block_size=8, dilation=1).nnz(length)),
        ]
        for result, nnz in cases:
            report = check_work_optimality(result, nnz, dim)
            assert report.is_work_optimal
            assert report.excess_ratio == pytest.approx(1.0, rel=0.2)

    def test_wide_dilated_kernel_is_work_optimal(self):
        # 65 offsets spanning 193 columns: the banded path runs on each of the
        # three residue bands, so the dense tiles never cover the gaps between
        # dilated offsets
        length = 512
        q, k, v = random_qkv(length, 16, dtype=np.float64, seed=3)
        mask = Dilated1DMask(window=97, dilation=2)
        nnz = mask.nnz(length)
        result = dilated1d_attention(q, k, v, 97, 2)
        report = check_work_optimality(result, nnz, q.shape[1])
        assert report.is_work_optimal
        assert report.overhead_fraction <= 1.0
        assert result.ops.dot_products - result.ops.wasted_dot_products == nnz

    def test_streamed_kernels_are_strictly_work_optimal(self, small_qkv):
        q, k, v = small_qkv
        result = local_attention(q, k, v, 5, executor="streamed")
        report = check_work_optimality(result, LocalMask(window=5).nnz(q.shape[0]), q.shape[1])
        assert report.is_strictly_work_optimal
        assert report.overhead_fraction == 0.0

    def test_dense_sdp_is_not_work_optimal(self, small_qkv):
        q, k, v = small_qkv
        mask = LocalMask(window=3)
        result = sdp_attention(q, k, v, mask)
        report = check_work_optimality(result, mask.nnz(q.shape[0]), q.shape[1])
        assert not report.is_work_optimal
        # efficiency equals the sparsity factor for dense-then-invalidate
        assert work_efficiency(result, mask.nnz(q.shape[0])) == pytest.approx(
            mask.sparsity_factor(q.shape[0]), rel=1e-6
        )

    def test_block_sparse_flash_between_the_two(self, small_qkv):
        q, k, v = small_qkv
        length = q.shape[0]
        mask = LocalMask(window=3)
        blocks = blockify(mask.to_coo(length), block_size=8)
        result = flash_attention(q, k, v, block_q=8, block_k=8, block_mask=blocks)
        nnz = mask.nnz(length)
        efficiency = work_efficiency(result, nnz)
        dense_efficiency = work_efficiency(sdp_attention(q, k, v, mask), nnz)
        assert dense_efficiency < efficiency < 1.0

    def test_zero_nnz_edge_case(self, small_qkv):
        q, k, v = small_qkv
        from repro.sparse.csr import CSRMatrix

        result = csr_attention(q, k, v, CSRMatrix.empty((q.shape[0], q.shape[0])))
        report = check_work_optimality(result, 0, q.shape[1])
        assert report.is_work_optimal
        assert work_efficiency(result, 0) == 1.0


class TestPRAMModel:
    def test_graph_cost_is_serial_complexity(self):
        assert graph_cost(1000, 64, 0.01) == serial_complexity(0.01, 1000, 64)

    def test_dense_invalidate_cost_dominates(self):
        assert dense_invalidate_cost(1000, 64, 0.01) > graph_cost(1000, 64, 0.01)

    def test_block_sparse_cost_inflated_by_fill(self):
        assert block_sparse_cost(1000, 64, 0.01, block_density=0.25) == pytest.approx(
            4 * graph_cost(1000, 64, 0.01)
        )

    def test_cost_optimality_criterion(self):
        model = PRAMCostModel(length=4096, head_dim=64, sparsity_factor=0.001)
        processors = 128
        assert model.is_cost_optimal(model.graph_kernel_cost(processors) / processors, processors)
        assert not model.is_cost_optimal(
            model.dense_invalidate_kernel_cost(processors) / processors, processors
        )

    def test_parallel_time_scales_with_processors(self):
        model = PRAMCostModel(length=1024, head_dim=32, sparsity_factor=0.1)
        work = model.serial_work
        assert model.parallel_time(work, 64) == pytest.approx(model.parallel_time(work, 1) / 64)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PRAMCostModel(length=0, head_dim=4, sparsity_factor=0.5)
        with pytest.raises(ValueError):
            block_sparse_cost(10, 4, 0.5, block_density=0.0)
