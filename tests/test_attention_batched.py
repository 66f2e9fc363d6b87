"""Property tests: batched execution matches the per-slice loop.

The tentpole contract of the batched refactor: for every kernel and every
mask preset, executing a ``(B, H, L, d)`` stack in one vectorized call must
agree with looping the same kernel over each ``(L, d)`` slice within 1e-6 —
and bare ``(L, d)`` inputs must keep working through the same code path.
"""

import numpy as np
import pytest

from repro.core.dense import sdp_attention
from repro.core.engine import GraphAttentionEngine
from repro.core.explicit_kernels import coo_attention, csr_attention
from repro.core.flash import flash_attention
from repro.core.implicit_kernels import (
    dilated1d_attention,
    dilated2d_attention,
    global_attention,
    local_attention,
)
from repro.core.multihead import multi_head_attention
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.masks.presets import bigbird_mask, longformer_mask
from repro.masks.random_ import RandomMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.serve.plan import compile_plan
from repro.serve.scheduler import AttentionServer
from repro.serve.session import AttentionRequest
from repro.utils.rng import random_qkv

LENGTH = 96
DIM = 16
TOLERANCE = dict(atol=1e-6, rtol=1e-6)

#: kernel name -> callable taking (q, k, v) of any (..., L, d) shape
KERNELS = {
    "local": lambda q, k, v: local_attention(q, k, v, 7),
    "local-wide": lambda q, k, v: local_attention(q, k, v, 48),  # banded-GEMM path
    "dilated1d": lambda q, k, v: dilated1d_attention(q, k, v, 9, 2),
    "dilated2d": lambda q, k, v: dilated2d_attention(q, k, v, 16, 1),
    "global": lambda q, k, v: global_attention(q, k, v, [0, 50], 4),
    "global-pure": lambda q, k, v: global_attention(q, k, v, [0, 50], 0),
    "csr": lambda q, k, v: csr_attention(q, k, v, RandomMask(sparsity=0.1, seed=3).to_csr(LENGTH)),
    "coo": lambda q, k, v: coo_attention(q, k, v, RandomMask(sparsity=0.1, seed=3).to_coo(LENGTH)),
    "sdp": lambda q, k, v: sdp_attention(q, k, v, LocalMask(window=5)),
    "flash": lambda q, k, v: flash_attention(q, k, v, block_q=32, block_k=32),
}

#: mask presets exercised through engine.run / compile_plan
MASK_PRESETS = {
    "local": LocalMask(window=7),
    "dilated1d": Dilated1DMask(window=9, dilation=2),
    "dilated2d": Dilated2DMask(block_size=16, dilation=1),
    "global-nonlocal": GlobalNonLocalMask([0, 50], window=4),
    "global": GlobalMask([0, 50]),
    "longformer": longformer_mask(reach=6, global_tokens=(0, 48)),
    "bigbird": bigbird_mask(reach=6, global_tokens=(0,), random_sparsity=0.02, seed=5),
    "random": RandomMask(sparsity=0.05, seed=9),
    "dense": None,
}


def _stacked(batch=None, heads=None, seed=0, dtype=np.float64):
    return random_qkv(LENGTH, DIM, batch=batch, heads=heads, seed=seed, dtype=dtype)


class TestKernelsMatchPerSliceLoop:
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_batch_head_stack_matches_loop(self, kernel_name):
        kernel = KERNELS[kernel_name]
        q, k, v = _stacked(batch=2, heads=3, seed=11)
        batched = kernel(q, k, v)
        assert batched.output.shape == q.shape
        assert batched.row_max.shape == q.shape[:-1]
        assert batched.row_sum.shape == q.shape[:-1]
        for b in range(2):
            for h in range(3):
                single = kernel(q[b, h], k[b, h], v[b, h])
                np.testing.assert_allclose(
                    batched.output[b, h], single.output, **TOLERANCE
                )
                np.testing.assert_allclose(
                    batched.row_sum[b, h], single.row_sum, **TOLERANCE
                )

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_single_slice_inputs_still_work(self, kernel_name):
        # ragged traffic degrades to bare (L, d) calls through the same path
        kernel = KERNELS[kernel_name]
        q, k, v = _stacked(seed=12)
        result = kernel(q, k, v)
        assert result.output.shape == (LENGTH, DIM)
        assert result.row_max.shape == (LENGTH,)
        assert result.batch_shape == ()

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_ops_scale_exactly_with_batch(self, kernel_name):
        kernel = KERNELS[kernel_name]
        q, k, v = _stacked(batch=3, seed=13)
        batched = kernel(q, k, v)
        single = kernel(q[0], k[0], v[0])
        assert batched.ops.dot_products == 3 * single.ops.dot_products
        assert batched.ops.flops == 3 * single.ops.flops
        assert batched.ops.wasted_dot_products == 3 * single.ops.wasted_dot_products


class TestDispatchPaths:
    @pytest.mark.parametrize("preset_name", sorted(MASK_PRESETS))
    def test_engine_run_batched_matches_loop(self, preset_name):
        mask = MASK_PRESETS[preset_name]
        engine = GraphAttentionEngine()
        q, k, v = _stacked(batch=2, heads=2, seed=21)
        batched = engine.run(q, k, v, mask)
        for b in range(2):
            for h in range(2):
                single = engine.run(q[b, h], k[b, h], v[b, h], mask)
                assert single.algorithm == batched.algorithm
                np.testing.assert_allclose(
                    batched.output[b, h], single.output, **TOLERANCE
                )

    @pytest.mark.parametrize("preset_name", sorted(MASK_PRESETS))
    def test_compiled_plan_executes_any_batch_shape(self, preset_name):
        mask = MASK_PRESETS[preset_name]
        plan = compile_plan(mask, LENGTH)
        flat_q, flat_k, flat_v = _stacked(seed=22)
        single = plan.execute(flat_q, flat_k, flat_v)
        q, k, v = _stacked(batch=2, heads=2, seed=22)
        q[0, 0], k[0, 0], v[0, 0] = flat_q, flat_k, flat_v
        batched = plan.execute(q, k, v)
        np.testing.assert_allclose(batched.output[0, 0], single.output, **TOLERANCE)

    def test_multi_head_wrapper_matches_per_head_loop(self):
        q, k, v = random_qkv(LENGTH, 24, seed=23, dtype=np.float64)
        kernel = lambda a, b, c: local_attention(a, b, c, 5)  # noqa: E731
        result = multi_head_attention(q, k, v, kernel, num_heads=4)
        heads = np.ascontiguousarray(q.reshape(LENGTH, 4, 6).transpose(1, 0, 2))
        k_heads = np.ascontiguousarray(k.reshape(LENGTH, 4, 6).transpose(1, 0, 2))
        v_heads = np.ascontiguousarray(v.reshape(LENGTH, 4, 6).transpose(1, 0, 2))
        for h in range(4):
            single = kernel(heads[h], k_heads[h], v_heads[h])
            np.testing.assert_allclose(
                result.output[:, h * 6 : (h + 1) * 6], single.output, **TOLERANCE
            )

    def test_multi_head_wrapper_supports_single_head_only_kernels(self):
        # a legacy closure that rejects stacked inputs still runs per head
        def strict_single_head(q, k, v):
            if q.ndim != 2:
                raise ValueError("single-head only")
            return local_attention(q, k, v, 5)

        q, k, v = random_qkv(LENGTH, 24, seed=24, dtype=np.float64)
        legacy = multi_head_attention(q, k, v, strict_single_head, num_heads=4)
        batched = multi_head_attention(
            q, k, v, lambda a, b, c: local_attention(a, b, c, 5), num_heads=4
        )
        np.testing.assert_allclose(legacy.output, batched.output, **TOLERANCE)


class TestServerCoalescing:
    def test_same_shape_requests_stack_into_one_execution(self):
        mask = LocalMask(window=7)
        server = AttentionServer(cache_capacity=4)
        data = [random_qkv(LENGTH, DIM, seed=30 + i) for i in range(5)]
        responses = server.serve(
            [AttentionRequest(q=q, k=k, v=v, mask=mask) for q, k, v in data]
        )
        assert server.stats.stacked_executions == 1
        assert server.stats.coalesced_requests == 5
        for (q, k, v), response in zip(data, responses):
            np.testing.assert_allclose(
                response.output, sdp_attention(q, k, v, mask).output, atol=1e-5, rtol=1e-5
            )
            assert response.result.meta["coalesced"] == 5

    def test_batched_requests_coalesce_too(self):
        # (H, L, d) requests stack into an (N, H, L, d) execution
        mask = longformer_mask(reach=6, global_tokens=(0,))
        server = AttentionServer(cache_capacity=4)
        data = [random_qkv(LENGTH, DIM, heads=3, seed=40 + i) for i in range(3)]
        responses = server.serve(
            [AttentionRequest(q=q, k=k, v=v, mask=mask) for q, k, v in data]
        )
        assert server.stats.stacked_executions == 1
        for (q, k, v), response in zip(data, responses):
            assert response.output.shape == (3, LENGTH, DIM)
            for h in range(3):
                np.testing.assert_allclose(
                    response.output[h],
                    sdp_attention(q[h], k[h], v[h], mask).output,
                    atol=1e-5,
                    rtol=1e-5,
                )

    def test_ragged_shapes_fall_back_to_singleton_groups(self):
        mask = LocalMask(window=7)
        server = AttentionServer(cache_capacity=4)
        q1, k1, v1 = random_qkv(LENGTH, DIM, seed=50)
        q2, k2, v2 = random_qkv(LENGTH, DIM + 4, seed=51)  # same L, ragged d
        q3, k3, v3 = random_qkv(LENGTH, DIM, heads=2, seed=52)  # ragged rank
        responses = server.serve(
            [
                AttentionRequest(q=q1, k=k1, v=v1, mask=mask),
                AttentionRequest(q=q2, k=k2, v=v2, mask=mask),
                AttentionRequest(q=q3, k=k3, v=v3, mask=mask),
            ]
        )
        assert server.stats.stacked_executions == 0
        assert server.stats.batches == 1  # one plan still serves all three
        np.testing.assert_allclose(
            responses[0].output, sdp_attention(q1, k1, v1, mask).output, atol=1e-5, rtol=1e-5
        )
        np.testing.assert_allclose(
            responses[1].output, sdp_attention(q2, k2, v2, mask).output, atol=1e-5, rtol=1e-5
        )
        assert responses[2].output.shape == (2, LENGTH, DIM)

    def test_coalesced_ops_split_exactly(self):
        mask = LocalMask(window=7)
        server = AttentionServer(cache_capacity=4)
        data = [random_qkv(LENGTH, DIM, seed=60 + i) for i in range(4)]
        responses = server.serve(
            [AttentionRequest(q=q, k=k, v=v, mask=mask) for q, k, v in data]
        )
        solo = server.handle(*random_qkv(LENGTH, DIM, seed=99), mask)
        for response in responses:
            assert response.result.ops.dot_products == solo.result.ops.dot_products
