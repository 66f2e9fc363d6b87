"""Tests for the KV-cache memory model (repro.perfmodel.decode)."""

import dataclasses
from math import prod

import numpy as np
import pytest

from repro.perfmodel.decode import (
    blocks_for_tokens,
    kv_block_bytes,
    kv_cache_bytes,
    max_cached_tokens,
    paged_kv_cache_bytes,
    paged_sessions_supported,
    paging_fragmentation_overhead,
)
from repro.perfmodel.devices import A100_SXM4_80GB, V100_SXM2_32GB
from repro.serve.paging import BlockPool, PagedKVCache, PoolExhausted


class TestKvCacheBytes:
    def test_per_token_accounting(self):
        # one token, one head: d_k + d_v elements at the dtype width
        assert kv_cache_bytes(1, 64, dtype="fp16") == (64 + 64) * 2
        assert kv_cache_bytes(1, 64, value_dim=128, dtype="fp32") == (64 + 128) * 4

    def test_linear_in_length_heads_batch(self):
        base = kv_cache_bytes(1024, 64, dtype="fp16")
        assert kv_cache_bytes(2048, 64, dtype="fp16") == 2 * base
        assert kv_cache_bytes(1024, 64, heads=8, dtype="fp16") == 8 * base
        assert kv_cache_bytes(1024, 64, batch=4, dtype="fp16") == 4 * base

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            kv_cache_bytes(-1, 64)
        with pytest.raises(ValueError):
            kv_cache_bytes(16, 0)


class TestMaxCachedTokens:
    def test_longer_on_larger_device(self):
        a100 = max_cached_tokens(A100_SXM4_80GB, head_dim=64, heads=32, dtype="fp16")
        v100 = max_cached_tokens(V100_SXM2_32GB, head_dim=64, heads=32, dtype="fp16")
        assert a100 > v100 > 0

    def test_reserved_bytes_shrink_the_budget(self):
        full = max_cached_tokens(A100_SXM4_80GB, head_dim=64)
        half = max_cached_tokens(
            A100_SXM4_80GB, head_dim=64, reserved_bytes=A100_SXM4_80GB.memory_bytes // 2
        )
        assert half == pytest.approx(full / 2, rel=0.01)

    def test_exhausted_budget_is_zero(self):
        assert (
            max_cached_tokens(
                A100_SXM4_80GB, head_dim=64, reserved_bytes=A100_SXM4_80GB.memory_bytes
            )
            == 0
        )


class TestPagedAccounting:
    def test_blocks_round_up(self):
        assert blocks_for_tokens(0, 16) == 0
        assert blocks_for_tokens(1, 16) == 1
        assert blocks_for_tokens(16, 16) == 1
        assert blocks_for_tokens(17, 16) == 2

    def test_paged_bytes_pad_to_whole_blocks(self):
        exact = kv_cache_bytes(32, 64, dtype="fp16")
        assert paged_kv_cache_bytes(32, 64, block_size=16, dtype="fp16") == exact
        assert paged_kv_cache_bytes(33, 64, block_size=16, dtype="fp16") == kv_cache_bytes(
            48, 64, dtype="fp16"
        )

    def test_fragmentation_bounds(self):
        assert paging_fragmentation_overhead(32, 16) == 0.0
        assert paging_fragmentation_overhead(17, 16) == pytest.approx(15 / 17)
        # never worse than one block minus one token, vanishing with length
        assert paging_fragmentation_overhead(10_001, 16) < 16 / 10_001

    def test_max_cached_tokens_block_granularity(self):
        dense = max_cached_tokens(A100_SXM4_80GB, head_dim=64)
        paged = max_cached_tokens(A100_SXM4_80GB, head_dim=64, block_size=16)
        assert paged <= dense
        assert dense - paged < 16  # loses at most the trailing partial block

    def test_shared_prompt_multiplies_sessions(self):
        budget = 1 << 30
        kwargs = dict(block_size=16, head_dim=64, dtype="fp16")
        private = paged_sessions_supported(
            budget, prompt_tokens=256, shared_prefix_tokens=0, **kwargs
        )
        shared = paged_sessions_supported(
            budget, prompt_tokens=256, shared_prefix_tokens=224, **kwargs
        )
        assert shared > 3 * private  # the benchmark's capacity-win shape

    def test_fully_shared_prompt_is_budget_bound(self):
        sessions = paged_sessions_supported(
            1 << 20,
            prompt_tokens=64,
            shared_prefix_tokens=64,
            block_size=16,
            head_dim=64,
        )
        assert sessions > 0

    def test_shared_prefix_cannot_exceed_prompt(self):
        with pytest.raises(ValueError):
            paged_sessions_supported(
                1 << 20,
                prompt_tokens=16,
                shared_prefix_tokens=32,
                block_size=16,
                head_dim=64,
            )


class TestStorageAccounting:
    def test_kv_block_bytes_matches_dense_block_at_default_storage(self):
        assert kv_block_bytes(16, 64, dtype="fp16") == kv_cache_bytes(
            16, 64, dtype="fp16"
        )
        assert kv_block_bytes(16, 64, dtype="fp32", storage="fp32") == kv_cache_bytes(
            16, 64, dtype="fp32"
        )

    def test_int8_storage_prices_payload_plus_params(self):
        # 16 tokens · (64 + 64) int8 elements + 16 tokens · 16 param bytes
        assert kv_block_bytes(16, 64, dtype="fp32", storage="int8") == 16 * (
            128 + 16
        )

    def test_param_overhead_scales_with_slices(self):
        one = kv_block_bytes(16, 64, dtype="fp32", storage="int8")
        assert kv_block_bytes(16, 64, heads=4, dtype="fp32", storage="int8") == 4 * one

    def test_paged_bytes_at_storage(self):
        fp32 = paged_kv_cache_bytes(33, 64, block_size=16, dtype="fp32")
        int8 = paged_kv_cache_bytes(33, 64, block_size=16, dtype="fp32", storage="int8")
        assert int8 < fp32 / 2  # >2x capacity after the param overhead

    def test_int8_at_least_doubles_sessions_supported(self):
        budget = 1 << 30
        kwargs = dict(
            prompt_tokens=256,
            shared_prefix_tokens=224,
            decode_tokens=8,
            block_size=8,
            head_dim=64,
            dtype="fp32",
        )
        fp32 = paged_sessions_supported(budget, **kwargs)
        int8 = paged_sessions_supported(budget, storage="int8", **kwargs)
        assert int8 >= 2 * fp32 > 0

    def test_max_cached_tokens_grows_with_quantized_storage(self):
        dense = max_cached_tokens(A100_SXM4_80GB, head_dim=64, dtype="fp32")
        quant = max_cached_tokens(
            A100_SXM4_80GB, head_dim=64, dtype="fp32", storage="int8"
        )
        assert quant >= 2 * dense
        paged = max_cached_tokens(
            A100_SXM4_80GB, head_dim=64, dtype="fp32", storage="int8", block_size=16
        )
        assert paged <= quant and quant - paged < 16


# --------------------------------------------------------------------------- #
# The model against the live allocator: every figure above is a prediction
# of what repro.serve.paging does, so each one is replayed on a real pool
# --------------------------------------------------------------------------- #
def _rows(batch_shape, count, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(tuple(batch_shape) + (count, dim)).astype(np.float32)


def _model_geometry(key_dim, value_dim, batch_shape):
    """kv_block_bytes keyword arguments for a pool's layout."""
    # the model counts heads · batch slices; a pool counts prod(batch_shape)
    heads = batch_shape[-1] if batch_shape else 1
    batch = prod(batch_shape[:-1]) if len(batch_shape) > 1 else 1
    return dict(value_dim=value_dim, heads=heads, batch=batch, dtype="fp32")


class TestLivePoolReplay:
    @pytest.mark.parametrize(
        "block_size, key_dim, value_dim, batch_shape, storage",
        [
            (1, 8, 8, (), "fp32"),
            (16, 64, 64, (), "fp16"),
            (16, 64, 64, (), "int8"),
            (8, 32, 16, (), "fp32"),
            (8, 32, 16, (), "int8"),
            (4, 8, 8, (2, 3), "fp32"),
            (4, 8, 8, (2, 3), "int8"),
            (32, 16, 16, (4,), "fp16"),
        ],
    )
    def test_block_bytes_and_budget_blocks_match_the_pool(
        self, block_size, key_dim, value_dim, batch_shape, storage
    ):
        geometry = _model_geometry(key_dim, value_dim, batch_shape)
        block_bytes = kv_block_bytes(block_size, key_dim, storage=storage, **geometry)
        pool = BlockPool(
            3,
            block_size,
            key_dim=key_dim,
            value_dim=value_dim,
            batch_shape=batch_shape,
            storage=storage,
        )
        assert pool.block_bytes == block_bytes
        assert pool.nbytes == 3 * block_bytes  # arenas plus int8 parameters
        # a budget one byte short of a whole block buys one block fewer
        for budget in (7 * block_bytes, 7 * block_bytes - 1):
            sized = BlockPool.from_budget(
                budget,
                block_size,
                key_dim=key_dim,
                value_dim=value_dim,
                batch_shape=batch_shape,
                storage=storage,
            )
            assert sized.num_blocks == budget // block_bytes
            assert sized.nbytes <= budget

    @pytest.mark.parametrize("storage", ["fp32", "int8"])
    @pytest.mark.parametrize("block_size", [1, 4, 16])
    def test_growing_cache_maps_blocks_for_tokens(self, block_size, storage):
        key_dim = 8
        pool = BlockPool(80, block_size, key_dim=key_dim, storage=storage)
        cache = PagedKVCache(pool)
        chunks = [1, 3, 7, 16, 2, 1, 15, 5, 20]  # 70 tokens, crossing blocks unevenly
        for seed, count in enumerate(chunks):
            cache.extend(
                _rows((), count, key_dim, seed), _rows((), count, key_dim, 100 + seed)
            )
            length = cache.length
            assert cache.blocks_used == blocks_for_tokens(length, block_size)
            expected = paged_kv_cache_bytes(
                length, key_dim, block_size=block_size, dtype="fp32", storage=storage
            )
            assert cache.nbytes == pool.used_bytes == expected
            slack = (cache.capacity - length) / length
            assert slack == paging_fragmentation_overhead(length, block_size)

    @pytest.mark.parametrize(
        "prompt, shared, decode, block_size, storage, batch_shape",
        [
            (24, 0, 0, 8, "fp32", ()),  # nothing shared, block-aligned prompts
            (30, 0, 5, 8, "fp32", ()),  # nothing shared, decode past the prompt
            (64, 48, 8, 16, "fp32", ()),  # block-aligned shared prefix
            (40, 37, 3, 8, "fp32", ()),  # only the prefix's 4 whole blocks share
            (20, 20, 6, 8, "fp32", ()),  # shared partial tail copied on write
            (32, 32, 1, 16, "fp32", ()),  # whole prompt shared, one decode token
            (64, 48, 8, 16, "int8", ()),
            (40, 32, 4, 4, "fp16", (2,)),
            (33, 16, 2, 1, "int8", ()),
        ],
    )
    def test_sessions_supported_equals_live_admissions(
        self, prompt, shared, decode, block_size, storage, batch_shape
    ):
        key_dim = 8
        geometry = _model_geometry(key_dim, key_dim, batch_shape)
        block_bytes = kv_block_bytes(block_size, key_dim, storage=storage, **geometry)
        budget = 60 * block_bytes + block_bytes // 2
        expected = paged_sessions_supported(
            budget,
            prompt_tokens=prompt,
            shared_prefix_tokens=shared,
            decode_tokens=decode,
            block_size=block_size,
            head_dim=key_dim,
            storage=storage,
            **geometry,
        )
        pool = BlockPool.from_budget(
            budget, block_size, key_dim=key_dim, batch_shape=batch_shape, storage=storage
        )
        prefix_k = _rows(batch_shape, shared, key_dim, 0)
        prefix_v = _rows(batch_shape, shared, key_dim, 1)
        admitted = 0
        while admitted <= expected:  # one attempt past the model's count
            seed = 10 * (admitted + 1)
            cache = PagedKVCache(pool)
            tail = prompt - shared
            try:
                cache.extend(
                    np.concatenate([prefix_k, _rows(batch_shape, tail, key_dim, seed)], -2),
                    np.concatenate([prefix_v, _rows(batch_shape, tail, key_dim, seed + 1)], -2),
                )
                for step in range(decode):
                    cache.append(
                        _rows(batch_shape, 1, key_dim, seed + 2 + step)[..., 0, :],
                        _rows(batch_shape, 1, key_dim, seed + 5 + step)[..., 0, :],
                    )
            except PoolExhausted:
                break
            assert cache.length == prompt + decode
            admitted += 1
        assert admitted == expected > 0

    @pytest.mark.parametrize(
        "block_size, storage, reserved, batch_shape",
        [
            (16, "fp32", 0, ()),
            (16, "int8", 0, ()),
            (8, "fp16", 4096, ()),
            (1, "fp32", 1000, ()),
            (4, "int8", 0, (2,)),
        ],
    )
    def test_max_cached_tokens_fills_one_live_stream(
        self, block_size, storage, reserved, batch_shape
    ):
        key_dim = 8
        device = dataclasses.replace(A100_SXM4_80GB, memory_bytes=40_000)
        geometry = _model_geometry(key_dim, key_dim, batch_shape)
        expected = max_cached_tokens(
            device,
            head_dim=key_dim,
            storage=storage,
            reserved_bytes=reserved,
            block_size=block_size,
            **geometry,
        )
        dense = max_cached_tokens(
            device, head_dim=key_dim, storage=storage, reserved_bytes=reserved, **geometry
        )
        pool = BlockPool.from_budget(
            device.memory_bytes - reserved,
            block_size,
            key_dim=key_dim,
            batch_shape=batch_shape,
            storage=storage,
        )
        cache = PagedKVCache(pool)
        for count in (5, 1):  # chunked prefill, then token by token to the end
            while True:
                try:
                    cache.extend(
                        _rows(batch_shape, count, key_dim, cache.length),
                        _rows(batch_shape, count, key_dim, cache.length + 1),
                    )
                except PoolExhausted:
                    break
        assert cache.length == expected > 0
        assert 0 <= dense - expected < block_size  # paging drops a partial block

    @pytest.mark.parametrize("batch_shape", [(), (2,)])
    @pytest.mark.parametrize("storage", ["fp32", "fp16", "int8"])
    def test_swap_out_parks_the_priced_bytes_per_token(self, storage, batch_shape):
        key_dim, length = 16, 13
        pool = BlockPool(8, 4, key_dim=key_dim, batch_shape=batch_shape, storage=storage)
        cache = PagedKVCache(pool)
        cache.extend(
            _rows(batch_shape, length, key_dim, 0), _rows(batch_shape, length, key_dim, 1)
        )
        handle = cache.swap_out()
        geometry = _model_geometry(key_dim, key_dim, batch_shape)
        # a one-token block is one token's stored K/V rows plus int8 parameters
        per_token = kv_block_bytes(1, key_dim, storage=storage, **geometry)
        assert handle.nbytes == length * per_token
        assert pool.blocks_in_use == 0
