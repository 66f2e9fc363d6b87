"""Tests for quantized KV block storage (repro.serve.quant + paging storage).

The invariants this file pins down:

* quantize → dequantize round-trips within :func:`roundtrip_bound`, an
  *explicit function of the storage dtype* (hypothesis over random rows);
* the per-row codec is compositional — slicing commutes with encoding — so
  chunked prefill, appends and swap restores never requantize a stored row;
* an int8 paged decode session is **bit-identical** to an fp32 session
  fed the dequantized rows (the exact oracle: quantization error
  enters only through the codec, never through the serving machinery);
* copy-on-write on quantized blocks moves raw bytes (sibling unchanged,
  zero added error), and SwapStore round-trips preserve the quantized
  payload exactly;
* pools of different storage dtypes coexist on one server/registry, and
  ``from_budget`` carves ≥2x the int8 sessions from a byte budget;
* streams that share 90% of their prompt fit in a third of the dense
  layout's bytes, and int8 blocks hold them in at most half of fp32's.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.core import compiled
from repro.core.dense import resolve_scale
from repro.core.engine import GraphAttentionEngine
from repro.masks.structured import CausalMask
from repro.masks.windowed import LocalMask
from repro.obs.recorder import Observability
from repro.perfmodel.decode import kv_block_bytes, kv_cache_bytes
from repro.serve.decode import DecodeSession, decode_reference_mask
from repro.serve.paging import BlockPool, PagedKVCache, SwapStore
from repro.serve.quant import (
    STORAGE_DTYPES,
    attention_tolerance,
    decode_chunk,
    dequantize_rows,
    encode_chunk,
    quantize_rows,
    resolve_storage,
    roundtrip_bound,
    storage_param_bytes_per_token,
)
from repro.serve.scheduler import AttentionServer
from repro.utils.rng import random_qkv

DIM = 4


def _rows(seed: int, tokens: int, amplitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (amplitude * rng.uniform(-1.0, 1.0, size=(tokens, DIM))).astype(np.float32)


# --------------------------------------------------------------------------- #
# Codec properties
# --------------------------------------------------------------------------- #
class TestRoundtripBound:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        tokens=st.integers(min_value=1, max_value=40),
        amplitude=st.floats(min_value=1e-3, max_value=100.0),
        storage=st.sampled_from(["fp16", "int8"]),
    )
    def test_error_within_documented_bound(self, seed, tokens, amplitude, storage):
        rows = _rows(seed, tokens, amplitude)
        chunk = encode_chunk(rows, rows, storage)
        decoded, _ = decode_chunk(chunk, np.float32)
        bound = roundtrip_bound(storage, float(np.abs(rows).max()))
        assert float(np.abs(decoded - rows).max()) <= bound

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        tokens=st.integers(min_value=1, max_value=40),
    )
    def test_fp32_storage_is_exact(self, seed, tokens):
        rows = _rows(seed, tokens, 3.0)
        chunk = encode_chunk(rows, rows, "fp32")
        decoded, _ = decode_chunk(chunk, np.float32)
        assert_array_equal(decoded, rows)
        assert roundtrip_bound("fp32", 3.0) == 0.0

    def test_constant_rows_roundtrip_exactly(self):
        rows = np.full((5, DIM), 2.5, dtype=np.float32)
        q, scale, zero = quantize_rows(rows)
        assert_array_equal(dequantize_rows(q, scale, zero), rows)

    def test_bound_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            roundtrip_bound("int8", -1.0)
        with pytest.raises(ValueError):
            roundtrip_bound("fp8", 1.0)


class TestCodecCompositionality:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        tokens=st.integers(min_value=2, max_value=40),
        storage=st.sampled_from(["fp32", "fp16", "int8"]),
        data=st.data(),
    )
    def test_slicing_commutes_with_encoding(self, seed, tokens, storage, data):
        """Per-row coding: encode-then-slice equals slice-then-encode.

        This is the property that keeps appends from requantizing existing
        rows and makes whole-extend encodes fingerprint identically to
        chunked ones.
        """
        cut = data.draw(st.integers(min_value=1, max_value=tokens - 1))
        k = _rows(seed, tokens, 2.0)
        v = _rows(seed + 1, tokens, 2.0)
        whole = encode_chunk(k, v, storage).slice(0, cut)
        part = encode_chunk(k[:cut], v[:cut], storage)
        assert_array_equal(np.asarray(whole.k), np.asarray(part.k))
        assert_array_equal(np.asarray(whole.v), np.asarray(part.v))
        if storage == "int8":
            assert whole.param_bytes() == part.param_bytes()

    def test_resolve_storage_defaults_and_errors(self):
        assert resolve_storage(None, np.float32) == "fp32"
        assert resolve_storage(None, np.float16) == "fp16"
        assert resolve_storage("INT8", np.float32) == "int8"
        with pytest.raises(ValueError):
            resolve_storage("fp8", np.float32)

    def test_param_overhead_only_for_int8(self):
        assert storage_param_bytes_per_token("int8") == 16
        assert storage_param_bytes_per_token("fp32") == 0
        assert storage_param_bytes_per_token("fp16") == 0


# --------------------------------------------------------------------------- #
# Serving-path exactness: quantization error enters only through the codec
# --------------------------------------------------------------------------- #
def _decode(session, q, k, v, prompt, length):
    if prompt:
        session.prefill(q[..., :prompt, :], k[..., :prompt, :], v[..., :prompt, :])
    for i in range(prompt, length):
        session.step(q[..., i, :], k[..., i, :], v[..., i, :])
    return session.outputs()


class TestQuantizedServingExactness:
    @given(
        mask=st.one_of(
            st.integers(min_value=1, max_value=9).map(lambda w: LocalMask(window=w)),
            st.just(CausalMask()),
        ),
        length=st.integers(min_value=1, max_value=32),
        block_size=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_int8_paged_equals_fp32_oracle_on_dequantized_rows(
        self, mask, length, block_size, data
    ):
        """The exact invariant: an int8 paged session must be bit-identical
        to an fp32 session fed the *dequantized* K/V rows — chunked
        prefill, tail appends, prefix sharing and COW add zero error on top
        of the per-row codec."""
        prompt = data.draw(st.integers(min_value=0, max_value=length))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        q, k, v = random_qkv(length, DIM, dtype=np.float32, seed=seed)
        # the oracle sees exactly what the quantized pool will reproduce
        k_deq, v_deq = decode_chunk(encode_chunk(k, v, "int8"), np.float32)

        pool = BlockPool(
            2 * length // block_size + 4, block_size, key_dim=DIM, storage="int8"
        )
        paged = DecodeSession.start(mask, length, retain_outputs=True, pool=pool)
        oracle = DecodeSession.start(mask, length, retain_outputs=True)
        out_paged = _decode(paged, q, k, v, prompt, length)
        out_oracle = _decode(oracle, q, k_deq, v_deq, prompt, length)
        assert_array_equal(out_paged, out_oracle)
        paged.close()
        pool.check_consistency()

    @given(
        length=st.integers(min_value=1, max_value=24),
        block_size=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fp32_storage_remains_bit_identical_to_private(
        self, length, block_size, seed
    ):
        q, k, v = random_qkv(length, DIM, dtype=np.float32, seed=seed)
        pool = BlockPool(
            2 * length // block_size + 4, block_size, key_dim=DIM, storage="fp32"
        )
        paged = DecodeSession.start(CausalMask(), length, retain_outputs=True, pool=pool)
        own = DecodeSession.start(CausalMask(), length, retain_outputs=True)
        assert_array_equal(
            _decode(paged, q, k, v, 0, length), _decode(own, q, k, v, 0, length)
        )


# --------------------------------------------------------------------------- #
# Pool mechanics on quantized blocks
# --------------------------------------------------------------------------- #
class TestQuantizedPoolMechanics:
    @given(
        block_size=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        storage=st.sampled_from(["fp16", "int8"]),
    )
    def test_cow_on_quantized_blocks_preserves_sibling(self, block_size, seed, storage):
        pool = BlockPool(16, block_size, key_dim=DIM, storage=storage)
        prompt = block_size + 1  # guarantees a shared partial tail
        k = _rows(seed, prompt, 2.0)
        v = _rows(seed + 1, prompt, 2.0)
        a = PagedKVCache(pool)
        b = PagedKVCache(pool)
        a.extend(k, v)
        b.extend(k, v)
        assert b.share_hits >= 1
        sibling_keys = b.keys().copy()
        sibling_values = b.values().copy()
        cow_before = pool.stats.cow_copies
        a.append(_rows(seed + 2, 1, 2.0)[0], _rows(seed + 3, 1, 2.0)[0])
        assert pool.stats.cow_copies == cow_before + 1
        # the sibling's rows are untouched, bit-for-bit
        assert_array_equal(b.keys(), sibling_keys)
        assert_array_equal(b.values(), sibling_values)
        a.release()
        b.release()
        pool.check_consistency()

    @given(
        length=st.integers(min_value=1, max_value=30),
        block_size=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        storage=st.sampled_from(["fp32", "fp16", "int8"]),
    )
    def test_swap_roundtrip_preserves_quantized_bytes_exactly(
        self, length, block_size, seed, storage
    ):
        pool = BlockPool(
            2 * length // block_size + 4, block_size, key_dim=DIM, storage=storage
        )
        cache = PagedKVCache(pool)
        cache.extend(_rows(seed, length, 2.0), _rows(seed + 1, length, 2.0))
        before = cache.keys().copy()
        store = SwapStore()
        handle = cache.swap_out()
        store.put("s", handle)
        assert handle.storage == storage
        assert handle.nbytes == handle.payload.nbytes
        encoded_k = np.ascontiguousarray(handle.payload.k).tobytes()
        encoded_params = handle.payload.param_bytes()

        restored = PagedKVCache(pool)
        restored.restore(store.pop("s"))
        assert restored.length == length
        # decode path sees bit-identical rows before and after the trip
        assert_array_equal(restored.keys(), before)
        # and the *encoded* payload itself survived byte-for-byte
        second = restored.swap_out()
        assert np.ascontiguousarray(second.payload.k).tobytes() == encoded_k
        assert second.payload.param_bytes() == encoded_params
        pool.check_consistency()

    def test_restore_reshares_parked_blocks(self):
        pool = BlockPool(16, 4, key_dim=DIM, storage="int8")
        cache = PagedKVCache(pool)
        cache.extend(_rows(0, 8, 2.0), _rows(1, 8, 2.0))  # two full blocks
        handle = cache.swap_out()  # blocks park in the evictable LRU
        shares_before = pool.stats.share_hits
        restored = PagedKVCache(pool)
        restored.restore(handle)
        assert pool.stats.share_hits > shares_before
        pool.check_consistency()

    def test_restore_rejects_storage_mismatch(self):
        int8_pool = BlockPool(8, 4, key_dim=DIM, storage="int8")
        fp32_pool = BlockPool(8, 4, key_dim=DIM, storage="fp32")
        cache = PagedKVCache(int8_pool)
        cache.extend(_rows(0, 4, 2.0), _rows(1, 4, 2.0))
        handle = cache.swap_out()
        with pytest.raises(ValueError):
            PagedKVCache(fp32_pool).restore(handle)

    def test_mixed_storage_pools_on_one_registry(self):
        obs = Observability()
        pools = {
            storage: BlockPool(
                8, 4, key_dim=DIM, storage=storage, obs=obs, name=f"mix-{storage}"
            )
            for storage in ("fp32", "fp16", "int8")
        }
        k, v = _rows(0, 6, 2.0), _rows(1, 6, 2.0)
        for storage, pool in pools.items():
            cache = PagedKVCache(pool)
            cache.extend(k, v)
            assert cache.keys().dtype == np.float32
            assert pool.storage_dtype == STORAGE_DTYPES[storage]
        snapshot = obs.snapshot().to_dict()
        labelled = {
            (m["labels"].get("pool"), m["labels"].get("storage")): m["value"]
            for m in snapshot["metrics"]
            if m["name"] == "pool_kv_bytes_in_use"
        }
        for storage, pool in pools.items():
            assert labelled[(f"mix-{storage}", storage)] == float(
                pool.blocks_in_use * pool.block_bytes
            )


# --------------------------------------------------------------------------- #
# Capacity accounting
# --------------------------------------------------------------------------- #
class TestCapacityAccounting:
    def test_block_bytes_matches_perfmodel(self):
        for storage in ("fp32", "fp16", "int8"):
            pool = BlockPool(4, 16, key_dim=64, value_dim=64, storage=storage)
            assert pool.block_bytes == kv_block_bytes(
                16, 64, value_dim=64, dtype="fp32", storage=storage
            )
            assert pool.nbytes == pool.num_blocks * pool.block_bytes

    def test_from_budget_int8_carves_at_least_2x_fp32_blocks(self):
        budget = 1 << 20
        fp32 = BlockPool.from_budget(budget, 16, key_dim=64, storage="fp32")
        int8 = BlockPool.from_budget(budget, 16, key_dim=64, storage="int8")
        assert int8.num_blocks >= 2 * fp32.num_blocks
        assert int8.nbytes <= budget and fp32.nbytes <= budget

    def test_compute_dtype_independent_of_storage(self):
        pool = BlockPool(4, 8, key_dim=DIM, dtype=np.float32, storage="int8")
        assert pool.dtype == np.float32
        assert pool.storage_dtype == np.int8
        cache = PagedKVCache(pool)
        cache.extend(_rows(0, 3, 1.0), _rows(1, 3, 1.0))
        assert cache.gather_keys(np.array([0, 2])).dtype == np.float32


# --------------------------------------------------------------------------- #
# Capacity under prefix sharing, per storage dtype
# --------------------------------------------------------------------------- #
class TestSharedPrefixCapacity:
    """8 streams with 256-token prompts whose first 232 tokens are shared,
    each decoding 8 more (d=64, ``LocalMask(65)``, block size 8), served
    through one server's pool per storage dtype."""

    STREAMS, PROMPT, SHARED, DECODE, HEAD_DIM, BLOCK_SIZE = 8, 256, 232, 8, 64, 8
    MASK = LocalMask(window=65)

    @pytest.fixture(scope="class")
    def served(self):
        horizon = self.PROMPT + self.DECODE
        shared = random_qkv(self.SHARED, self.HEAD_DIM, dtype=np.float32, seed=1)
        streams = []
        for s in range(self.STREAMS):
            tail = random_qkv(
                horizon - self.SHARED, self.HEAD_DIM, dtype=np.float32, seed=100 + s
            )
            streams.append([np.concatenate(pair) for pair in zip(shared, tail)])
        runs = {}
        for storage in STORAGE_DTYPES:
            server = AttentionServer()
            pool = server.create_block_pool(
                key_dim=self.HEAD_DIM,
                num_blocks=self.STREAMS * (horizon // self.BLOCK_SIZE + 2),
                block_size=self.BLOCK_SIZE,
                storage=storage,
            )
            sessions = []
            for q, k, v in streams:
                session = server.open_session(self.MASK, horizon, retain_outputs=True, reserve_tokens=0)
                session.prefill(q[: self.PROMPT], k[: self.PROMPT], v[: self.PROMPT])
                sessions.append(session)
            for i in range(self.PROMPT, horizon):
                server.decode_steps(
                    [(s, q[i], k[i], v[i]) for s, (q, k, v) in zip(sessions, streams)]
                )
            runs[storage] = (pool.used_bytes, sessions[0].outputs())
            for session in sessions:
                server.close_decode_session(session)
            server.close()
        return streams, runs

    def test_fp32_pool_holds_the_streams_in_a_third_of_the_dense_bytes(self, served):
        _, runs = served
        dense = self.STREAMS * kv_cache_bytes(
            self.PROMPT + self.DECODE, self.HEAD_DIM, dtype="fp32"
        )
        assert 3 * runs["fp32"][0] <= dense

    def test_int8_fits_twice_the_fp32_sessions_per_byte(self, served):
        _, runs = served
        assert runs["fp32"][0] >= 2 * runs["int8"][0]

    def test_fp32_paged_equals_a_private_session(self, served):
        # paged == contiguous: the shared fp32 pool reads exactly the rows one
        # kernel call over the stream's contiguous K/V reads
        streams, runs = served
        q, k, v = streams[0]
        ref = decode_reference_mask(self.MASK, self.PROMPT + self.DECODE)
        scale = resolve_scale(None, self.HEAD_DIM)
        output, _, _ = compiled.edge_attention(q, compiled.Arena(k, v), ref.indices, ref.indptr, scale)
        assert_array_equal(runs["fp32"][1], output.astype(q.dtype))

    def test_every_storage_within_its_tolerance_of_the_oracle(self, served):
        streams, runs = served
        q, k, v = streams[0]
        horizon = self.PROMPT + self.DECODE
        oracle = GraphAttentionEngine().run(
            q, k, v, decode_reference_mask(self.MASK, horizon)
        )
        amplitude = max(float(np.abs(k).max()), float(np.abs(v).max()))
        for storage, (_, outputs) in runs.items():
            # fp32 storage adds no codec error: its floor is online-softmax
            # against one-shot accumulation roundoff
            bound = max(attention_tolerance(storage, amplitude, self.HEAD_DIM), 1e-5)
            assert float(np.abs(outputs - oracle.output).max()) <= bound, storage
