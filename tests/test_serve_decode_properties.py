"""Property-based hardening of the incremental decode path (repro.serve.decode).

Hypothesis drives random masks, horizons, prompt/chunk splits and batch
shapes through the invariants the deterministic decode tests spot-check:

* any prefill/step split of a stream equals one-shot ``engine.run`` over the
  causally clipped reference mask;
* stacked same-plan steps are exactly the per-session steps;
* the paged KV cache preserves every appended row verbatim across random
  append/extend sequences, and maps no more blocks than its rows fill.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import GraphAttentionEngine
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalMask
from repro.masks.presets import longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.serve.decode import (
    DecodeSession,
    decode_reference_mask,
    stacked_decode_step,
)
from repro.serve.paging import BlockPool, PagedKVCache
from repro.utils.rng import random_qkv

DIM = 4

mask_strategy = st.one_of(
    st.integers(min_value=1, max_value=11).map(lambda w: LocalMask(window=w)),
    st.tuples(
        st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=3)
    ).map(lambda p: Dilated1DMask(window=2 * p[0] + 1, dilation=p[1])),
    st.integers(min_value=2, max_value=8).map(
        lambda b: Dilated2DMask(block_size=b, dilation=1)
    ),
    st.just(GlobalMask((0,))),
    st.just(CausalMask()),
    st.just(longformer_mask(reach=3, global_tokens=(0,))),
)


def _split_points(data, length):
    """A random chunking of [0, length) into prefill blocks then single steps."""
    prompt = data.draw(st.integers(min_value=0, max_value=length))
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=max(prompt, 1)),
                max_size=3,
                unique=True,
            )
        )
    )
    cuts = [c for c in cuts if c < prompt]
    return prompt, [0] + cuts + [prompt]


class TestDecodeMatchesOracle:
    @given(
        mask=mask_strategy,
        length=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_any_prefill_split_matches_one_shot(self, mask, length, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        prompt, edges = _split_points(data, length)
        q, k, v = random_qkv(length, DIM, dtype=np.float32, seed=seed)
        session = DecodeSession.start(mask, length, retain_outputs=True)
        for lo, hi in zip(edges, edges[1:]):
            if hi > lo:
                session.prefill(q[lo:hi], k[lo:hi], v[lo:hi])
        for i in range(prompt, length):
            session.step(q[i], k[i], v[i])
        reference = GraphAttentionEngine().run(
            q, k, v, decode_reference_mask(mask, length)
        )
        np.testing.assert_allclose(
            session.outputs(), reference.output, atol=1e-6, rtol=1e-6
        )
        # the loop is work-optimal: exactly the causal edge set, no recompute
        assert session.ops.dot_products == reference.ops.dot_products

    @given(
        mask=mask_strategy,
        length=st.integers(min_value=2, max_value=24),
        batch=st.integers(min_value=1, max_value=2),
        heads=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_batched_stacks_match_one_shot(self, mask, length, batch, heads, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        prompt = data.draw(st.integers(min_value=1, max_value=length))
        q, k, v = random_qkv(length, DIM, heads=heads, batch=batch, seed=seed)
        session = DecodeSession.start(mask, length, retain_outputs=True)
        session.prefill(q[..., :prompt, :], k[..., :prompt, :], v[..., :prompt, :])
        for i in range(prompt, length):
            session.step(q[..., i, :], k[..., i, :], v[..., i, :])
        reference = GraphAttentionEngine().run(
            q, k, v, decode_reference_mask(mask, length)
        )
        np.testing.assert_allclose(
            session.outputs(), reference.output, atol=1e-6, rtol=1e-6
        )


class TestStackedSteps:
    @given(
        mask=mask_strategy,
        streams=st.integers(min_value=2, max_value=5),
        length=st.integers(min_value=2, max_value=20),
        data=st.data(),
    )
    def test_stacked_equals_individual_steps(self, mask, streams, length, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        prompt = data.draw(st.integers(min_value=1, max_value=length - 1))
        plan_holder = DecodeSession.start(mask, length)
        plan = plan_holder.plan

        inputs = [
            random_qkv(length, DIM, dtype=np.float32, seed=seed + 7 * s)
            for s in range(streams)
        ]
        stacked = [DecodeSession(plan, retain_outputs=True) for _ in range(streams)]
        solo = [DecodeSession(plan, retain_outputs=True) for _ in range(streams)]
        for session_group in (stacked, solo):
            for session, (q, k, v) in zip(session_group, inputs):
                session.prefill(q[:prompt], k[:prompt], v[:prompt])

        for i in range(prompt, length):
            results = stacked_decode_step(
                stacked,
                [q[i] for q, _, _ in inputs],
                [k[i] for _, k, _ in inputs],
                [v[i] for _, _, v in inputs],
            )
            assert all(r.meta.get("coalesced") == streams for r in results)
            for session, (q, k, v) in zip(solo, inputs):
                session.step(q[i], k[i], v[i])

        for stacked_session, solo_session in zip(stacked, solo):
            np.testing.assert_allclose(
                stacked_session.outputs(),
                solo_session.outputs(),
                atol=1e-7,
                rtol=1e-7,
            )


class TestPagedKVCacheProperties:
    @given(
        max_length=st.integers(min_value=1, max_value=40),
        block_size=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_random_extends_preserve_content_and_cap(self, max_length, block_size, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=999)))
        pool = BlockPool(-(-max_length // block_size), block_size, key_dim=DIM)
        cache = PagedKVCache(pool, max_length=max_length)
        expected_k, expected_v = [], []
        budget = max_length
        while budget > 0:
            count = data.draw(st.integers(min_value=0, max_value=budget))
            k = rng.random((count, DIM)).astype(np.float32)
            v = rng.random((count, DIM)).astype(np.float32)
            start = cache.extend(k, v)
            assert start == len(expected_k)
            expected_k.extend(k)
            expected_v.extend(v)
            budget -= count
            if count == 0:
                break
        assert cache.length == len(expected_k) <= max_length
        assert cache.capacity == -(-cache.length // block_size) * block_size
        if expected_k:
            np.testing.assert_array_equal(cache.keys(), np.stack(expected_k))
            np.testing.assert_array_equal(cache.values(), np.stack(expected_v))
        cols = np.arange(cache.length)
        rng.shuffle(cols)
        if cols.size:
            np.testing.assert_array_equal(
                cache.gather_keys(cols), np.stack(expected_k)[cols]
            )

    def test_gather_rejects_positions_outside_live_range(self):
        cache = PagedKVCache(BlockPool(1, 4, key_dim=DIM))
        cache.extend(np.ones((3, DIM)), np.ones((3, DIM)))
        with pytest.raises(ValueError):
            cache.gather_keys(np.array([3]))  # past the live rows
        with pytest.raises(ValueError):
            cache.gather_keys(np.array([-1]))  # negative would wrap the buffer
