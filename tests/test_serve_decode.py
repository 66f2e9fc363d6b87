"""Tests for incremental autoregressive decoding (repro.serve.decode).

The load-bearing property: a full decode loop (prefill + N steps) must match
a one-shot ``engine.run`` over the causally clipped reference mask within
1e-6 — for every mask preset and for batched ``(B, H)`` stacks.
"""

import numpy as np
import pytest

from repro.core import compiled
from repro.core.engine import GraphAttentionEngine
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalMask
from repro.masks.presets import bigbird_mask, longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.serve.decode import (
    DecodeSession,
    decode_reference_mask,
    stacked_decode_step,
    stacked_prefill,
)
from repro.serve.client import ServingClient
from repro.serve.paging import BlockPool, PagedKVCache, PoolExhausted
from repro.serve.quant import decode_chunk, encode_chunk
from repro.serve.scheduler import AttentionServer
from repro.utils.rng import random_qkv

DECODE_SPECS = [
    LocalMask(window=5),
    Dilated1DMask(window=9, dilation=2),
    Dilated2DMask(block_size=8, dilation=1),
    GlobalMask((0, 7)),
    CausalMask(),
    longformer_mask(reach=4, global_tokens=(0, 9)),
    bigbird_mask(reach=3, global_tokens=(0,), random_sparsity=0.05),
]


def _ids(spec):
    return f"{type(spec).__name__}:{spec.describe()}"


def _run_decode_loop(mask, q, k, v, prompt):
    """Prefill ``prompt`` tokens then step through the rest; return the session."""
    length = q.shape[-2]
    session = DecodeSession.start(mask, length, retain_outputs=True)
    if prompt:
        session.prefill(q[..., :prompt, :], k[..., :prompt, :], v[..., :prompt, :])
    for i in range(prompt, length):
        session.step(q[..., i, :], k[..., i, :], v[..., i, :])
    return session


class TestPagedKVCache:
    """The cache contract every session relies on, on a pool of the test's own."""

    def test_append_past_max_length_refused(self):
        cache = PagedKVCache(BlockPool(1, 16, key_dim=4), max_length=11)
        cache.extend(np.zeros((10, 4)), np.zeros((10, 4)))
        cache.append(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            cache.append(np.zeros(4), np.zeros(4))
        assert cache.length == 11

    def test_batched_layout_and_views(self):
        pool = BlockPool(2, 4, key_dim=4, value_dim=6, batch_shape=(2, 3), dtype=np.float64)
        cache = PagedKVCache(pool)
        k = np.random.default_rng(0).random((2, 3, 5, 4))
        v = np.random.default_rng(1).random((2, 3, 5, 6))
        cache.extend(k, v)
        assert cache.keys().shape == (2, 3, 5, 4)
        assert cache.values().shape == (2, 3, 5, 6)
        np.testing.assert_array_equal(cache.keys(), k)
        np.testing.assert_array_equal(cache.values(), v)

    def test_shape_mismatch_rejected(self):
        cache = PagedKVCache(BlockPool(4, key_dim=4, batch_shape=(2,)))
        with pytest.raises(ValueError):
            cache.extend(np.zeros((3, 2, 4)), np.zeros((3, 2, 4)))

    def test_nbytes_tracks_allocation(self):
        pool = BlockPool(4, 4, key_dim=8, dtype=np.float32)
        cache = PagedKVCache(pool)
        assert cache.nbytes == 0
        cache.extend(np.zeros((5, 8)), np.zeros((5, 8)))
        assert cache.nbytes == 2 * pool.block_bytes == 2 * (2 * 4 * 8 * 4)

    def test_extend_zero_tokens_is_a_noop(self):
        cache = PagedKVCache(BlockPool(2, 2, key_dim=4))
        cache.append(np.ones(4), np.ones(4))
        start = cache.extend(np.empty((0, 4)), np.empty((0, 4)))
        assert start == 1 and cache.length == 1

    def test_extend_rejects_bare_vectors(self):
        cache = PagedKVCache(BlockPool(2, key_dim=4))
        with pytest.raises(ValueError):
            cache.extend(np.ones(4), np.ones(4))  # missing the token axis

    def test_append_exactly_at_capacity_and_max_length(self):
        cache = PagedKVCache(BlockPool(2, 4, key_dim=4), max_length=4)
        cache.extend(np.zeros((3, 4)), np.zeros((3, 4)))
        cache.append(np.ones(4), np.ones(4))  # lands exactly on the cap
        assert cache.length == cache.capacity == 4
        with pytest.raises(ValueError):
            cache.append(np.ones(4), np.ones(4))

    def test_nonpositive_max_length_rejected(self):
        with pytest.raises(ValueError):
            PagedKVCache(BlockPool(1, key_dim=4), max_length=0)


@pytest.mark.parametrize("spec", DECODE_SPECS, ids=_ids)
class TestDecodeMatchesOneShot:
    def test_prefill_plus_steps_match_one_shot(self, spec):
        length, dim = 48, 8
        q, k, v = random_qkv(length, dim, dtype=np.float32, seed=21)
        reference = GraphAttentionEngine().run(q, k, v, decode_reference_mask(spec, length))
        session = _run_decode_loop(spec, q, k, v, prompt=16)
        np.testing.assert_allclose(session.outputs(), reference.output, atol=1e-6, rtol=1e-6)
        # a work-optimal loop touches exactly the causal edge set
        assert session.ops.dot_products == reference.ops.dot_products

    def test_batched_stack_matches_one_shot(self, spec):
        length, dim = 40, 8
        q, k, v = random_qkv(length, dim, heads=3, batch=2, dtype=np.float32, seed=23)
        reference = GraphAttentionEngine().run(q, k, v, decode_reference_mask(spec, length))
        session = _run_decode_loop(spec, q, k, v, prompt=10)
        assert session.batch_shape == (2, 3)
        np.testing.assert_allclose(session.outputs(), reference.output, atol=1e-6, rtol=1e-6)


class TestDecodeStepWork:
    """An incremental step's work is one mask row, bounded by the window,
    where recomputing the causal prefix grows with it."""

    @pytest.mark.parametrize("length, recompute", [(256, 24_768), (2048, 255_936)])
    def test_step_does_one_row_where_recompute_does_the_prefix(self, length, recompute):
        mask = LocalMask(window=129)
        q, k, v = random_qkv(length, 64, dtype=np.float32, seed=11)
        session = DecodeSession.start(mask, length)
        session.prefill(q[:-1], k[:-1], v[:-1])
        step = session.step(q[-1], k[-1], v[-1])
        full = GraphAttentionEngine().run(q, k, v, decode_reference_mask(mask, length))
        assert step.ops.dot_products == 129
        assert full.ops.dot_products == recompute
        assert full.ops.dot_products >= 5 * step.ops.dot_products


class TestDecodeSession:
    def test_generation_from_scratch_no_prefill(self):
        length, dim = 24, 8
        mask = LocalMask(window=4)
        q, k, v = random_qkv(length, dim, dtype=np.float32, seed=29)
        reference = GraphAttentionEngine().run(q, k, v, decode_reference_mask(mask, length))
        session = _run_decode_loop(mask, q, k, v, prompt=0)
        np.testing.assert_allclose(session.outputs(), reference.output, atol=1e-6, rtol=1e-6)

    def test_chunked_prefill_matches_single_prefill(self):
        length, dim = 32, 8
        mask = longformer_mask(reach=3, global_tokens=(0,))
        q, k, v = random_qkv(length, dim, dtype=np.float32, seed=31)
        whole = DecodeSession.start(mask, length, retain_outputs=True)
        whole.prefill(q, k, v)
        chunked = DecodeSession.start(mask, length, retain_outputs=True)
        chunked.prefill(q[:10], k[:10], v[:10])
        chunked.prefill(q[10:], k[10:], v[10:])
        np.testing.assert_allclose(chunked.outputs(), whole.outputs(), atol=1e-7, rtol=1e-7)

    def test_step_accepts_explicit_row_axis(self):
        mask = LocalMask(window=3)
        q, k, v = random_qkv(8, 4, dtype=np.float32, seed=37)
        a = DecodeSession.start(mask, 8)
        b = DecodeSession.start(mask, 8)
        out_a = a.step(q[0], k[0], v[0])
        out_b = b.step(q[:1], k[:1], v[:1])
        np.testing.assert_array_equal(out_a.output, out_b.output)
        assert out_a.output.shape == (1, 4)

    def test_fully_masked_decode_rows_are_zero(self):
        # off-grid rows of a dilated 2-D block attend nothing
        mask = Dilated2DMask(block_size=6, dilation=2)
        q, k, v = random_qkv(12, 4, dtype=np.float32, seed=41)
        session = _run_decode_loop(mask, q, k, v, prompt=4)
        outputs = session.outputs()
        degrees = [mask.causal_row(i, 12).size for i in range(12)]
        for i, degree in enumerate(degrees):
            if degree == 0:
                np.testing.assert_array_equal(outputs[i], np.zeros(4))

    def test_horizon_enforced(self):
        mask = LocalMask(window=3)
        q, k, v = random_qkv(5, 4, dtype=np.float32, seed=43)
        session = DecodeSession.start(mask, 4)
        session.prefill(q[:4], k[:4], v[:4])
        with pytest.raises(ValueError):
            session.step(q[4], k[4], v[4])
        with pytest.raises(ValueError):
            DecodeSession.start(mask, 4).prefill(q, k, v)

    def test_outputs_requires_retention(self):
        session = DecodeSession.start(LocalMask(window=3), 8)
        q, k, v = random_qkv(8, 4, dtype=np.float32, seed=47)
        session.prefill(q, k, v)
        with pytest.raises(ValueError):
            session.outputs()

    def test_full_plan_rejected(self):
        engine = GraphAttentionEngine()
        full_plan = engine.plan(LocalMask(window=3), 16)
        with pytest.raises(ValueError):
            DecodeSession(full_plan)

    def test_decode_plan_rejects_one_shot_execute(self):
        engine = GraphAttentionEngine()
        plan = engine.plan(LocalMask(window=3), 16, mode="decode")
        q, k, v = random_qkv(16, 4, dtype=np.float32, seed=53)
        with pytest.raises(ValueError):
            plan.execute(q, k, v)

    def test_engine_decode_step_records_history(self):
        engine = GraphAttentionEngine()
        session = engine.start_decode(LocalMask(window=3), 8)
        q, k, v = random_qkv(8, 4, dtype=np.float32, seed=59)
        engine.decode_step(session, q[0], k[0], v[0])
        engine.decode_step(session, q[1], k[1], v[1])
        assert len(engine.history) == 2
        assert engine.history[-1].algorithm == "decode-step"
        assert session.steps_taken == 2


class TestStackedDecode:
    def test_stacked_matches_individual_steps(self):
        mask = longformer_mask(reach=3, global_tokens=(0,))
        length, dim, streams = 24, 6, 3
        data = [random_qkv(length, dim, dtype=np.float32, seed=60 + s) for s in range(streams)]
        stacked = [DecodeSession.start(mask, length, retain_outputs=True) for _ in range(streams)]
        solo = [DecodeSession.start(mask, length, retain_outputs=True) for _ in range(streams)]
        for s in range(streams):
            q, k, v = data[s]
            stacked[s].prefill(q[:8], k[:8], v[:8])
            solo[s].prefill(q[:8], k[:8], v[:8])
        for i in range(8, length):
            results = stacked_decode_step(
                stacked,
                [data[s][0][i] for s in range(streams)],
                [data[s][1][i] for s in range(streams)],
                [data[s][2][i] for s in range(streams)],
            )
            assert all(r.meta["coalesced"] == streams for r in results)
            for s in range(streams):
                expected = solo[s].step(data[s][0][i], data[s][1][i], data[s][2][i])
                np.testing.assert_array_equal(results[s].output, expected.output)

    def test_mismatched_positions_equal_individual_steps(self):
        mask = LocalMask(window=3)
        q, k, v = random_qkv(4, 4, dtype=np.float32, seed=67)
        stacked = [DecodeSession.start(mask, 16) for _ in range(2)]
        solo = [DecodeSession.start(mask, 16) for _ in range(2)]
        for session in (stacked[0], solo[0]):
            session.step(q[0], k[0], v[0])
        results = stacked_decode_step(stacked, [q[1], q[1]], [k[1], k[1]], [v[1], v[1]])
        assert [r.meta["position"] for r in results] == [1, 0]
        for result, session in zip(results, solo):
            expected = session.step(q[1], k[1], v[1])
            np.testing.assert_array_equal(result.output, expected.output)
            assert result.meta["edges"] == expected.meta["edges"]

    def test_mismatched_plans_equal_individual_steps(self):
        masks = (LocalMask(window=3), LocalMask(window=5))
        q, k, v = random_qkv(6, 4, dtype=np.float32, seed=71)
        stacked = [DecodeSession.start(mask, 16) for mask in masks]
        solo = [DecodeSession.start(mask, 16) for mask in masks]
        for session in stacked + solo:
            session.prefill(q[:5], k[:5], v[:5])
        results = stacked_decode_step(stacked, [q[5], q[5]], [k[5], k[5]], [v[5], v[5]])
        assert [r.meta["edges"] for r in results] == [3, 5]
        for result, session in zip(results, solo):
            np.testing.assert_array_equal(result.output, session.step(q[5], k[5], v[5]).output)

    def test_duplicate_session_rejected_before_any_advance(self):
        session = DecodeSession.start(LocalMask(window=3), 16)
        q, k, v = random_qkv(2, 4, dtype=np.float32, seed=72)
        with pytest.raises(ValueError, match="at most once"):
            stacked_decode_step([session, session], [q[0], q[1]], [k[0], k[1]], [v[0], v[1]])
        assert session.position == 0

    def test_failed_stacked_step_leaves_no_session_advanced(self):
        # a validation failure on a later tuple must not have appended tokens
        # to earlier sessions' caches (no orphan tokens, no desynced streams)
        mask = LocalMask(window=3)
        a = DecodeSession.start(mask, 16)
        b = DecodeSession.start(mask, 16)
        q, k, v = random_qkv(2, 4, dtype=np.float32, seed=73)
        a.step(q[0], k[0], v[0])
        b.step(q[0], k[0], v[0])
        bad_k = np.zeros(6, dtype=np.float32)  # wrong head dim on the second tuple
        with pytest.raises(ValueError):
            stacked_decode_step([a, b], [q[1], q[1]], [k[1], bad_k], [v[1], v[1]])
        assert a.position == 1 and b.position == 1
        good = stacked_decode_step([a, b], [q[1], q[1]], [k[1], k[1]], [v[1], v[1]])
        assert all(r.meta["position"] == 1 for r in good)


#: One session per row: (mask, horizon, pool, query dtype).  Every
#: RowProgram class, four pools (an fp32 pool, an int8 pool, a second fp32
#: pool, one session's own) and both query dtypes, so one pass mixes them all
#: and most of its kernel calls carry several sessions.
RAGGED_FLEET = [
    (LocalMask(window=5), 30, "fp32", np.float32),  # stencil
    (Dilated1DMask(window=9, dilation=2), 34, "int8", np.float32),  # dilated stencil
    (GlobalMask((0, 7)), 28, "fp32-b", np.float32),  # global
    (longformer_mask(reach=4, global_tokens=(0, 9)), 36, "fp32", np.float64),  # union
    (Dilated2DMask(block_size=8, dilation=1), 32, "fp32", np.float64),  # 2-D dilated
    (np.random.default_rng(3).random((31, 31)) < 0.3, 31, "int8", np.float32),  # explicit CSR
    (CausalMask(), 33, "fp32", np.float32),  # spec fallback
    (LocalMask(window=3), 40, "own", np.float64),  # stencil again, other horizon
]
RAGGED_HEADS, RAGGED_DIM = 2, 6


def _ragged_fleet():
    """Fresh sessions (and pools) for :data:`RAGGED_FLEET`, with their tensors."""
    pools = {
        name: BlockPool(96, 4, key_dim=RAGGED_DIM, batch_shape=(RAGGED_HEADS,), storage=storage)
        for name, storage in (("fp32", "fp32"), ("int8", "int8"), ("fp32-b", "fp32"))
    }
    sessions, data = [], []
    for index, (mask, horizon, pool, dtype) in enumerate(RAGGED_FLEET):
        sessions.append(DecodeSession.start(mask, horizon, retain_outputs=True, pool=pools.get(pool)))
        data.append(random_qkv(horizon, RAGGED_DIM, heads=RAGGED_HEADS, dtype=dtype, seed=200 + index))
    return sessions, data


#: two prefill passes of uneven chunks, then decode passes: every pass mixes
#: positions, horizons and chunk lengths
RAGGED_CHUNKS = ([4, 7, 1, 9, 3, 5, 6, 2], [3, 1, 5, 2, 8, 4, 1, 6])
RAGGED_STEPS = 4


def _assert_results_equal(actual, expected):
    np.testing.assert_array_equal(actual.output, expected.output)
    np.testing.assert_array_equal(actual.row_max, expected.row_max)
    np.testing.assert_array_equal(actual.row_sum, expected.row_sum)
    assert actual.output.dtype == expected.output.dtype
    for key in ("position", "positions", "edges"):
        assert actual.meta.get(key) == expected.meta.get(key)


def _drive_ragged(sessions, data):
    """Run the fleet's passes ragged; returns every pass's per-session results."""
    passes = []
    for chunks in RAGGED_CHUNKS:
        blocks = [[x[..., s.position : s.position + n, :] for x in d] for s, d, n in zip(sessions, data, chunks)]
        passes.append(stacked_prefill(sessions, *zip(*blocks)))
    for _ in range(RAGGED_STEPS):
        rows = [[x[..., s.position, :] for x in d] for s, d in zip(sessions, data)]
        passes.append(stacked_decode_step(sessions, *zip(*rows)))
    return passes


def _drive_solo(sessions, data):
    """The same work one session and one call at a time."""
    passes = []
    for chunks in RAGGED_CHUNKS:
        passes.append(
            [
                s.prefill(*(x[..., s.position : s.position + n, :] for x in d))
                for s, d, n in zip(sessions, data, chunks)
            ]
        )
    for _ in range(RAGGED_STEPS):
        passes.append([s.step(*(x[..., s.position, :] for x in d)) for s, d in zip(sessions, data)])
    return passes


class TestRaggedPasses:
    """One pass over sessions that differ in mask, horizon, position, chunk
    length, arena and query dtype equals each session's solo calls, bit for
    bit, on both backends: outputs, ``row_max`` and ``row_sum``."""

    @pytest.fixture(params=["cext", "numpy"])
    def backend(self, request):
        if request.param == "cext" and compiled.backend() != "cext":
            pytest.skip("no compiled backend available")
        with compiled.force_backend(request.param):
            yield request.param

    def _check_fleets(self, ragged_sessions, ragged_data, solo_sessions, solo_data):
        for ragged_pass, solo_pass in zip(
            _drive_ragged(ragged_sessions, ragged_data), _drive_solo(solo_sessions, solo_data)
        ):
            assert all(r.meta["coalesced"] == len(RAGGED_FLEET) for r in ragged_pass)
            for actual, expected in zip(ragged_pass, solo_pass):
                _assert_results_equal(actual, expected)
        for ragged, solo in zip(ragged_sessions, solo_sessions):
            np.testing.assert_array_equal(ragged.outputs(), solo.outputs())

    def test_ragged_prefill_and_decode_equal_solo_calls(self, backend):
        self._check_fleets(*_ragged_fleet(), *_ragged_fleet())

    def test_each_session_owns_its_rows_of_a_pass(self, backend):
        """Sessions sharing one kernel call get arrays of their own, so a
        retained output never keeps the other sessions' rows alive."""
        pool = BlockPool(32, 4, key_dim=8, batch_shape=(2,))
        sessions = [DecodeSession.start(LocalMask(window=3), 16, pool=pool) for _ in range(3)]
        data = [random_qkv(16, 8, heads=2, dtype=np.float32, seed=90 + i) for i in range(3)]
        prefill = stacked_prefill(sessions, *zip(*[[x[..., :6, :] for x in d] for d in data]))
        step = stacked_decode_step(sessions, *zip(*[[x[..., 6, :] for x in d] for d in data]))
        assert all(result.meta["coalesced"] == 3 for result in prefill + step)
        for result in prefill + step:
            for array in (result.output, result.row_max, result.row_sum):
                assert array.base is None or array.base.nbytes == array.nbytes

    def test_each_session_owns_its_rows_across_arenas(self, backend):
        """The same over the mixed fleet: calls of several sessions and of one,
        on fp32 and int8 pools and a session's own, with fp32 and fp64 queries."""
        sessions, data = _ragged_fleet()
        for results in _drive_ragged(sessions, data):
            for result in results:
                for array in (result.output, result.row_max, result.row_sum):
                    assert array.base is None or array.base.nbytes == array.nbytes

    def test_session_closed_between_passes_returns_its_blocks(self):
        """Closing one session of a ragged group between two passes frees its
        blocks at once; the rest of the group keeps equal to its solo calls
        and the pool drains when they close."""
        mask = LocalMask(window=3)
        pool = BlockPool(32, 4, key_dim=6, batch_shape=(2,))
        data = [random_qkv(16, 6, heads=2, dtype=np.float32, seed=110 + i) for i in range(3)]
        group = [DecodeSession.start(mask, 16, pool=pool) for _ in range(3)]
        solo = [DecodeSession.start(mask, 16) for _ in range(3)]
        stacked_prefill(group, *zip(*[[x[..., :7, :] for x in d] for d in data]))
        for session, d in zip(solo, data):
            session.prefill(*(x[..., :7, :] for x in d))
        held = pool.blocks_in_use
        victim = group.pop(1)
        victim_blocks = victim.cache.blocks_used
        victim.close()
        assert victim_blocks == 2 and pool.blocks_in_use == held - victim_blocks
        del solo[1], data[1]
        for i in range(7, 16):
            results = stacked_decode_step(group, *zip(*[[x[..., i, :] for x in d] for d in data]))
            for result, session, d in zip(results, solo, data):
                expected = session.step(*(x[..., i, :] for x in d))
                assert result.meta["coalesced"] == 2
                np.testing.assert_array_equal(result.output, expected.output)
        for session in group:
            session.close()
        assert pool.blocks_in_use == 0
        assert all(pool.refcount(block) == 0 for block in range(pool.num_blocks))
        pool.check_consistency()

    @pytest.mark.parametrize("free", [0, 4])
    def test_a_pass_reserves_only_what_its_shares_leave_unmet(self, free):
        """Two sessions prefilling a parked 4-block prompt in one pass map its
        warm blocks, as two solo prefills would: the pass reserves after its
        probe, so an empty free list refuses nothing and free blocks are not
        spent evicting the prompt to write it again."""
        mask, heads, dim = LocalMask(window=3), 2, 6
        pool = BlockPool(4 + free, 4, key_dim=dim, batch_shape=(heads,))
        q, k, v = random_qkv(16, dim, heads=heads, dtype=np.float32, seed=130)
        warm = DecodeSession.start(mask, 16, pool=pool)
        warm.prefill(q, k, v)
        warm.close()
        assert (pool.free_blocks, pool.evictable_blocks) == (free, 4)
        sessions = [DecodeSession.start(mask, 16, pool=pool) for _ in range(2)]
        results = stacked_prefill(sessions, [q, q], [k, k], [v, v])
        expected = DecodeSession.start(mask, 16).prefill(q, k, v)
        for result in results:
            _assert_results_equal(result, expected)
        stats = pool.stats_snapshot()
        assert (stats.share_hits, stats.shared_tokens_saved) == (8, 32)
        assert (stats.evictions, stats.failed_reservations) == (0, 0)
        assert sessions[0].cache.block_table == sessions[1].cache.block_table
        assert pool.blocks_in_use == 4
        for session in sessions:
            session.close()
        pool.check_consistency()

    def test_a_pool_that_cannot_reserve_fails_the_whole_pass(self):
        """A pass over two pools whose second pool is exhausted advances no
        session on either pool, and every block goes back.  A session whose
        first tokens would have opened its own pool is left without one."""
        mask, heads, dim = LocalMask(window=3), 2, 6
        roomy, tight = (BlockPool(blocks, 4, key_dim=dim, batch_shape=(heads,)) for blocks in (8, 1))
        q, k, v = random_qkv(8, dim, heads=heads, dtype=np.float32, seed=131)
        sessions = [DecodeSession.start(mask, 8, pool=pool) for pool in (roomy, roomy, tight, None)]
        with pytest.raises(PoolExhausted):
            stacked_prefill(sessions, [q, q + 1.0, q, q], [k, k + 1.0, k, k], [v, v + 1.0, v, v])
        assert [session.position for session in sessions] == [0, 0, 0, 0]
        assert sessions[3].cache is None
        assert roomy.blocks_in_use == tight.blocks_in_use == 0
        assert roomy.stats.share_hits == 0
        results = stacked_prefill(sessions[:2], [q, q + 1.0], [k, k + 1.0], [v, v + 1.0])
        assert [result.meta["positions"] for result in results] == [(0, 8), (0, 8)]
        roomy.check_consistency()
        tight.check_consistency()

    def test_numpy_chunks_split_inside_and_across_sessions(self, monkeypatch):
        """The fallback's row chunks end inside one session's rows or span
        several; a few rows per chunk still equals whole per-session calls."""
        with compiled.force_backend("numpy"):
            solo_sessions, solo_data = _ragged_fleet()
            solo_passes = _drive_solo(solo_sessions, solo_data)
            # about 24 edges per chunk: a few rows of a prefill chunk, or a
            # few sessions' decode rows
            monkeypatch.setattr(compiled, "_FALLBACK_CHUNK_ELEMENTS", 24 * RAGGED_HEADS * RAGGED_DIM)
            sessions, data = _ragged_fleet()
            for ragged_pass, solo_pass in zip(_drive_ragged(sessions, data), solo_passes):
                for actual, expected in zip(ragged_pass, solo_pass):
                    _assert_results_equal(actual, expected)


class TestKernelReadsKVInPlace:
    """Every attention pass reads K/V where the cache keeps it.

    With the C kernel active the gathers are off the hot path altogether:
    they raise here, and decode, prefill and stacked groups still serve,
    matching the one-shot oracle.
    """

    MASK = longformer_mask(reach=4, global_tokens=(0,))
    LENGTH, DIM, HEADS = 40, 8, 2

    @pytest.fixture
    def no_gathers(self, monkeypatch):
        if compiled.backend() != "cext":
            pytest.skip("reading K/V in place is the C kernel's")

        def refuse(self, positions):
            raise AssertionError("K/V gathered on the attention path")

        monkeypatch.setattr(PagedKVCache, "gather_keys", refuse)
        monkeypatch.setattr(PagedKVCache, "gather_values", refuse)

    def _drive(self, sessions, q, k, v):
        """Solo and stacked prefill, stacked steps, solo steps."""
        first, rest = sessions[0], sessions[1:]
        first.prefill(q[..., :8, :], k[..., :8, :], v[..., :8, :])
        stacked_prefill(rest, *([x[..., :8, :]] * len(rest) for x in (q, k, v)))
        stacked_prefill(sessions, *([x[..., 8:16, :]] * len(sessions) for x in (q, k, v)))
        for i in range(16, 20):
            stacked_decode_step(sessions, *([x[..., i, :]] * len(sessions) for x in (q, k, v)))
        for session in sessions:
            for i in range(session.position, self.LENGTH):
                session.step(q[..., i, :], k[..., i, :], v[..., i, :])

    @pytest.mark.parametrize("storage", ["fp32", "int8", None])
    def test_every_pass_serves_without_gathers(self, no_gathers, storage):
        q, k, v = random_qkv(self.LENGTH, self.DIM, heads=self.HEADS, seed=5)
        pool = None
        if storage is not None:
            pool = BlockPool(64, 4, key_dim=self.DIM, batch_shape=(self.HEADS,), storage=storage)
        sessions = [DecodeSession.start(self.MASK, self.LENGTH, retain_outputs=True, pool=pool) for _ in range(3)]
        self._drive(sessions, q, k, v)
        if storage == "int8":  # the oracle sees what the pool reproduces
            k, v = decode_chunk(encode_chunk(k, v, "int8"), np.float32)
        reference = GraphAttentionEngine().run(q, k, v, decode_reference_mask(self.MASK, self.LENGTH))
        for session in sessions:
            np.testing.assert_allclose(session.outputs(), reference.output, atol=1e-6, rtol=1e-6)

    def test_group_spanning_arenas_equals_individual_steps(self):
        """Sessions of one group on two pools and a pool of one session's own:
        one kernel call per pool, and each session's rows exactly its solo
        step's."""
        length, dim = 24, 6
        q, k, v = random_qkv(length, dim, heads=self.HEADS, seed=9)
        pools = [BlockPool(32, 4, key_dim=dim, batch_shape=(self.HEADS,)) for _ in range(2)]

        def group():
            return [
                DecodeSession.start(self.MASK, length, pool=pools[0]),
                DecodeSession.start(self.MASK, length, pool=pools[1]),
                DecodeSession.start(self.MASK, length, pool=pools[0]),
                DecodeSession.start(self.MASK, length),
            ]

        stacked, solo = group(), group()
        streams = len(stacked)
        data = [[x + 0.1 * s for x in (q, k, v)] for s in range(streams)]  # every stream its own rows
        for s in range(streams):
            for session in (stacked[s], solo[s]):
                session.prefill(*(x[..., :8, :] for x in data[s]))
        for i in range(8, length):
            rows = ([data[s][n][..., i, :] for s in range(streams)] for n in range(3))
            results = stacked_decode_step(stacked, *rows)
            for s in range(streams):
                expected = solo[s].step(*(x[..., i, :] for x in data[s]))
                np.testing.assert_array_equal(results[s].output, expected.output)
                np.testing.assert_array_equal(results[s].row_sum, expected.row_sum)


class TestServerStreaming:
    def test_sessions_share_cached_decode_plan(self):
        with AttentionServer(cache_capacity=8) as server:
            mask = longformer_mask(reach=3, global_tokens=(0,))
            first = ServingClient(server).open_session(mask, 32)
            second = ServingClient(server).open_session(mask, 32)
            assert not first.plan_cache_hit
            assert second.plan_cache_hit
            assert second.plan is first.plan
            assert server.stats.decode_sessions == 2
            assert server.stats.plans_compiled == 1

    def test_decode_and_full_plans_cached_separately(self):
        with AttentionServer(cache_capacity=8) as server:
            mask = LocalMask(window=5)
            decode_plan, _ = server.plan_for(mask, 32, mode="decode")
            full_plan, _ = server.plan_for(mask, 32)
            assert decode_plan.mode == "decode" and full_plan.mode == "full"
            assert decode_plan.key != full_plan.key
            assert server.stats.plans_compiled == 2

    def test_decode_steps_coalesce_and_match_solo(self):
        mask = longformer_mask(reach=3, global_tokens=(0,))
        length, dim, streams = 24, 6, 3
        data = [random_qkv(length, dim, dtype=np.float32, seed=80 + s) for s in range(streams)]
        with AttentionServer(cache_capacity=8) as server:
            sessions = [
                ServingClient(server).open_session(mask, length, retain_outputs=True)
                for _ in range(streams)
            ]
            for s, (q, k, v) in zip(sessions, data):
                s.prefill(q[:8], k[:8], v[:8])
            for i in range(8, length):
                responses = server.decode_steps(
                    [(s, data[j][0][i], data[j][1][i], data[j][2][i]) for j, s in enumerate(sessions)]
                )
                assert len(responses) == streams
            steps = (length - 8) * streams
            assert server.stats.decode_steps == steps
            assert server.stats.decode_coalesced_steps == steps
            assert server.stats.decode_stacked_executions == length - 8
            assert server.stats.decode_steps_per_second > 0
        for s in range(streams):
            solo = DecodeSession.start(mask, length, retain_outputs=True)
            q, k, v = data[s]
            solo.prefill(q[:8], k[:8], v[:8])
            for i in range(8, length):
                solo.step(q[i], k[i], v[i])
            np.testing.assert_array_equal(sessions[s].outputs(), solo.outputs())

    def test_ragged_sessions_form_one_stacked_pass(self):
        with AttentionServer(cache_capacity=8) as server:
            server.create_block_pool(key_dim=4, num_blocks=16, block_size=4)
            a = ServingClient(server).open_session(LocalMask(window=3), 16)
            b = ServingClient(server).open_session(LocalMask(window=5), 12)
            q, k, v = random_qkv(3, 4, dtype=np.float32, seed=91)
            server.prefill_chunks([(a, q[:2], k[:2], v[:2])])
            responses = server.decode_steps([(a, q[2], k[2], v[2]), (b, q[0], k[0], v[0])])
            assert [r.result.meta["position"] for r in responses] == [2, 0]
            assert server.stats.decode_stacked_executions == 1
            assert server.stats.decode_coalesced_steps == 2

    def test_single_session_step_helper(self):
        with AttentionServer(cache_capacity=8) as server:
            session = ServingClient(server).open_session(LocalMask(window=3), 16)
            q, k, v = random_qkv(1, 4, dtype=np.float32, seed=93)
            response = server.decode_step(session, q[0], k[0], v[0])
            assert response.result.meta["position"] == 0
            assert response.plan_key == session.plan.key

    def test_duplicate_session_in_one_call_rejected(self):
        with AttentionServer(cache_capacity=8) as server:
            session = ServingClient(server).open_session(LocalMask(window=3), 16)
            q, k, v = random_qkv(2, 4, dtype=np.float32, seed=97)
            with pytest.raises(ValueError):
                server.decode_steps(
                    [(session, q[0], k[0], v[0]), (session, q[1], k[1], v[1])]
                )


class TestDecodeEdgeCases:
    """Regressions for the shape edge cases the paging work exposed."""

    def test_zero_length_prefill_rejected_cleanly(self):
        session = DecodeSession.start(LocalMask(window=3), 8)
        q = np.empty((0, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            session.prefill(q, q, q)

    def test_batched_first_step_with_explicit_token_axis(self):
        # regression: a (B, H, 1, d) first step used to be rejected outright,
        # so batched generation-from-scratch required a dummy prefill
        mask = LocalMask(window=3)
        length, dim = 6, 4
        q, k, v = random_qkv(length, dim, heads=2, batch=2, seed=101)
        session = DecodeSession.start(mask, length, retain_outputs=True)
        for i in range(length):
            session.step(
                q[..., i : i + 1, :], k[..., i : i + 1, :], v[..., i : i + 1, :]
            )
        assert session.batch_shape == (2, 2)
        reference = GraphAttentionEngine().run(q, k, v, decode_reference_mask(mask, length))
        np.testing.assert_allclose(session.outputs(), reference.output, atol=1e-6, rtol=1e-6)

    def test_ambiguous_batched_first_step_rejected(self):
        session = DecodeSession.start(LocalMask(window=3), 8)
        q, k, v = random_qkv(8, 4, heads=3, seed=103)
        with pytest.raises(ValueError):
            session.step(q[..., 0, :], k[..., 0, :], v[..., 0, :])  # (3, d): batch or token?

    def test_batch_shape_mismatch_between_prefill_and_step(self):
        mask = LocalMask(window=3)
        q, k, v = random_qkv(8, 4, heads=2, seed=107)
        session = DecodeSession.start(mask, 8)
        session.prefill(q[..., :4, :], k[..., :4, :], v[..., :4, :])
        single_q, single_k, single_v = random_qkv(8, 4, seed=109)
        with pytest.raises(ValueError):
            session.step(single_q[4], single_k[4], single_v[4])

    def test_prefill_batch_shape_mismatch_rejected(self):
        mask = LocalMask(window=3)
        q, k, v = random_qkv(8, 4, heads=2, seed=113)
        session = DecodeSession.start(mask, 8)
        session.prefill(q[..., :4, :], k[..., :4, :], v[..., :4, :])
        other_q, other_k, other_v = random_qkv(8, 4, heads=3, seed=115)
        with pytest.raises(ValueError):
            session.prefill(other_q[..., 4:, :], other_k[..., 4:, :], other_v[..., 4:, :])

    def test_closed_session_refuses_tokens(self):
        session = DecodeSession.start(LocalMask(window=3), 8, retain_outputs=True)
        q, k, v = random_qkv(8, 4, seed=117)
        session.prefill(q[:4], k[:4], v[:4])
        session.close()
        session.close()  # idempotent
        with pytest.raises(ValueError):
            session.step(q[4], k[4], v[4])
        with pytest.raises(ValueError):
            session.prefill(q[4:], k[4:], v[4:])
        assert session.outputs().shape == (4, 4)  # retained outputs survive
