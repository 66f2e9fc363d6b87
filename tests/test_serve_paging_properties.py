"""Property-based tests for the paged KV cache (repro.serve.paging).

The load-bearing invariants, driven by hypothesis over random block sizes,
shared-prefix lengths and session interleavings:

* paged decode — on a shared pool or a session's own — is **bit-identical**
  to one kernel call over contiguous K/V and the causal reference mask, and
  matches one-shot ``engine.run`` on that mask;
* after every session closes, no block is referenced (refcounts all zero)
  and ``free + evictable + referenced == num_blocks`` — nothing leaks;
* the pool never double-frees (releasing an unreferenced block raises);
* identical prefixes map identical physical blocks, and divergence after a
  shared partial tail copies-on-write instead of corrupting the sibling.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import compiled
from repro.core.dense import resolve_scale
from repro.core.engine import GraphAttentionEngine
from repro.masks.presets import longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import LocalMask
from repro.serve.decode import DecodeSession, decode_reference_mask, stacked_decode_step, stacked_prefill
from repro.serve.paging import BlockPool, PagedKVCache, PoolExhausted
from repro.utils.rng import random_qkv

DIM = 4

mask_strategy = st.one_of(
    st.integers(min_value=1, max_value=9).map(lambda w: LocalMask(window=w)),
    st.just(CausalMask()),
    st.just(longformer_mask(reach=3, global_tokens=(0,))),
)


def _decode(session, q, k, v, prompt, length):
    if prompt:
        session.prefill(q[..., :prompt, :], k[..., :prompt, :], v[..., :prompt, :])
    for i in range(prompt, length):
        session.step(q[..., i, :], k[..., i, :], v[..., i, :])
    return session.outputs()


def _contiguous(mask, q, k, v):
    """The decode loop's exact read: one kernel call over contiguous K/V."""
    ref = decode_reference_mask(mask, q.shape[-2])
    scale = resolve_scale(None, q.shape[-1])
    output, _, _ = compiled.edge_attention(q, compiled.Arena(k, v), ref.indices, ref.indptr, scale)
    return output.astype(q.dtype)


class TestPagedEqualsPrivate:
    """Paged == contiguous: a session paging through a shared pool, and one
    paging through a pool of its own, each read exactly the K/V rows and
    edges one kernel call over the contiguous tensors reads."""

    @given(
        mask=mask_strategy,
        length=st.integers(min_value=1, max_value=32),
        block_size=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_paged_decode_bit_identical(self, mask, length, block_size, data):
        prompt = data.draw(st.integers(min_value=0, max_value=length))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        q, k, v = random_qkv(length, DIM, dtype=np.float32, seed=seed)
        pool = BlockPool(2 * length // block_size + 4, block_size, key_dim=DIM)

        paged = DecodeSession.start(mask, length, retain_outputs=True, pool=pool)
        own = DecodeSession.start(mask, length, retain_outputs=True)
        out_paged = _decode(paged, q, k, v, prompt, length)
        # same rows, same kernel, same accumulation order: bit-exact
        contiguous = _contiguous(mask, q, k, v)
        np.testing.assert_array_equal(out_paged, contiguous)
        np.testing.assert_array_equal(_decode(own, q, k, v, prompt, length), contiguous)

        reference = GraphAttentionEngine().run(
            q, k, v, decode_reference_mask(mask, length)
        )
        np.testing.assert_allclose(out_paged, reference.output, atol=1e-6, rtol=1e-6)

        paged.close()
        pool.check_consistency()
        assert pool.blocks_in_use == 0

    @given(
        length=st.integers(min_value=2, max_value=28),
        block_size=st.integers(min_value=1, max_value=8),
        batch=st.integers(min_value=1, max_value=2),
        heads=st.integers(min_value=1, max_value=3),
    )
    def test_batched_layout_paged_decode(self, length, block_size, batch, heads):
        mask = LocalMask(window=4)
        q, k, v = random_qkv(length, DIM, heads=heads, batch=batch, seed=5)
        pool = BlockPool(
            length // block_size + 2, block_size, key_dim=DIM, batch_shape=(batch, heads)
        )
        paged = DecodeSession.start(mask, length, retain_outputs=True, pool=pool)
        own = DecodeSession.start(mask, length, retain_outputs=True)
        prompt = length // 2
        contiguous = _contiguous(mask, q, k, v)
        np.testing.assert_array_equal(_decode(paged, q, k, v, prompt, length), contiguous)
        np.testing.assert_array_equal(_decode(own, q, k, v, prompt, length), contiguous)


class TestPrefixSharing:
    @given(
        length=st.integers(min_value=4, max_value=32),
        block_size=st.integers(min_value=1, max_value=8),
        shared=st.integers(min_value=1, max_value=32),
        sessions=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    def test_shared_prefix_maps_shared_blocks(
        self, length, block_size, shared, sessions, data
    ):
        shared = min(shared, length - 1)
        mask = CausalMask()
        q, k, v = random_qkv(length, DIM, dtype=np.float32, seed=9)
        # room for one private copy of everything, so sharing is what keeps
        # the later sessions admissible, not slack
        pool = BlockPool(
            sessions * (length // block_size + 2), block_size, key_dim=DIM
        )
        reference = GraphAttentionEngine().run(
            q, k, v, decode_reference_mask(mask, length)
        )

        streams = []
        for _ in range(sessions):
            session = DecodeSession.start(mask, length, retain_outputs=True, pool=pool)
            session.prefill(q[:shared], k[:shared], v[:shared])
            streams.append(session)

        first = streams[0].cache.block_table
        for session in streams[1:]:
            assert session.cache.block_table == first  # physical sharing
        full_shared_blocks = shared // block_size
        if full_shared_blocks:
            assert pool.stats.share_hits >= (sessions - 1) * full_shared_blocks
        # one copy resident, not `sessions` copies
        assert pool.blocks_in_use == -(-shared // block_size)

        # interleaved divergence: hypothesis picks the step order
        order = data.draw(st.permutations(list(range(sessions)) * 2))
        positions = {id(s): shared for s in streams}
        for index in order:
            session = streams[index]
            i = positions[id(session)]
            if i < length:
                session.step(q[i], k[i], v[i])
                positions[id(session)] = i + 1
        for session in streams:
            for i in range(positions[id(session)], length):
                session.step(q[i], k[i], v[i])
        for session in streams:
            np.testing.assert_allclose(
                session.outputs(), reference.output, atol=1e-6, rtol=1e-6
            )
        for session in streams:
            session.close()
        pool.check_consistency()
        assert pool.blocks_in_use == 0

    def test_partial_tail_shared_then_cow_on_divergence(self):
        mask = CausalMask()
        length, block_size = 16, 4
        q, k, v = random_qkv(length, DIM, dtype=np.float32, seed=11)
        pool = BlockPool(12, block_size, key_dim=DIM)
        a = DecodeSession.start(mask, length, retain_outputs=True, pool=pool)
        b = DecodeSession.start(mask, length, retain_outputs=True, pool=pool)
        a.prefill(q[:6], k[:6], v[:6])  # blocks: [full, partial fill=2]
        b.prefill(q[:6], k[:6], v[:6])
        assert a.cache.block_table == b.cache.block_table
        assert pool.refcount(a.cache.block_table[-1]) == 2

        a.step(q[6], k[6], v[6])  # diverge: must COW, not mutate the shared tail
        assert pool.stats.cow_copies == 1
        assert a.cache.block_table[-1] != b.cache.block_table[-1]

        # b's view of tokens 0..5 must be untouched by a's divergence
        np.testing.assert_array_equal(b.cache.keys(), k[:6])
        b.step(q[6], k[6], v[6])
        reference = GraphAttentionEngine().run(
            q[:7], k[:7], v[:7], decode_reference_mask(mask, 7, horizon=length)
        )
        np.testing.assert_allclose(b.outputs(), reference.output, atol=1e-6, rtol=1e-6)
        np.testing.assert_array_equal(a.outputs(), b.outputs())

    def test_finished_session_blocks_stay_warm_until_evicted(self):
        mask = CausalMask()
        length, block_size = 8, 4
        q, k, v = random_qkv(length, DIM, dtype=np.float32, seed=13)
        pool = BlockPool(2, block_size, key_dim=DIM)
        a = DecodeSession.start(mask, length, pool=pool)
        a.prefill(q, k, v)
        a.close()
        assert pool.blocks_in_use == 0
        assert pool.evictable_blocks == 2  # prompt parked, not freed

        # the identical prompt revives the parked blocks: zero new writes
        b = DecodeSession.start(mask, length, pool=pool)
        b.prefill(q, k, v)
        assert pool.stats.share_hits == 2
        b.close()

        # memory pressure reclaims parked blocks LRU instead of failing
        c = DecodeSession.start(mask, length, pool=pool)
        c.prefill(q + 1.0, k + 1.0, v + 1.0)
        assert pool.stats.evictions >= 1
        c.close()
        pool.check_consistency()


class TestPoolInvariants:
    @given(
        block_size=st.integers(min_value=1, max_value=4),
        num_blocks=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_random_alloc_release_never_double_frees(self, block_size, num_blocks, data):
        pool = BlockPool(num_blocks, block_size, key_dim=DIM)
        held = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=24))):
            if held and data.draw(st.booleans()):
                pool.release([held.pop(data.draw(
                    st.integers(min_value=0, max_value=len(held) - 1)
                ))])
            else:
                want = data.draw(st.integers(min_value=0, max_value=num_blocks))
                try:
                    held.extend(pool.reserve(want))
                except PoolExhausted:
                    assert pool.available_blocks < want
            pool.check_consistency()
        seen = pool.stats
        assert seen.blocks_in_use == len(held)
        pool.release(held)
        assert pool.blocks_in_use == 0
        pool.check_consistency()

    def test_double_free_raises(self):
        pool = BlockPool(2, 2, key_dim=DIM)
        (block,) = pool.reserve(1)
        pool.release([block])
        with pytest.raises(ValueError):
            pool.release([block])

    def test_released_cache_is_inert_and_idempotent(self):
        pool = BlockPool(4, 2, key_dim=DIM)
        cache = PagedKVCache(pool)
        cache.extend(np.ones((3, DIM)), np.ones((3, DIM)))
        cache.release()
        cache.release()  # idempotent: no double-free
        assert pool.blocks_in_use == 0
        with pytest.raises(ValueError):
            cache.append(np.ones(DIM), np.ones(DIM))
        pool.check_consistency()

    def test_reservation_is_all_or_nothing(self):
        pool = BlockPool(3, 2, key_dim=DIM)
        held = pool.reserve(2)
        state = (pool.free_blocks, pool.blocks_in_use)
        with pytest.raises(PoolExhausted):
            pool.reserve(2)
        assert (pool.free_blocks, pool.blocks_in_use) == state
        pool.release(held)

    def test_from_budget_respects_byte_budget(self):
        pool = BlockPool.from_budget(10_000, 8, key_dim=16, value_dim=16)
        assert pool.nbytes <= 10_000
        per_block = 8 * (16 + 16) * 4
        assert pool.num_blocks == 10_000 // per_block

    def test_exhaustion_error_names_the_shortfall(self):
        pool = BlockPool(1, 2, key_dim=DIM)
        cache = PagedKVCache(pool)
        with pytest.raises(PoolExhausted):
            cache.extend(np.ones((5, DIM)), np.ones((5, DIM)))
        # atomic: the failed extend left nothing behind
        assert cache.length == 0 and pool.blocks_in_use == 0
        pool.check_consistency()

    def test_failed_extend_publishes_no_fingerprints(self):
        # regression: a walk that wrote (and used to register) chunks before
        # running out of blocks must withdraw everything on rollback — a
        # later identical prefill must not share a block that rolled back
        # into this cache's admission prereserve
        pool = BlockPool(3, 2, key_dim=DIM)
        blocker = pool.reserve(1)
        cache = PagedKVCache(pool)
        cache.prereserve(2)
        rng = np.random.default_rng(7)
        k = rng.standard_normal((6, DIM)).astype(np.float32)
        v = rng.standard_normal((6, DIM)).astype(np.float32)
        with pytest.raises(PoolExhausted):
            cache.extend(k, v)  # needs 3 blocks, only the 2 prereserved exist
        assert cache.length == 0 and cache.prereserved_blocks == 2
        pool.release(blocker)
        other = PagedKVCache(pool)
        other.extend(k[:2], v[:2])
        assert other.share_hits == 0  # the failed walk published nothing
        other.release()
        cache.release()
        pool.check_consistency()

    def test_retry_after_failed_extend_is_bit_exact(self):
        # regression: retrying after a rolled-back extend must rebuild the
        # cache from its own blocks — never alias a block both via a stale
        # fingerprint hit and via the prereserve it rolled back into
        pool = BlockPool(3, 2, key_dim=DIM)
        blocker = pool.reserve(1)
        cache = PagedKVCache(pool)
        cache.prereserve(2)
        rng = np.random.default_rng(11)
        k = rng.standard_normal((6, DIM)).astype(np.float32)
        v = rng.standard_normal((6, DIM)).astype(np.float32)
        with pytest.raises(PoolExhausted):
            cache.extend(k, v)
        pool.release(blocker)
        k2, v2 = k.copy(), v.copy()
        k2[2:] += 1.0  # same first chunk, divergent afterwards
        cache.extend(k2, v2)
        assert len(set(cache.block_table)) == len(cache.block_table)
        np.testing.assert_array_equal(cache.keys(), k2)
        np.testing.assert_array_equal(cache.values(), v2)
        cache.release()
        pool.check_consistency()

    def test_failed_prefill_does_not_evict_warm_blocks(self):
        # regression: an over-large prefill must fail atomically in the
        # reserve, not allocate block-by-block and cascade-evict the parked
        # warm prefix on its way to the failure
        pool = BlockPool(4, 2, key_dim=DIM)
        rng = np.random.default_rng(3)
        k = rng.standard_normal((4, DIM)).astype(np.float32)
        warm = PagedKVCache(pool)
        warm.extend(k, k)
        warm.release()  # 2 blocks parked evictable, fingerprints registered
        assert pool.evictable_blocks == 2
        evictions_before = pool.stats.evictions
        big = PagedKVCache(pool)
        with pytest.raises(PoolExhausted):
            big.extend(np.ones((12, DIM)), np.ones((12, DIM)))  # needs 6 of 4
        assert pool.stats.evictions == evictions_before
        assert pool.evictable_blocks == 2

        # a failing extend whose probe *shared* the warm prefix must back the
        # share credit out again along with the references
        stats_before = (pool.stats.share_hits, pool.stats.shared_tokens_saved)
        sharer = PagedKVCache(pool)
        huge = np.concatenate([k, np.ones((8, DIM), dtype=np.float32)])
        with pytest.raises(PoolExhausted):
            sharer.extend(huge, huge)  # 2 warm hits, then a 4-block shortfall
        assert (pool.stats.share_hits, pool.stats.shared_tokens_saved) == stats_before
        assert (sharer.share_hits, sharer.cow_copies) == (0, 0)  # rolled back too
        assert pool.evictable_blocks == 2

        again = PagedKVCache(pool)
        again.extend(k, k)
        assert again.share_hits == 2  # the warm prompt survived the failures
        again.release()
        sharer.release()
        big.release()
        pool.check_consistency()

    def test_register_withdraws_stale_mapping_on_duplicate(self):
        # regression: losing the first-writer-wins race must still clear the
        # block's previous fingerprint, or the old fingerprint keeps serving
        # the block's new, different content
        pool = BlockPool(3, 2, key_dim=DIM)
        a, b = pool.reserve(2)
        pool.register("fp_old", a)
        pool.register("fp_new", b)
        pool.register("fp_new", a)  # a was rewritten; duplicate stays private
        assert pool.lookup("fp_old") is None
        assert pool.lookup("fp_new") == b
        pool.release([b])  # lookup's incref
        pool.release([a, b])
        pool.check_consistency()

    def test_negative_position_gather_raises(self):
        pool = BlockPool(2, 2, key_dim=DIM)
        cache = PagedKVCache(pool)
        cache.extend(np.ones((3, DIM)), np.ones((3, DIM)))
        with pytest.raises(ValueError):
            cache.gather_keys(np.array([-1]))
        cache.release()


class TestPassReservation:
    """A write reserves after its probe, and exactly what the probe left
    unmet: never short, no block allocated that the write does not map."""

    @given(
        block_size=st.integers(min_value=1, max_value=5),
        shared=st.integers(min_value=0, max_value=12),
        counts=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_reservation_is_never_short_and_exact(self, block_size, shared, counts, seed):
        rng = np.random.default_rng(seed)
        total = shared + sum(counts)
        k = rng.standard_normal((total, DIM)).astype(np.float32)
        v = rng.standard_normal((total, DIM)).astype(np.float32)
        pool = BlockPool(160, block_size, key_dim=DIM)
        sibling = PagedKVCache(pool)
        if shared:
            # publish the prefix: the cache below maps it, partial tail
            # included, so its next extend must copy that tail on write
            sibling.extend(k[:shared], v[:shared])
        first, second = (DecodeSession.start(CausalMask(), total, pool=pool) for _ in range(2))
        cache, other = first.cache, second.cache
        position = 0
        for count in ([shared] if shared else []) + counts:
            mapped = set(cache.block_table) | set(other.block_table) | set(sibling.block_table)
            allocations = pool.stats.allocations
            rows = slice(position, position + count)
            # the second session writes other rows in the same pass
            keys = [k[rows], v[rows] + 1.0]
            stacked_prefill([first, second], keys, keys, [v[rows], k[rows]])
            fresh = set(cache.block_table) | set(other.block_table)
            assert pool.stats.allocations - allocations == len(fresh - mapped)
            assert pool.blocks_in_use == len(fresh | set(sibling.block_table))
            position += count
        np.testing.assert_array_equal(cache.keys(), k)
        np.testing.assert_array_equal(cache.values(), v)
        np.testing.assert_array_equal(other.keys(), v + 1.0)
        for held in (cache, other, sibling):
            held.release()
        assert pool.blocks_in_use == 0
        pool.check_consistency()

    def test_shared_tail_costs_one_copy_on_write_block(self):
        pool = BlockPool(8, 4, key_dim=DIM)
        k = np.random.default_rng(17).standard_normal((9, DIM)).astype(np.float32)
        a, b = PagedKVCache(pool), PagedKVCache(pool)
        a.extend(k[:6], k[:6])  # blocks: [full, partial fill=2]
        b.extend(k[:6], k[:6])  # maps both, the tail now referenced twice
        assert b.block_table == a.block_table
        allocations = pool.stats.allocations
        b.extend(k[6:7], k[6:7])  # the tail write copies first
        assert pool.stats.allocations - allocations == 1 and b.cow_copies == 1
        assert b.block_table[-1] != a.block_table[-1]
        # b's copy dropped its reference: a's tail is a's alone again
        a.extend(k[6:8] + 1.0, k[6:8] + 1.0)
        assert pool.stats.allocations - allocations == 1 and a.cow_copies == 0
        a.extend(k[8:9], k[8:9])  # ... and spills into a fresh block
        assert pool.stats.allocations - allocations == 2
        np.testing.assert_array_equal(a.keys()[:6], b.keys()[:6])
        a.release()
        b.release()
        pool.check_consistency()

    def test_prereserved_blocks_are_netted_out(self):
        pool = BlockPool(6, 4, key_dim=DIM)
        cache = PagedKVCache(pool)
        cache.prereserve(2)
        allocations = pool.stats.allocations
        cache.extend(np.ones((0, DIM)), np.ones((0, DIM)))
        assert cache.prereserved_blocks == 2 and pool.stats.allocations == allocations
        cache.extend(np.ones((9, DIM)), np.ones((9, DIM)))  # 3 blocks, 2 held
        assert pool.stats.allocations - allocations == 1
        assert cache.prereserved_blocks == 0
        assert cache.blocks_used == 3 and pool.blocks_in_use == 3
        cache.release()
        pool.check_consistency()


#: the mask every session of the writer differential test decodes
WRITER_MASK = longformer_mask(reach=2, global_tokens=(0,))


def _writer_world(rows, block_size, storage, prereserves):
    """A pool and one session per row block, with its admission prereserve."""
    pool = BlockPool(len(rows) * (26 // block_size + 4) * 2, block_size, key_dim=DIM, storage=storage)
    sessions = [DecodeSession.start(WRITER_MASK, block.shape[0], pool=pool) for block in rows]
    for session, blocks in zip(sessions, prereserves):
        session.cache.prereserve(blocks)
    return pool, sessions


def _pool_state(pool, sessions):
    stats = pool.stats_snapshot()
    return (
        stats.share_hits,
        stats.shared_tokens_saved,
        stats.blocks_in_use,
        set(pool._fingerprint_to_block),
        [(session.cache.share_hits, session.cache.blocks_used) for session in sessions],
    )


class TestPassWriter:
    """One pass over N sessions equals the same sessions' one-session passes
    run in order: outputs, logical K/V, prefix-share counts, blocks in use
    and published fingerprints.

    One case differs, as it did before the writer: sessions of one pass that
    all append into one shared partial tail each copy it on write, where
    one-session passes can copy one time fewer (the last finds the tail its
    own unless another session maps it by then).  The test bounds that
    difference where it arises and stops comparing the pools' bookkeeping
    once the copies differ.
    """

    @given(
        storage=st.sampled_from(["fp32", "int8"]),
        block_size=st.integers(min_value=1, max_value=5),
        count=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    def test_one_pass_equals_one_session_passes_in_order(self, storage, block_size, count, data):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**16), label="seed"))
        # two prompts, so sessions share prefixes and write the same chunks
        prompts = rng.standard_normal((2, 24, DIM)).astype(np.float32)
        rows = []
        for _ in range(count):
            block = rng.standard_normal((data.draw(st.integers(min_value=4, max_value=24)), DIM)).astype(np.float32)
            shared = data.draw(st.integers(min_value=0, max_value=block.shape[0]))
            block[:shared] = prompts[data.draw(st.integers(min_value=0, max_value=1))][:shared]
            rows.append(block)
        prereserves = [data.draw(st.integers(min_value=0, max_value=2)) for _ in range(count)]
        pool, together = _writer_world(rows, block_size, storage, prereserves)
        solo_pool, apart = _writer_world(rows, block_size, storage, prereserves)
        diverged = False
        while any(session.position < block.shape[0] for session, block in zip(together, rows)):
            decode = data.draw(st.booleans())
            width = data.draw(st.integers(min_value=1, max_value=2 * block_size + 1))
            same = data.draw(st.booleans())  # one chunk length for the whole pass
            waiting = [index for index, (s, block) in enumerate(zip(together, rows)) if s.position < block.shape[0]]
            members = [index for index in waiting if data.draw(st.booleans())] or waiting[:1]
            chunks = []
            for index in members:
                size = 1 if decode else (width if same else data.draw(st.integers(1, 2 * block_size + 1)))
                position = together[index].position
                chunks.append(rows[index][position : position + size])
            # sessions of the pass appending into one shared partial tail
            tails = {}
            for index in members:
                cache = together[index].cache
                if cache.length % block_size:
                    tails.setdefault(cache.block_table[-1], []).append(index)
            extra_copies = sum(
                1 for tail, group in tails.items() if len(group) > 1 and pool.refcount(tail) == len(group)
            )
            cow_copies = (pool.stats.cow_copies, solo_pool.stats.cow_copies)
            sessions = [together[index] for index in members]
            if decode:
                results = stacked_decode_step(sessions, *([chunk[0] for chunk in chunks],) * 3)
                expected = [apart[index].step(*(chunk[0],) * 3) for index, chunk in zip(members, chunks)]
            else:
                results = stacked_prefill(sessions, chunks, chunks, chunks)
                expected = [apart[index].prefill(*(chunk,) * 3) for index, chunk in zip(members, chunks)]
            for result, solo in zip(results, expected):
                np.testing.assert_array_equal(result.output, solo.output)
                np.testing.assert_array_equal(result.row_sum, solo.row_sum)
            for a, b in zip(together, apart):
                np.testing.assert_array_equal(a.cache.keys(), b.cache.keys())
                np.testing.assert_array_equal(a.cache.values(), b.cache.values())
            if extra_copies:
                copies = pool.stats.cow_copies - cow_copies[0], solo_pool.stats.cow_copies - cow_copies[1]
                assert copies[1] <= copies[0] <= copies[1] + extra_copies
                diverged = diverged or copies[0] != copies[1]
            if not diverged:
                assert _pool_state(pool, together) == _pool_state(solo_pool, apart)
        assert pool.stats.evictions == solo_pool.stats.evictions == 0
        for world, sessions in ((pool, together), (solo_pool, apart)):
            world.check_consistency()
            for session in sessions:
                session.close()
            assert world.blocks_in_use == 0
            assert all(world.refcount(block) == 0 for block in range(world.num_blocks))
            world.check_consistency()
