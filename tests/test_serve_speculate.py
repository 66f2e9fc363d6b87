"""Differential tests for speculative decoding (repro.serve.speculate).

The headline invariant: a speculative decode loop (draft-and-verify windows
of ``k`` tokens, rollback on rejection, fallback step on zero acceptance)
emits **bit-exact** the same outputs as the plain one-token loop — for every
mask family, every storage dtype, and batched stacks.  ``==``, not ``allclose``.

The rollback invariants ride along: a fully-rejected window leaves the block
pool exactly as a plain step would have (no fingerprint published for
rejected tokens, warm LRU untouched, refcounts restored), cancellation
between draft and verify retracts every block, and a pool-exhausted finalize
degrades to "no progress" without corrupting the session.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.masks.global_ import GlobalMask
from repro.masks.presets import longformer_mask
from repro.masks.structured import CausalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.perfmodel.decode import speculation_cost
from repro.perfmodel.devices import get_device
from repro.serve import (
    AttentionServer,
    ContinuousBatchingScheduler,
    LoopRequest,
    speculate,
)
from repro.serve.decode import DecodeSession
from repro.serve.paging import BlockPool, PoolExhausted
from repro.serve.speculate import (
    draft_program_for,
    speculative_decode_steps,
)
from repro.utils.rng import random_qkv

DIM = 4
HORIZON = 18
PROMPT = 6

SPEC_MASKS = [
    LocalMask(window=5),
    CausalMask(),
    Dilated1DMask(window=7, dilation=2),
    GlobalMask((0, 3)),
    longformer_mask(reach=4, global_tokens=(0,)),
    None,  # dense causal via the default plan
]


def _ids(mask):
    return "dense" if mask is None else f"{type(mask).__name__}"


def _stream(seed: int, batch_shape=()):
    rng = np.random.default_rng(seed)
    shape = batch_shape + (HORIZON, DIM)
    q = rng.normal(size=shape).astype(np.float32)
    k = rng.normal(size=shape).astype(np.float32)
    v = rng.normal(size=shape).astype(np.float32)
    return q, k, v


def _pool(storage, batch_shape=(), num_blocks=24, block_size=4):
    return BlockPool(
        num_blocks,
        block_size,
        key_dim=DIM,
        batch_shape=batch_shape,
        storage=storage,
    )


def _decode_sequential(session, q, k, v):
    outs = []
    while session.position < q.shape[-2]:
        pos = session.position
        outs.append(session.step(q[..., pos, :], k[..., pos, :], v[..., pos, :]).output)
    return np.concatenate(outs, axis=-2)


def _decode_speculative(session, q, k, v, spec_k):
    outs, outcomes = [], []
    while session.position < q.shape[-2]:
        pos = session.position
        n = min(spec_k, q.shape[-2] - pos)
        if n > 1:
            [outcome] = speculative_decode_steps(
                [session],
                [q[..., pos : pos + n, :]],
                [k[..., pos : pos + n, :]],
                [v[..., pos : pos + n, :]],
            )
            assert not outcome.degraded
            assert outcome.emitted >= 1, "every pass must make progress"
            outcomes.append(outcome)
            outs.extend(r.output for r in outcome.results)
        else:
            outs.append(
                session.step(q[..., pos, :], k[..., pos, :], v[..., pos, :]).output
            )
    return np.concatenate(outs, axis=-2), outcomes


# --------------------------------------------------------------------------- #
# The differential oracle: speculative == one-token, bitwise
# --------------------------------------------------------------------------- #
class TestBitExactEquivalence:
    @given(
        mask_index=st.integers(min_value=0, max_value=len(SPEC_MASKS) - 1),
        storage=st.sampled_from(["fp32", "fp16", "int8"]),
        batch_shape=st.sampled_from([(), (2,)]),
        spec_k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_paged_speculative_matches_one_token(
        self, mask_index, storage, batch_shape, spec_k, seed
    ):
        mask = SPEC_MASKS[mask_index]
        q, k, v = _stream(seed, batch_shape)
        ref = DecodeSession.start(mask, HORIZON, pool=_pool(storage, batch_shape))
        spec = DecodeSession.start(mask, HORIZON, pool=_pool(storage, batch_shape))
        for session in (ref, spec):
            session.prefill(
                q[..., :PROMPT, :], k[..., :PROMPT, :], v[..., :PROMPT, :]
            )
        expected = _decode_sequential(ref, q, k, v)
        actual, outcomes = _decode_speculative(spec, q, k, v, spec_k)
        assert_array_equal(actual, expected)
        assert actual.shape[-2] == HORIZON - PROMPT
        for outcome in outcomes:
            assert 0 <= outcome.accepted <= outcome.drafted
            assert outcome.rolled_back == outcome.drafted - outcome.accepted
            assert outcome.fallback == (outcome.accepted == 0)

    @given(
        mask_index=st.integers(min_value=0, max_value=len(SPEC_MASKS) - 1),
        spec_k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_contiguous_speculative_matches_one_token(self, mask_index, spec_k, seed):
        mask = SPEC_MASKS[mask_index]
        q, k, v = _stream(seed)
        ref = DecodeSession.start(mask, HORIZON)
        spec = DecodeSession.start(mask, HORIZON)
        for session in (ref, spec):
            session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        expected = _decode_sequential(ref, q, k, v)
        actual, _ = _decode_speculative(spec, q, k, v, spec_k)
        assert_array_equal(actual, expected)


# --------------------------------------------------------------------------- #
# Deterministic full acceptance / full rejection
# --------------------------------------------------------------------------- #
def _peaked_stream(batch_shape=()):
    """Keys whose magnitude grows with position: every row's attention peak is
    its own most recent column, which every family's thinned draft row keeps —
    deterministic full acceptance."""
    direction = np.zeros(DIM, dtype=np.float32)
    direction[0] = 1.0
    scale = (1.0 + np.arange(HORIZON, dtype=np.float32))[:, None]
    k = np.broadcast_to(direction, (HORIZON, DIM)) * scale
    q = np.broadcast_to(direction, (HORIZON, DIM)).copy()
    rng = np.random.default_rng(0)
    v = rng.normal(size=(HORIZON, DIM)).astype(np.float32)
    out_shape = batch_shape + (HORIZON, DIM)
    return (
        np.broadcast_to(q, out_shape).copy(),
        np.broadcast_to(k, out_shape).copy(),
        np.broadcast_to(v, out_shape).copy(),
    )


def _hidden_column(session):
    """A column the full row sees but the draft row does not — spiking the key
    there forces deterministic rejection of the first candidate."""
    position = session.position
    full = set(session.program.causal_row(position).tolist())
    draft = set(draft_program_for(session.plan).causal_row(position).tolist())
    hidden = sorted(full - draft)
    assert hidden, "draft row must be a strict subset for this fixture"
    return hidden[-1]


class _NoDraft(LocalMask):
    """A local window whose draft is itself: its window is pure multi-token
    batching inside the same pass."""

    def draft_variant(self, fraction=0.5):
        return self


#: (mask, horizon, arena, query dtype, prompt, window): masks, horizons,
#: positions, window lengths, four arenas and both query dtypes in one pass
RAGGED_SPEC = [
    (LocalMask(window=5), 20, "fp32", np.float32, 6, 4),
    (CausalMask(), 22, "int8", np.float32, 9, 3),
    (Dilated1DMask(window=7, dilation=2), 18, "fp32-b", np.float32, 4, 2),
    (GlobalMask((0, 3)), 24, "fp32", np.float64, 7, 5),
    (longformer_mask(reach=4, global_tokens=(0,)), 26, "private", np.float32, 5, 3),
    (_NoDraft(window=3), 19, "fp32", np.float32, 8, 4),
    (None, 21, "int8", np.float32, 3, 2),
    (longformer_mask(reach=4, global_tokens=(0,)), 23, "fp32", np.float64, 10, 3),
]


def _ragged_spec_fleet():
    pools = {
        name: _pool(storage, (2,), num_blocks=64)
        for name, storage in (("fp32", "fp32"), ("int8", "int8"), ("fp32-b", "fp32"))
    }
    sessions, data = [], []
    for index, (mask, horizon, arena, dtype, prompt, _) in enumerate(RAGGED_SPEC):
        session = DecodeSession.start(mask, horizon, pool=pools.get(arena))
        rng = np.random.default_rng(300 + index)
        q, k, v = (rng.normal(size=(2, horizon, DIM)).astype(dtype) for _ in range(3))
        session.prefill(q[..., :prompt, :], k[..., :prompt, :], v[..., :prompt, :])
        sessions.append(session)
        data.append((q, k, v))
    return sessions, data


class TestRaggedSpeculation:
    """One draft-and-verify pass over sessions that differ in everything
    equals each session's solo pass, bit for bit, on both backends."""

    @pytest.mark.parametrize("backend", ["cext", "numpy"])
    def test_ragged_pass_equals_solo_passes(self, backend):
        from repro.core import compiled

        if backend == "cext" and compiled.backend() != "cext":
            pytest.skip("no compiled backend available")
        with compiled.force_backend(backend):
            ragged, ragged_data = _ragged_spec_fleet()
            solo, solo_data = _ragged_spec_fleet()
            for _ in range(2):  # the second pass starts from diverged positions
                windows = [
                    [x[..., s.position : s.position + row[-1], :] for x in d]
                    for s, d, row in zip(ragged, ragged_data, RAGGED_SPEC)
                ]
                outcomes = speculative_decode_steps(ragged, *zip(*windows))
                for session, data, row, outcome in zip(solo, solo_data, RAGGED_SPEC, outcomes):
                    window = [x[..., session.position : session.position + row[-1], :] for x in data]
                    [expected] = speculative_decode_steps([session], *([w] for w in window))
                    for field_name in ("drafted", "accepted", "fallback", "degraded", "draft_edges", "verify_edges"):
                        assert getattr(outcome, field_name) == getattr(expected, field_name)
                    assert outcome.emitted == expected.emitted
                    for actual, wanted in zip(outcome.results, expected.results):
                        assert_array_equal(actual.output, wanted.output)
                        assert_array_equal(actual.row_max, wanted.row_max)
                        assert_array_equal(actual.row_sum, wanted.row_sum)
                        assert actual.meta["position"] == wanted.meta["position"]
                assert [s.position for s in ragged] == [s.position for s in solo]
        assert any(o.draft_edges == 0 for o in outcomes)  # the no-draft session rode along
        assert len({o.verify_edges for o in outcomes}) > 1


class TestAcceptanceOracle:
    def test_full_acceptance_on_peaked_stream(self):
        q, k, v = _peaked_stream()
        session = DecodeSession.start(LocalMask(window=5), HORIZON, pool=_pool("fp32"))
        session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        [outcome] = speculative_decode_steps(
            [session], [q[PROMPT : PROMPT + 4]], [k[PROMPT : PROMPT + 4]],
            [v[PROMPT : PROMPT + 4]],
        )
        assert outcome.accepted == outcome.drafted == 4
        assert outcome.emitted == 4 and not outcome.fallback
        assert session.position == PROMPT + 4

    def test_full_rejection_falls_back_to_one_genuine_step(self):
        mask = LocalMask(window=6)
        pool = _pool("fp32")
        session = DecodeSession.start(mask, HORIZON, pool=pool)
        rng = np.random.default_rng(5)
        q = 0.01 * rng.normal(size=(HORIZON, DIM)).astype(np.float32)
        k = 0.01 * rng.normal(size=(HORIZON, DIM)).astype(np.float32)
        v = rng.normal(size=(HORIZON, DIM)).astype(np.float32)
        session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        # spike a column only the full row sees; aim every candidate query at it
        spike = _hidden_column(session)
        k[spike] += 100.0
        q[PROMPT:] += 10.0 * k[spike] / np.linalg.norm(k[spike])
        # rebuild so the prompt keys include the spike
        session.close()
        session = DecodeSession.start(mask, HORIZON, pool=_pool("fp32"))
        session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])

        ref = DecodeSession.start(mask, HORIZON, pool=_pool("fp32"))
        ref.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])

        [outcome] = speculative_decode_steps(
            [session], [q[PROMPT : PROMPT + 3]], [k[PROMPT : PROMPT + 3]],
            [v[PROMPT : PROMPT + 3]],
        )
        assert outcome.accepted == 0 and outcome.fallback
        assert outcome.emitted == 1 and outcome.rolled_back == 3
        assert session.position == PROMPT + 1
        expected = ref.step(q[PROMPT], k[PROMPT], v[PROMPT]).output
        assert_array_equal(outcome.results[0].output, expected)


# --------------------------------------------------------------------------- #
# Rollback invariants on the block pool
# --------------------------------------------------------------------------- #
class TestRollbackInvariants:
    def _full_rejection_pass(self, pool):
        mask = LocalMask(window=6)
        session = DecodeSession.start(mask, HORIZON, pool=pool)
        rng = np.random.default_rng(5)
        q = 0.01 * rng.normal(size=(HORIZON, DIM)).astype(np.float32)
        k = 0.01 * rng.normal(size=(HORIZON, DIM)).astype(np.float32)
        v = rng.normal(size=(HORIZON, DIM)).astype(np.float32)
        probe = DecodeSession.start(mask, HORIZON)
        probe.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        spike = _hidden_column(probe)
        probe.close()
        k[spike] += 100.0
        q[PROMPT:] += 10.0 * k[spike] / np.linalg.norm(k[spike])
        session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        return session, q, k, v

    def test_rejected_tokens_publish_no_fingerprints(self):
        """After a fully-rejected window, the pool looks exactly as if the
        stream had taken one plain step: same fingerprints, same warm LRU,
        same occupancy — the speculative probe is invisible."""
        pool_spec, pool_ref = _pool("fp32"), _pool("fp32")
        spec, q, k, v = self._full_rejection_pass(pool_spec)
        ref, *_ = self._full_rejection_pass(pool_ref)
        [outcome] = speculative_decode_steps(
            [spec], [q[PROMPT : PROMPT + 3]], [k[PROMPT : PROMPT + 3]],
            [v[PROMPT : PROMPT + 3]],
        )
        assert outcome.accepted == 0
        ref.step(q[PROMPT], k[PROMPT], v[PROMPT])
        assert pool_spec.blocks_in_use == pool_ref.blocks_in_use
        assert pool_spec.evictable_blocks == pool_ref.evictable_blocks
        assert sorted(pool_spec._fingerprint_to_block) == sorted(
            pool_ref._fingerprint_to_block
        )

    def test_refcounts_drop_to_zero_after_close(self):
        pool = _pool("fp32")
        session, q, k, v = self._full_rejection_pass(pool)
        speculative_decode_steps(
            [session], [q[PROMPT : PROMPT + 3]], [k[PROMPT : PROMPT + 3]],
            [v[PROMPT : PROMPT + 3]],
        )
        session.close()
        assert pool.blocks_in_use == 0
        assert all(pool.refcount(b) == 0 for b in range(pool.num_blocks))

    def test_warm_lru_untouched_by_full_rejection(self):
        pool = _pool("fp32")
        # park an unrelated finished stream's blocks in the warm LRU
        warm = DecodeSession.start(CausalMask(), HORIZON, pool=pool)
        qw, kw, vw = _stream(11)
        warm.prefill(qw[:8], kw[:8], vw[:8])
        warm.close()
        parked = pool.evictable_blocks
        assert parked > 0
        session, q, k, v = self._full_rejection_pass(pool)
        before = pool.evictable_blocks
        [outcome] = speculative_decode_steps(
            [session], [q[PROMPT : PROMPT + 3]], [k[PROMPT : PROMPT + 3]],
            [v[PROMPT : PROMPT + 3]],
        )
        assert outcome.accepted == 0
        assert pool.evictable_blocks == before

    def test_degraded_finalize_makes_no_progress_and_no_damage(self, monkeypatch):
        pool = _pool("fp32")
        session = DecodeSession.start(LocalMask(window=5), HORIZON, pool=pool)
        q, k, v = _peaked_stream()
        session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        position = session.position
        in_use = pool.blocks_in_use
        original = type(session.cache).extend

        def exhausted(self, *args, **kwargs):
            raise PoolExhausted("injected")

        monkeypatch.setattr(type(session.cache), "extend", exhausted)
        [outcome] = speculative_decode_steps(
            [session], [q[PROMPT : PROMPT + 3]], [k[PROMPT : PROMPT + 3]],
            [v[PROMPT : PROMPT + 3]],
        )
        monkeypatch.setattr(type(session.cache), "extend", original)
        assert outcome.degraded and outcome.accepted == 0 and outcome.emitted == 0
        assert session.position == position
        assert pool.blocks_in_use == in_use
        # the session is intact: the retried pass succeeds and makes progress
        [retry] = speculative_decode_steps(
            [session], [q[PROMPT : PROMPT + 3]], [k[PROMPT : PROMPT + 3]],
            [v[PROMPT : PROMPT + 3]],
        )
        assert not retry.degraded and retry.emitted >= 1


# --------------------------------------------------------------------------- #
# Cancellation inside the draft/verify window
# --------------------------------------------------------------------------- #
class TestCancellationRace:
    def test_close_between_draft_and_verify_retracts_blocks(self):
        pool = _pool("fp32")
        mask = LocalMask(window=5)
        a = DecodeSession.start(mask, HORIZON, pool=pool)
        b = DecodeSession.start(mask, HORIZON, pool=pool)
        qa, ka, va = _stream(21)
        qb, kb, vb = _stream(22)
        a.prefill(qa[:PROMPT], ka[:PROMPT], va[:PROMPT])
        b.prefill(qb[:PROMPT], kb[:PROMPT], vb[:PROMPT])
        survivor_blocks = None

        def cancel_b():
            nonlocal survivor_blocks
            b.close()
            survivor_blocks = pool.blocks_in_use

        ref = DecodeSession.start(mask, HORIZON, pool=_pool("fp32"))
        ref.prefill(qa[:PROMPT], ka[:PROMPT], va[:PROMPT])
        expected = _decode_sequential(
            ref, qa[: PROMPT + 3], ka[: PROMPT + 3], va[: PROMPT + 3]
        )

        speculate._between_draft_and_verify = cancel_b
        try:
            outcomes = speculative_decode_steps(
                [a, b],
                [qa[PROMPT : PROMPT + 3], qb[PROMPT : PROMPT + 3]],
                [ka[PROMPT : PROMPT + 3], kb[PROMPT : PROMPT + 3]],
                [va[PROMPT : PROMPT + 3], vb[PROMPT : PROMPT + 3]],
            )
        finally:
            speculate._between_draft_and_verify = None
        assert outcomes[1] is None, "cancelled session gets no outcome"
        assert outcomes[0] is not None and outcomes[0].emitted >= 1
        # b's blocks (including its open speculative window) were retracted
        # the moment close() ran — nothing waited for the verify pass
        assert survivor_blocks == pool.blocks_in_use or outcomes[0].emitted > 0
        emitted = np.concatenate([r.output for r in outcomes[0].results], axis=-2)
        assert_array_equal(emitted, expected[..., : outcomes[0].emitted, :])
        a.close()
        assert pool.blocks_in_use == 0
        assert all(pool.refcount(blk) == 0 for blk in range(pool.num_blocks))

    def test_all_sessions_cancelled_returns_all_none(self):
        pool = _pool("fp32")
        session = DecodeSession.start(LocalMask(window=5), HORIZON, pool=pool)
        q, k, v = _stream(31)
        session.prefill(q[:PROMPT], k[:PROMPT], v[:PROMPT])
        speculate._between_draft_and_verify = session.close
        try:
            outcomes = speculative_decode_steps(
                [session], [q[PROMPT : PROMPT + 3]], [k[PROMPT : PROMPT + 3]],
                [v[PROMPT : PROMPT + 3]],
            )
        finally:
            speculate._between_draft_and_verify = None
        assert outcomes == [None]
        assert pool.blocks_in_use == 0


# --------------------------------------------------------------------------- #
# Draft masks and the break-even model
# --------------------------------------------------------------------------- #
class TestDraftPrograms:
    @pytest.mark.parametrize("mask", [m for m in SPEC_MASKS if m is not None], ids=_ids)
    def test_draft_rows_are_subsets_with_fewer_edges(self, mask):
        session = DecodeSession.start(mask, HORIZON)
        draft = draft_program_for(session.plan)
        assert draft is not None
        full_edges = draft_edges = 0
        for row in range(HORIZON):
            full = set(session.program.causal_row(row).tolist())
            thin = set(draft.causal_row(row).tolist())
            assert thin <= full, f"draft row {row} is not a subset"
            full_edges += len(full)
            draft_edges += len(thin)
        assert draft_edges < full_edges

    def test_draft_program_cached_per_plan(self):
        session = DecodeSession.start(LocalMask(window=5), HORIZON)
        assert draft_program_for(session.plan) is draft_program_for(session.plan)


class TestSpeculationCostModel:
    def test_break_even_is_monotone_in_draft_cost(self):
        device = get_device("a100")
        cheap = speculation_cost(
            device, 4, row_edges=256, draft_row_edges=32, head_dim=64
        )
        costly = speculation_cost(
            device, 4, row_edges=256, draft_row_edges=224, head_dim=64
        )
        assert cheap.break_even_accept_rate <= costly.break_even_accept_rate

    def test_speedup_crosses_one_at_break_even(self):
        device = get_device("a100")
        estimate = speculation_cost(
            device, 4, row_edges=256, draft_row_edges=128, head_dim=64
        )
        threshold = estimate.break_even_accept_rate
        assert 0.0 < threshold < 1.0
        assert estimate.expected_speedup(min(1.0, threshold + 0.05)) >= 1.0
        assert estimate.expected_speedup(max(0.0, threshold - 0.05)) < 1.0
        assert estimate.preferred(threshold + 0.05) == "speculate"
        assert estimate.preferred(threshold - 0.05) == "stepwise"

    def test_expected_emitted_limits(self):
        device = get_device("a100")
        estimate = speculation_cost(
            device, 4, row_edges=64, draft_row_edges=32, head_dim=16
        )
        assert estimate.expected_emitted(1.0) == pytest.approx(4.0)
        assert estimate.expected_emitted(0.0) == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# Speculation inside the continuous-batching loop
# --------------------------------------------------------------------------- #
class TestLoopSpeculation:
    """8 streams (prompt 16, +64 decoded, ``LocalMask(17)``, d=32) drained by
    the loop one token per iteration, or ``k=4`` tokens per draft-and-verify
    pass."""

    STREAMS, PROMPT, DECODE, HEAD_DIM, BLOCK_SIZE = 8, 16, 64, 32, 16
    MASK = LocalMask(window=17)

    def _streams(self, peaked):
        horizon = self.PROMPT + self.DECODE
        streams = []
        for seed in range(self.STREAMS):
            q, k, v = random_qkv(horizon, self.HEAD_DIM, dtype=np.float32, seed=seed)
            if peaked:
                # key magnitude grows with position: every row's attention
                # peak is its newest column, which every draft row keeps
                direction = np.zeros(self.HEAD_DIM, dtype=np.float32)
                direction[0] = 1.0
                scale = (1.0 + np.arange(horizon, dtype=np.float32))[:, None]
                k = np.broadcast_to(direction, (horizon, self.HEAD_DIM)) * scale
                q = np.broadcast_to(direction, (horizon, self.HEAD_DIM)).copy()
            streams.append((q, k, v))
        return streams

    def _drain(self, streams, speculate_k):
        horizon = self.PROMPT + self.DECODE
        server = AttentionServer(cache_capacity=8)
        server.create_block_pool(
            key_dim=self.HEAD_DIM,
            num_blocks=self.STREAMS * (horizon // self.BLOCK_SIZE + 2),
            block_size=self.BLOCK_SIZE,
        )
        scheduler = ContinuousBatchingScheduler(
            server, max_streams=self.STREAMS, prefill_chunk=self.PROMPT
        )
        rids = [
            scheduler.submit(
                LoopRequest(
                    q=q,
                    k=k,
                    v=v,
                    mask=self.MASK,
                    prompt_tokens=self.PROMPT,
                    speculate_k=speculate_k,
                )
            )
            for q, k, v in streams
        ]
        results = scheduler.run()
        server.close()
        return [results[rid] for rid in rids], scheduler.stats.snapshot()

    @pytest.fixture(scope="class")
    def peaked(self):
        streams = self._streams(peaked=True)
        return self._drain(streams, 0), self._drain(streams, 4)

    def test_speculation_drains_in_two_thirds_of_the_iterations(self, peaked):
        (_, one_token), (_, speculative) = peaked
        assert 1.5 * speculative.iterations <= one_token.iterations

    def test_peaked_drafts_are_accepted(self, peaked):
        _, (_, speculative) = peaked
        assert speculative.speculate_accept_rate >= 0.7

    def test_speculative_outputs_equal_the_one_token_loop(self, peaked):
        (one_token, _), (speculative, _) = peaked
        for got, want in zip(speculative, one_token):
            assert_array_equal(got, want)

    def test_iid_tensors_disable_speculation_on_every_stream(self):
        _, stats = self._drain(self._streams(peaked=False), 4)
        assert stats.speculate_disabled == self.STREAMS
