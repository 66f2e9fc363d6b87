"""Speculative multi-token decoding: draft-and-verify with bit-exact outputs.

A one-token decode step pays one full pass of Python around the fused row
kernel per generated token; that overhead, not the per-edge math, dominates
the stack's decode throughput.  This module amortises it over ``k`` tokens
at a time with the classic draft-and-verify recipe, adapted to the repo's
mask-structured attention:

* **Draft pass** — the ``k`` candidate query rows are scored against a
  *thinned* variant of the serving mask (each family's
  :meth:`~repro.masks.base.MaskSpec.draft_variant` — half the local window,
  a strided causal subsample, fewer global/random columns), one cheap
  stacked pass over roughly ``draft_fraction`` of the row edges.
* **Verify pass** — all ``k`` rows attend their *full* causal mask rows in a
  single stacked pass over the provisionally-appended tokens.  Because the
  fused row kernel behind :func:`~repro.serve.decode._edge_attention`
  reduces every row on its own, row ``j`` of the stacked pass is
  **bit-identical** to the ``j``-th sequential
  :meth:`~repro.serve.decode.DecodeSession.step` — emitted outputs always
  come from the verify pass, so wrong drafts cost rollback, never wrong
  bytes.
* **Acceptance oracle** — position ``j`` is accepted iff the draft row's
  top-attended column (argmax of the raw scaled scores) equals the verify
  row's, reduced over all batch/head axes; the accepted count is the longest
  agreeing prefix.  Both passes take their scores from the same kernel, so
  draft scores are a subset of the verify scores (same dot products), and
  agreement means the full row's attention peak was inside
  the thinned row — a discrete, deterministic, backend-independent criterion
  whose rate tracks how well the thin mask predicts the full one.
* **Rollback** — rejected positions are erased as if they never happened:
  the paged cache's :meth:`~repro.serve.paging.PagedKVCache.begin_speculative`
  window publishes no fingerprints and probes no share LRU, so a full
  rejection leaves the pool's warm prefix LRU untouched; the contiguous
  cache simply truncates.  The accepted prefix is then re-appended through
  the normal :meth:`extend`, which is what publishes fingerprints/sharing
  for tokens that survived.  Zero acceptance falls back to one genuine
  single-token step, so every pass makes progress.

:func:`speculative_decode_steps` is the group primitive the scheduler's
``speculate_steps`` and the continuous-batching loop drive; sessions that
accept different prefix lengths simply diverge in position and regroup on
the next loop iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dense import resolve_scale
from repro.core.result import AttentionResult, OpCounts
from repro.masks.rows import RowProgram, compile_row_program
from repro.masks.structured import DenseMask
from repro.serve.decode import (
    DecodeSession,
    _edge_attention,
    _require_shared_plan_and_position,
    _stacked_extend,
    stacked_decode_step,
)
from repro.serve.paging import PagedKVCache, PoolExhausted
from repro.serve.plan import ExecutionPlan
from repro.utils.validation import require

#: Default fraction of row edges the draft mask keeps.
DEFAULT_DRAFT_FRACTION = 0.5

#: Test seam: called between the draft and verify passes when set.  The
#: cancellation race tests use it to close/release sessions inside the
#: multi-token append window and assert that verification skips the dead
#: streams and every block/quota retracts.
_between_draft_and_verify: Optional[Callable[[], None]] = None


@dataclass
class SpeculationOutcome:
    """Per-session result of one :func:`speculative_decode_steps` pass.

    ``results`` holds one :class:`~repro.core.result.AttentionResult` per
    *emitted* token, in position order — verify-pass rows for accepted
    tokens, or the single genuine fallback step on zero acceptance.  It is
    empty only when ``degraded`` (the pool could not re-admit the accepted
    prefix; the session made no progress and retries next iteration).
    """

    drafted: int
    accepted: int
    fallback: bool = False  # zero acceptance -> standard single-token step ran
    degraded: bool = False  # pool exhausted mid-finalize -> no progress
    results: List[AttentionResult] = field(default_factory=list)
    draft_edges: int = 0
    verify_edges: int = 0

    @property
    def emitted(self) -> int:
        """Tokens this pass produced (``accepted`` or the one fallback token)."""
        return len(self.results)

    @property
    def rolled_back(self) -> int:
        """Draft tokens whose cache entries were erased."""
        return self.drafted - self.accepted

    @property
    def accept_rate(self) -> float:
        """Accepted fraction of drafted tokens (1.0 when nothing was drafted)."""
        return self.accepted / self.drafted if self.drafted else 1.0


# --------------------------------------------------------------------------- #
# Draft programs
# --------------------------------------------------------------------------- #
#: Compiled draft row programs keyed by ``(id(plan), fraction)``; the plan is
#: pinned in the value so ids cannot be recycled.  Bounded by the number of
#: distinct decode plans the process compiles (the server's PlanCache already
#: bounds that).
_DRAFT_PROGRAMS: Dict[Tuple[int, float], Tuple[ExecutionPlan, RowProgram]] = {}


def draft_program_for(
    plan: ExecutionPlan, fraction: float = DEFAULT_DRAFT_FRACTION
) -> Optional[RowProgram]:
    """Row program of ``plan``'s mask thinned by ``fraction``; cached per plan.

    Returns ``None`` when the mask's draft variant is the mask itself (the
    base-class identity default): there is nothing cheaper to score against,
    so callers skip the draft pass and treat the window as pure multi-token
    batching (every position accepted).
    """
    spec = plan.spec if plan.spec is not None else DenseMask()
    draft = spec.draft_variant(fraction)
    if draft is spec:
        return None
    key = (id(plan), float(fraction))
    hit = _DRAFT_PROGRAMS.get(key)
    if hit is not None and hit[0] is plan:
        return hit[1]
    program = compile_row_program(draft, plan.length)
    _DRAFT_PROGRAMS[key] = (plan, program)
    return program


# --------------------------------------------------------------------------- #
# Acceptance
# --------------------------------------------------------------------------- #
def _top_columns(scores: np.ndarray, cols: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row top-attended column id, ``-1`` for empty rows.

    ``scores`` is ``(..., E)`` in CSR edge order; the result is ``(..., R)``
    holding the *global* column index of each row's score argmax, so draft
    and verify tops compare directly even though they index different edge
    subsets.
    """
    rows = indptr.size - 1
    top = np.full(scores.shape[:-1] + (rows,), -1, dtype=np.int64)
    for r in range(rows):
        lo, hi = int(indptr[r]), int(indptr[r + 1])
        if hi > lo:
            local = np.argmax(scores[..., lo:hi], axis=-1)
            top[..., r] = cols[lo:hi][local]
    return top


def _accepted_prefix(agree: np.ndarray, count: int) -> int:
    """Longest agreeing prefix: ``agree`` reduced over all but the row axis."""
    flags = agree.reshape(-1, count).all(axis=0)
    return count if flags.all() else int(np.argmax(~flags))


# --------------------------------------------------------------------------- #
# Speculative windows (paged + contiguous uniformly)
# --------------------------------------------------------------------------- #
class _ContiguousWindow:
    """Truncation-based rollback for a private :class:`KVCache`."""

    def __init__(self, cache, start: int) -> None:
        self.cache = cache
        self.start = start

    def rollback(self) -> None:
        self.cache.truncate(self.start)


def _begin_windows(
    sessions: Sequence[DecodeSession],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    count: int,
) -> List[object]:
    """Open one speculative append window per session, atomically per pool.

    Mirrors :func:`~repro.serve.decode._stacked_extend`: every paged block
    the whole group needs is reserved before any cache advances, so
    :exc:`~repro.serve.paging.PoolExhausted` fails the batch with no window
    opened and no block table touched.
    """
    pending: Dict[object, int] = {}
    for session in sessions:
        if isinstance(session.cache, PagedKVCache):
            pool = session.cache.pool
            pending[pool] = pending.get(pool, 0) + session.cache.plan_extend(count)
    reservations: Dict[object, List[int]] = {pool: [] for pool in pending}
    try:
        for pool, needed in pending.items():
            reservations[pool].extend(pool.reserve(needed))
    except Exception:
        for pool, blocks in reservations.items():
            if blocks:
                pool.release(blocks)
        raise
    windows: List[object] = []
    try:
        for session, k_block, v_block in zip(sessions, ks, vs):
            session._ensure_cache(k_block, v_block)
            if isinstance(session.cache, PagedKVCache):
                windows.append(
                    session.cache.begin_speculative(
                        k_block, v_block, reserved=reservations[session.cache.pool]
                    )
                )
            else:
                start = session.cache.length
                session.cache.extend(k_block, v_block)
                windows.append(_ContiguousWindow(session.cache, start))
    except Exception:
        for window in windows:
            window.rollback()
        raise
    finally:
        # speculative probes take no share hits, so reservations are exact;
        # anything left over (admission prereserves covered it) goes back
        for pool, blocks in reservations.items():
            if blocks:
                pool.release(blocks)
    return windows


def _finalize(
    session: DecodeSession,
    window: object,
    k_block: np.ndarray,
    v_block: np.ndarray,
    accepted: int,
) -> bool:
    """Roll the window back and commit the accepted prefix through the normal
    append path (which publishes fingerprints and prefix sharing for the
    survivors).  Returns ``False`` when the pool cannot re-admit the prefix
    (the session then made no progress this pass — ``degraded``)."""
    if isinstance(window, _ContiguousWindow):
        # the accepted rows' bytes are already in place; keep them
        session.cache.truncate(window.start + accepted)
        return True
    window.rollback()
    if accepted == 0:
        return True
    try:
        session.cache.extend(
            k_block[..., :accepted, :], v_block[..., :accepted, :]
        )
    except PoolExhausted:
        return False
    return True


# --------------------------------------------------------------------------- #
# The draft-and-verify group step
# --------------------------------------------------------------------------- #
def speculative_decode_steps(
    sessions: Sequence[DecodeSession],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    *,
    draft_fraction: float = DEFAULT_DRAFT_FRACTION,
) -> List[Optional[SpeculationOutcome]]:
    """One draft-and-verify pass of ``k`` candidate tokens per session.

    ``qs[i]``/``ks[i]``/``vs[i]`` are ``batch_shape + (k, d)`` stacks of the
    next ``k`` tokens of session ``i``; all sessions share one plan and
    position (the continuous-batching group contract).  Returns one
    :class:`SpeculationOutcome` per session — ``None`` for sessions that
    were closed concurrently inside the append window (the cancellation
    race; their blocks were already retracted by ``close``).

    Emitted outputs are bit-exact equal to the sequential one-token loop's:
    accepted tokens are verify-pass rows (per-row online-softmax segments
    are independent, so a stacked causal pass equals ``k`` sequential
    steps), and the zero-acceptance fallback is a genuine
    :func:`~repro.serve.decode.stacked_decode_step`.
    """
    require(len(sessions) >= 1, "need at least one session")
    require(
        len(sessions) == len(qs) == len(ks) == len(vs),
        "sessions and token stacks must align",
    )
    require(0.0 < draft_fraction <= 1.0, "draft fraction must be in (0, 1]")
    first = sessions[0]
    position = _require_shared_plan_and_position(sessions, "speculative decode")
    q_list: List[np.ndarray] = []
    k_list: List[np.ndarray] = []
    v_list: List[np.ndarray] = []
    for session, q, k, v in zip(sessions, qs, ks, vs):
        require(not session.closed, "speculative decode on a closed session")
        q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
        require(q.ndim >= 2, "speculative decode takes (..., k, d) stacks")
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        if q_list:
            require(
                q.shape == q_list[0].shape and v.shape == v_list[0].shape,
                "speculative decode needs identically-shaped sessions",
            )
        q_list.append(q)
        k_list.append(k)
        v_list.append(v)
    count = int(q_list[0].shape[-2])
    require(count >= 1, "speculative decode needs at least one candidate token")
    require(
        position + count <= first.horizon,
        f"speculative window of {count} tokens at position {position} exceeds "
        f"horizon {first.horizon}",
    )

    draft_program = draft_program_for(first.plan, draft_fraction)
    identity = draft_program is None

    # ---- provisional append ------------------------------------------------ #
    if identity:
        # the draft would equal the full mask: skip it and run the window as
        # pure multi-token batching through the normal (publishing) append
        _stacked_extend(sessions, k_list, v_list, count)
        windows: List[object] = [None] * len(sessions)
        draft_tops = None
        draft_edges = 0
    else:
        windows = _begin_windows(sessions, k_list, v_list, count)

        # ---- draft pass ---------------------------------------------------- #
        scale_value = resolve_scale(first.plan.scale, q_list[0].shape[-1])
        draft_indptr, draft_cols = draft_program.causal_rows(position, position + count)
        q_stack = np.stack(q_list)
        # the verify pass's own kernel, so a draft edge's score is the very
        # dot product the verify pass computes for it
        draft_scores = _edge_attention(
            q_stack,
            [s.cache for s in sessions],
            draft_cols,
            draft_indptr,
            scale_value=scale_value,
            out_dtype=q_stack.dtype,
            return_scores=True,
        )[3]
        draft_tops = _top_columns(draft_scores, draft_cols, draft_indptr)
        draft_edges = int(draft_cols.size)

    # ---- cancellation seam ------------------------------------------------- #
    if _between_draft_and_verify is not None:
        _between_draft_and_verify()
    alive = [i for i, s in enumerate(sessions) if not s.closed]
    outcomes: List[Optional[SpeculationOutcome]] = [None] * len(sessions)
    if not alive:
        # every stream cancelled mid-window: close() already rolled the
        # blocks back (release closes an open window), nothing to verify
        return outcomes
    live_sessions = [sessions[i] for i in alive]

    # ---- verify pass ------------------------------------------------------- #
    scale_value = resolve_scale(first.plan.scale, q_list[0].shape[-1])
    verify_indptr, verify_cols = first.program.causal_rows(position, position + count)
    q_stack = np.stack([q_list[i] for i in alive])
    output, row_max, row_sum, scores = _edge_attention(
        q_stack,
        [s.cache for s in live_sessions],
        verify_cols,
        verify_indptr,
        scale_value=scale_value,
        out_dtype=q_stack.dtype,
        return_scores=True,
    )
    verify_edges = int(verify_cols.size)

    # ---- acceptance + finalize --------------------------------------------- #
    if identity:
        accepted_counts = [count] * len(alive)
    else:
        verify_tops = _top_columns(scores, verify_cols, verify_indptr)
        accepted_counts = []
        for stack_index, session_index in enumerate(alive):
            agree = (
                draft_tops[session_index] == verify_tops[stack_index]
            )
            accepted_counts.append(_accepted_prefix(agree, count))

    fallback_sessions: List[DecodeSession] = []
    fallback_slots: List[int] = []
    for stack_index, session_index in enumerate(alive):
        session = sessions[session_index]
        accepted = accepted_counts[stack_index]
        committed = True
        if not identity:
            committed = _finalize(
                session,
                windows[session_index],
                k_list[session_index],
                v_list[session_index],
                accepted,
            )
        outcome = SpeculationOutcome(
            drafted=count,
            accepted=accepted if committed else 0,
            degraded=not committed,
            draft_edges=draft_edges,
            verify_edges=verify_edges,
        )
        if committed:
            row_edges = np.diff(verify_indptr)
            for j in range(accepted):
                edges = int(row_edges[j])
                ops = OpCounts.for_edges(
                    edges,
                    q_stack.shape[-1],
                    output.shape[-1],
                    batch=prod(session.cache.batch_shape),
                )
                result = AttentionResult(
                    output=output[stack_index][..., j : j + 1, :],
                    row_max=row_max[stack_index][..., j : j + 1],
                    row_sum=row_sum[stack_index][..., j : j + 1],
                    ops=ops,
                    algorithm="decode-step",
                    meta={
                        "position": position + j,
                        "edges": edges,
                        "coalesced": len(live_sessions),
                        "speculative": True,
                        "drafted": count,
                        "accepted": accepted,
                    },
                )
                session.steps_taken += 1
                session._absorb(result)
                outcome.results.append(result)
            if accepted == 0:
                outcome.fallback = True
                fallback_sessions.append(session)
                fallback_slots.append(session_index)
        outcomes[session_index] = outcome

    # ---- zero-acceptance fallback ------------------------------------------ #
    if fallback_sessions:
        results = stacked_decode_step(
            fallback_sessions,
            [q_list[i][..., :1, :] for i in fallback_slots],
            [k_list[i][..., :1, :] for i in fallback_slots],
            [v_list[i][..., :1, :] for i in fallback_slots],
        )
        for session_index, result in zip(fallback_slots, results):
            outcomes[session_index].results.append(result)
    return outcomes
