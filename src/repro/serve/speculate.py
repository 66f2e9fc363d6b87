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

:func:`speculative_decode_steps` is the pass primitive the scheduler's
``speculate_steps`` and the continuous-batching loop drive.  Its sessions
may differ in mask, horizon, position and window length: the draft and the
verify pass are each one ragged kernel pass over every session's rows, so
sessions that accept different prefix lengths simply carry on from their
own positions in the next iteration's pass.
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
    _check_blocks,
    _edge_attention,
    _pass_reservation,
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
    drafted: Sequence[bool],
) -> List[Optional[object]]:
    """Append every session's window under one reservation per pool.

    A drafted session opens a speculative window, rolled back or committed
    once the verify pass decides; a session without a draft (its whole
    window is accepted) extends through the normal, publishing append and
    gets ``None``.  Every paged block the pass needs is reserved before any
    cache advances (:func:`~repro.serve.decode._pass_reservation`), so
    :exc:`~repro.serve.paging.PoolExhausted` fails the pass with no window
    opened and no block table touched.
    """
    windows: List[Optional[object]] = []
    with _pass_reservation(sessions, [k.shape[-2] for k in ks]) as reserved:
        try:
            for session, k_block, v_block, draft in zip(sessions, ks, vs, drafted):
                session._ensure_cache(k_block, v_block)
                cache = session.cache
                paged = isinstance(cache, PagedKVCache)
                if draft and paged:
                    windows.append(cache.begin_speculative(k_block, v_block, reserved=reserved[cache.pool]))
                    continue
                windows.append(_ContiguousWindow(cache, cache.length) if draft else None)
                if paged:
                    cache.extend(k_block, v_block, reserved=reserved[cache.pool])
                else:
                    cache.extend(k_block, v_block)
        except Exception:
            for window in windows:
                if window is not None:
                    window.rollback()
            raise
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
    """One draft-and-verify pass of ``k_i`` candidate tokens per session ``i``.

    ``qs[i]``/``ks[i]``/``vs[i]`` are ``batch_shape + (k_i, d)`` stacks of
    the next ``k_i`` tokens of session ``i``; sessions may differ in mask,
    horizon, position and window length, and each may appear once.  The
    draft pass and the verify pass are one ragged kernel pass each over
    every session's rows.  Returns one :class:`SpeculationOutcome` per
    session — ``None`` for sessions that were closed concurrently inside the
    append window (the cancellation race; their blocks were already
    retracted by ``close``).

    Emitted outputs are bit-exact equal to the sequential one-token loop's:
    accepted tokens are verify-pass rows (per-row online-softmax segments
    are independent, so a ragged causal pass equals ``k`` sequential
    steps), and the zero-acceptance fallback is a genuine
    :func:`~repro.serve.decode.stacked_decode_step`.
    """
    require(0.0 < draft_fraction <= 1.0, "draft fraction must be in (0, 1]")
    q_list, k_list, v_list = _check_blocks(sessions, qs, ks, vs, verb="speculative decode")
    counts = [int(q.shape[-2]) for q in q_list]
    positions = [session.position for session in sessions]
    scales = [resolve_scale(session.plan.scale, q.shape[-1]) for session, q in zip(sessions, q_list)]
    # a mask whose draft would equal itself has nothing cheaper to score
    # against: its window runs as pure multi-token batching (all accepted)
    drafts = [draft_program_for(session.plan, draft_fraction) for session in sessions]

    # ---- provisional append ------------------------------------------------ #
    windows = _begin_windows(sessions, k_list, v_list, [d is not None for d in drafts])

    # ---- draft pass -------------------------------------------------------- #
    drafted = [i for i, draft in enumerate(drafts) if draft is not None]
    draft_layouts = {i: drafts[i].causal_rows(positions[i], positions[i] + counts[i]) for i in drafted}
    draft_tops: Dict[int, np.ndarray] = {}
    if drafted:
        # the verify pass's own kernel, so a draft edge's score is the very
        # dot product the verify pass computes for it
        parts = _edge_attention(
            [q_list[i] for i in drafted],
            [sessions[i].cache for i in drafted],
            [draft_layouts[i] for i in drafted],
            [scales[i] for i in drafted],
            return_scores=True,
        )
        for i, part in zip(drafted, parts):
            indptr, cols = draft_layouts[i]
            draft_tops[i] = _top_columns(part[3], cols, indptr)

    # ---- cancellation seam ------------------------------------------------- #
    if _between_draft_and_verify is not None:
        _between_draft_and_verify()
    alive = [i for i, s in enumerate(sessions) if not s.closed]
    outcomes: List[Optional[SpeculationOutcome]] = [None] * len(sessions)
    if not alive:
        # every stream cancelled mid-window: close() already rolled the
        # blocks back (release closes an open window), nothing to verify
        return outcomes

    # ---- verify pass ------------------------------------------------------- #
    verify_layouts = [sessions[i].program.causal_rows(positions[i], positions[i] + counts[i]) for i in alive]
    parts = _edge_attention(
        [q_list[i] for i in alive],
        [sessions[i].cache for i in alive],
        verify_layouts,
        [scales[i] for i in alive],
        return_scores=True,
    )

    # ---- acceptance + finalize --------------------------------------------- #
    fallback: List[int] = []
    for i, (verify_indptr, verify_cols), (output, row_max, row_sum, scores) in zip(alive, verify_layouts, parts):
        session, count = sessions[i], counts[i]
        accepted, committed = count, True
        if i in draft_tops:
            verify_tops = _top_columns(scores, verify_cols, verify_indptr)
            accepted = _accepted_prefix(draft_tops[i] == verify_tops, count)
            committed = _finalize(session, windows[i], k_list[i], v_list[i], accepted)
        outcome = SpeculationOutcome(
            drafted=count,
            accepted=accepted if committed else 0,
            degraded=not committed,
            draft_edges=int(draft_layouts[i][1].size) if i in draft_layouts else 0,
            verify_edges=int(verify_cols.size),
        )
        outcomes[i] = outcome
        if not committed:
            continue
        row_edges = np.diff(verify_indptr)
        for j in range(accepted):
            edges = int(row_edges[j])
            ops = OpCounts.for_edges(
                edges,
                q_list[i].shape[-1],
                output.shape[-1],
                batch=prod(session.cache.batch_shape),
            )
            result = AttentionResult(
                output=output[..., j : j + 1, :],
                row_max=row_max[..., j : j + 1],
                row_sum=row_sum[..., j : j + 1],
                ops=ops,
                algorithm="decode-step",
                meta={
                    "position": positions[i] + j,
                    "edges": edges,
                    "coalesced": len(alive),
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
            fallback.append(i)

    # ---- zero-acceptance fallback ------------------------------------------ #
    if fallback:
        results = stacked_decode_step(
            [sessions[i] for i in fallback],
            [q_list[i][..., :1, :] for i in fallback],
            [k_list[i][..., :1, :] for i in fallback],
            [v_list[i][..., :1, :] for i in fallback],
        )
        for i, result in zip(fallback, results):
            outcomes[i].results.append(result)
    return outcomes
