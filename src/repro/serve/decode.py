"""Incremental autoregressive decoding: KV-cache sessions over decode plans.

One-shot attention recomputes every mask edge per call; the heavy-traffic
serving workload is *decoding*, where tokens arrive one at a time and the
work-optimal cost of the new token is O(edges of its own mask row · d) — the
paper's per-edge work argument (Section IV-B) applied to the streaming
pattern of the sequence-parallel systems it surveys.  This module provides
that path:

* :class:`DecodeSession` — one decoding stream: a decode-mode
  :class:`~repro.serve.plan.ExecutionPlan` (whose precompiled
  :class:`~repro.masks.rows.RowProgram` yields each new token's neighbour
  set), its KV cache — a :class:`~repro.serve.paging.PagedKVCache` over a
  server's shared block pool or a pool of the session's own — and the
  incremental attention step that runs Algorithm 1 for the new query row
  against the cached keys in place.
* :func:`stacked_decode_step` / :func:`stacked_prefill` — the
  continuous-batching primitives: the decode steps (or prompt chunks) of
  any sessions, whatever their masks, horizons, positions and chunk
  lengths, run as one ragged kernel pass per pool — one KV write
  per pool (:mod:`repro.serve.paging`'s pass writer) and one row layout
  (:func:`~repro.masks.rows.causal_layout`) per pass, each session's rows
  from its own program, laid end to end in one CSR (used by
  :meth:`repro.serve.scheduler.AttentionServer.decode_steps` /
  :meth:`~repro.serve.scheduler.AttentionServer.prefill_chunks`, the
  iteration-level loop in :mod:`repro.serve.loop`, and under
  :meth:`DecodeSession.step` / :meth:`DecodeSession.prefill` as one-session
  passes).
* :func:`decode_reference_mask` — the causally-clipped CSR mask a full decode
  loop attends, so ``engine.run`` on it reproduces an entire prefill+steps
  loop in one shot (the verification oracle for tests and benchmarks).

A decode step at position ``i`` attends the causal clip of mask row ``i``
evaluated at the session's *horizon* (keys ``j <= i`` only — later tokens do
not exist yet), which makes the incremental loop exactly equal to a one-shot
run over :func:`decode_reference_mask`.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import compiled
from repro.core.dense import resolve_scale
from repro.core.engine import MaskInput
from repro.core.result import AttentionResult, OpCounts
from repro.masks.base import as_mask_spec
from repro.masks.rows import causal_layout, compile_row_program
from repro.masks.structured import DenseMask
from repro.perfmodel.decode import blocks_for_tokens
from repro.serve.paging import DEFAULT_BLOCK_SIZE, BlockPool, PagedKVCache, _write_blocks
from repro.serve.plan import ExecutionPlan, compile_plan
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require


# --------------------------------------------------------------------------- #
# Row attention core
# --------------------------------------------------------------------------- #
def _edge_attention(
    sessions: Sequence["DecodeSession"],
    q_blocks: Sequence[np.ndarray],
    positions: Sequence[int],
) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], List[int]]:
    """One ragged pass of Algorithm 1 over several sessions' new rows.

    Session ``s`` brings its query block ``q_blocks[s]``
    (``batch_shape + (R_s, d_k)``) for its rows ``positions[s]`` onward, so
    sessions may differ in mask, horizon, position and row count.  Sessions
    whose caches page through one pool with one query dtype and scale run as
    a single :func:`~repro.core.compiled.edge_attention` call: one
    :func:`~repro.masks.rows.causal_layout` of all their rows, one
    block-table lookup of its columns
    (:meth:`~repro.serve.paging.BlockPool.attention_operands`) and their
    query rows concatenated.  Empty rows (fully masked queries) finalise to
    zero exactly like the one-shot kernels.

    Returns one ``(output, row_max, row_sum)`` per session, the output in
    the session's query dtype, and every session's edge count.  Each
    session's arrays are copies of its own rows of the call, so a retained
    output never pins the other sessions' rows of the pass.
    """
    calls: Dict[Tuple, List[int]] = {}
    for index, (session, q) in enumerate(zip(sessions, q_blocks)):
        calls.setdefault((id(session.cache.pool), q.dtype, session.plan.scale, q.shape[-1]), []).append(index)
    parts: List = [None] * len(sessions)
    edges: List[int] = [0] * len(sessions)
    for (_, _, scale, key_dim), members in calls.items():
        counts = [q_blocks[i].shape[-2] for i in members]
        indptr, cols = causal_layout([(sessions[i].program, positions[i], n) for i, n in zip(members, counts)])
        bounds = np.cumsum([0, *counts])
        member_edges = np.diff(indptr[bounds])
        caches = [sessions[i].cache for i in members]
        arena, rows = caches[0].pool.attention_operands(caches, cols, member_edges)
        q = np.concatenate([q_blocks[i] for i in members], axis=-2)
        output, row_max, row_sum = compiled.edge_attention(q, arena, rows, indptr, resolve_scale(scale, key_dim))
        for i, lo, hi, count in zip(members, bounds[:-1].tolist(), bounds[1:].tolist(), member_edges.tolist()):
            parts[i] = (
                output[..., lo:hi, :].astype(q.dtype),
                row_max[..., lo:hi].copy(),
                row_sum[..., lo:hi].copy(),
            )
            edges[i] = count
    return parts, edges


# --------------------------------------------------------------------------- #
# Decode sessions
# --------------------------------------------------------------------------- #
class DecodeSession:
    """One autoregressive decoding stream over a decode-mode execution plan.

    The session holds a :class:`~repro.serve.paging.PagedKVCache` and the
    plan's precompiled :class:`~repro.masks.rows.RowProgram`.  ``prefill``
    processes the prompt in one vectorized pass over its causal rows;
    ``step`` appends a single token and attends only that token's mask row —
    O(row edges · d) instead of the O(all edges · d) a full recompute pays.

    ``plan.length`` is the session's *horizon*: the pattern length mask rows
    are evaluated at, and the maximum number of tokens the session may hold.

    The cache pages through the pool it is given at open (a server's shared
    pool, or ``pool=`` of :meth:`start`).  A session opened without one
    pages through a :class:`~repro.serve.paging.BlockPool` of its own,
    ``ceil(horizon / DEFAULT_BLOCK_SIZE)`` blocks laid out (batch shape,
    head dims, dtype) like the first tokens it sees.  That pool maps the
    whole horizon at once: its arenas are ``np.zeros``, so only touched
    pages become resident, but NumPy asks for huge pages on arrays of 4 MB
    or more, so where the kernel grants them each 2 MB region a write
    touches is resident whole (128 tokens at horizon 65,536, 4 heads, d=64
    fp32 cost about 12.6 MB of RSS on Linux with transparent huge pages in
    ``madvise`` mode).
    Serving traffic pages through its server's pool; sessions without one
    are for tests, examples and oracles.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        *,
        retain_outputs: bool = False,
        session_id: Optional[int] = None,
        cache: Optional[PagedKVCache] = None,
    ) -> None:
        require(
            plan.mode == "decode" and plan.decode is not None,
            "DecodeSession needs a plan compiled with mode='decode'",
        )
        self.plan = plan
        self.program = plan.decode
        self.retain_outputs = bool(retain_outputs)
        self.session_id = session_id
        #: ``None`` until the first tokens open a pool of the session's own,
        #: unless a cache over a given pool was injected at open.
        self.cache: Optional[PagedKVCache] = cache
        self.closed = False
        self.ops = OpCounts()  # summed over every pass this session ran in
        self.steps_taken = 0
        self.prefilled_tokens = 0
        #: Whether the plan came from a warm cache (set by the server at open).
        self.plan_cache_hit = False
        self._outputs: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    @classmethod
    def start(
        cls,
        mask: MaskInput,
        horizon: int,
        *,
        scale: Optional[float] = None,
        executor: str = "vectorized",
        retain_outputs: bool = False,
        pool: Optional[BlockPool] = None,
    ) -> "DecodeSession":
        """Compile a decode plan for ``mask`` at ``horizon`` and open a session.

        The plan keeps its canonical cache key, so independently started
        sessions over the same mask shape share it.  The session pages
        through ``pool`` when one is given, else through a pool of its own.
        """
        plan = compile_plan(mask, horizon, executor=executor, scale=scale, mode="decode")
        cache = PagedKVCache(pool, max_length=horizon) if pool is not None else None
        return cls(plan, retain_outputs=retain_outputs, cache=cache)

    # ------------------------------------------------------------------ #
    @property
    def horizon(self) -> int:
        """Pattern length rows are evaluated at (upper bound on tokens held)."""
        return self.plan.length

    @property
    def position(self) -> int:
        """Index the next appended token will occupy."""
        return self.cache.length if self.cache is not None else 0

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        """Leading batch/head axes (empty until the first tokens arrive)."""
        return self.cache.batch_shape if self.cache is not None else ()

    # ------------------------------------------------------------------ #
    def _check_layout(self, k_block: np.ndarray, v_block: np.ndarray) -> None:
        """Refuse a block whose batch shape or head dims differ from the cache's."""
        cache = self.cache
        if cache is not None and not (
            k_block.shape[:-2] == cache.batch_shape
            and k_block.shape[-1] == cache.key_dim
            and v_block.shape[-1] == cache.value_dim
        ):
            raise ValueError(
                f"token batch shape {k_block.shape[:-2]} / dims "
                f"({k_block.shape[-1]}, {v_block.shape[-1]}) do not match the "
                f"cache layout {cache.batch_shape} + "
                f"({cache.key_dim}, {cache.value_dim})"
            )

    def _open_cache(self, k_block: np.ndarray, v_block: np.ndarray) -> None:
        """Page through a pool of the session's own, laid out like its first tokens."""
        pool = BlockPool(
            blocks_for_tokens(self.horizon, DEFAULT_BLOCK_SIZE),
            key_dim=k_block.shape[-1],
            value_dim=v_block.shape[-1],
            batch_shape=k_block.shape[:-2],
            dtype=k_block.dtype,
        )
        self.cache = PagedKVCache(pool, max_length=self.horizon)

    def _as_token_slices(self, *arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Normalise single-token inputs to ``batch_shape + (1, d)``."""
        slices = []
        row_ndim = None if self.cache is None else len(self.cache.batch_shape) + 1
        for array in arrays:
            array = np.asarray(array)
            if row_ndim is not None:
                if array.ndim == row_ndim:
                    array = array[..., None, :]
                else:
                    require(
                        array.ndim == row_ndim + 1 and array.shape[-2] == 1,
                        "decode steps take exactly one token: (..., d) or (..., 1, d)",
                    )
            # before the cache exists, the batch shape is unknown: a bare (d,)
            # vector is a row, anything batched must carry the explicit token
            # axis — (..., 1, d) — or the leading axes would be ambiguous
            elif array.ndim == 1:
                array = array[None, :]
            else:
                require(
                    array.ndim >= 2 and array.shape[-2] == 1,
                    "first decode step with batch axes needs an explicit token axis: "
                    "pass (..., 1, d) (or prefill first)",
                )
            slices.append(array)
        return tuple(slices)

    # ------------------------------------------------------------------ #
    def prefill(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Process a prompt block ``(..., P, d)``: fill the cache, attend causally.

        Rows ``start..start+P-1`` each attend the causal clip of their mask
        row (keys up to and including themselves), in one vectorized pass
        over the block's edges.  May be called repeatedly (chunked prefill).
        """
        return stacked_prefill([self], [q], [k], [v])[0]

    def step(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Append one token and attend its mask row against the cached K/V.

        ``q``/``k``/``v`` are one-token slices (``(..., d)`` or
        ``(..., 1, d)``).  The returned result's output is
        ``batch_shape + (1, d_v)`` — the new token's attention row.
        """
        return stacked_decode_step([self], [q], [k], [v])[0]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Finish the stream: release its blocks back to their pool.

        Idempotent.  A closed session refuses further prefills and steps;
        retained outputs stay readable.  Every block reference returns to
        the pool, where prefix-registered blocks park in the evictable LRU.
        """
        if self.closed:
            return
        self.closed = True
        if self.cache is not None:
            self.cache.release()

    def outputs(self) -> np.ndarray:
        """All retained outputs concatenated to ``batch_shape + (length, d_v)``.

        Requires ``retain_outputs=True``; row ``i`` is the attention output
        token ``i`` received at the step (or prefill) that produced it.
        """
        require(self.retain_outputs, "session was opened with retain_outputs=False")
        require(len(self._outputs) > 0, "no tokens decoded yet")
        return np.concatenate(self._outputs, axis=-2)


# --------------------------------------------------------------------------- #
# Continuous batching: ragged passes over any sessions
# --------------------------------------------------------------------------- #
def _append(
    sessions: Sequence["DecodeSession"],
    k_blocks: Sequence[np.ndarray],
    v_blocks: Sequence[np.ndarray],
) -> None:
    """Atomically extend every session's cache by its own block.

    A session's first tokens open its own pool if it has no cache yet
    (:meth:`DecodeSession._open_cache`).  Then one pass write, its layout
    checks already made by :func:`_check_blocks`, advances every cache or
    none; a failed write also drops the pools it opened, so a refused pass
    leaves no session's layout fixed.
    """
    opened = []
    for session, k, v in zip(sessions, k_blocks, v_blocks):
        if session.cache is None:
            session._open_cache(k, v)
            opened.append(session)
    try:
        _write_blocks([session.cache for session in sessions], k_blocks, v_blocks)
    except BaseException:
        for session in opened:
            session.cache = None
        raise


def _check_blocks(
    sessions: Sequence["DecodeSession"],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    *,
    verb: str,
    one_token: bool = False,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], List[int]]:
    """Validate every session's block before any cache advances.

    A failure on a later session must not leave earlier sessions' caches
    advanced with orphan tokens.  ``one_token`` blocks are decode steps
    (:meth:`DecodeSession._as_token_slices`); the rest are
    ``batch_shape + (R, d)`` blocks.  Returns the normalised ``(q, k, v)``
    blocks and every session's position.  Refusal messages are formatted
    only on refusal.
    """
    require(len(sessions) >= 1, "need at least one session")
    require(
        len(sessions) == len(qs) == len(ks) == len(vs),
        "sessions and token blocks must align",
    )
    if len({id(session) for session in sessions}) != len(sessions):
        raise ValueError(f"a session may appear at most once per {verb} pass")
    q_list: List[np.ndarray] = []
    k_list: List[np.ndarray] = []
    v_list: List[np.ndarray] = []
    positions: List[int] = []
    for session, q, k, v in zip(sessions, qs, ks, vs):
        if session.closed:
            raise ValueError(f"{verb} on a closed session")
        if one_token:
            q, k, v = session._as_token_slices(q, k, v)
        else:
            q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
            if q.ndim < 2:
                raise ValueError(f"{verb} takes (..., R, d) blocks")
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        count = q.shape[-2]
        if count < 1:
            raise ValueError(f"{verb} needs at least one token")
        session._check_layout(k, v)
        position = session.position
        if position + count > session.horizon:
            raise ValueError(f"{verb} of {count} token(s) at position {position} exceeds horizon {session.horizon}")
        q_list.append(q)
        k_list.append(k)
        v_list.append(v)
        positions.append(position)
    return q_list, k_list, v_list, positions


def _ragged_pass(
    sessions: Sequence["DecodeSession"],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
    *,
    step: bool,
) -> List[AttentionResult]:
    """Append every session's block, then attend all their new rows in one
    ragged kernel pass per pool (:func:`_edge_attention`).

    A step attends :meth:`~repro.masks.rows.RowProgram.causal_row` of the
    new token's position, a prefill chunk the causal rows of its positions,
    each under the session's own program; the pass lays them all out in one
    :func:`~repro.masks.rows.causal_layout` per kernel call.  Each result is
    exactly what the session's solo call produces.
    """
    verb = "decode step" if step else "prefill"
    q_list, k_list, v_list, positions = _check_blocks(sessions, qs, ks, vs, verb=verb, one_token=step)
    _append(sessions, k_list, v_list)
    parts, edges = _edge_attention(sessions, q_list, positions)

    results: List[AttentionResult] = []
    coalesced = len(sessions)
    for session, position, q, edge_count, (output, row_max, row_sum) in zip(sessions, positions, q_list, edges, parts):
        count = q.shape[-2]
        ops = OpCounts.for_edges(edge_count, q.shape[-1], output.shape[-1], batch=prod(session.cache.batch_shape))
        session.ops = session.ops + ops
        if step:
            algorithm, meta = "decode-step", {"position": position}
            session.steps_taken += 1
        else:
            algorithm, meta = "decode-prefill", {"positions": (position, position + count)}
            session.prefilled_tokens += count
        meta["edges"] = edge_count
        meta["coalesced"] = coalesced
        if session.retain_outputs:
            session._outputs.append(output)
        results.append(
            AttentionResult(
                output=output,
                row_max=row_max,
                row_sum=row_sum,
                ops=ops,
                algorithm=algorithm,
                meta=meta,
            )
        )
    return results


def stacked_prefill(
    sessions: Sequence["DecodeSession"],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
) -> List[AttentionResult]:
    """One prefill chunk for each of several sessions in one ragged pass.

    The chunked-prefill twin of :func:`stacked_decode_step`: each session
    appends its own ``batch_shape + (P_s, d)`` prompt chunk at its own
    position, whatever its mask and horizon, and all the chunks' causal rows
    run through one fused kernel call per pool.  Block reservation is
    atomic per pool, so exhaustion fails the whole pass before any block
    table advances.  Returns one per-session
    :class:`~repro.core.result.AttentionResult`, exactly equal to what
    individual :meth:`DecodeSession.prefill` calls would produce.
    """
    return _ragged_pass(sessions, qs, ks, vs, step=False)


def stacked_decode_step(
    sessions: Sequence[DecodeSession],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
) -> List[AttentionResult]:
    """One decode step for each of several sessions in one ragged pass.

    Sessions may differ in mask, horizon and position: each new token's row
    comes from its own session's program, the rows lie end to end, and the
    pass makes one fused kernel call per pool, reading each session's K/V
    rows in place — the continuous-batching shape of decode serving.
    Returns one per-session :class:`~repro.core.result.AttentionResult`,
    exactly equal to what individual :meth:`DecodeSession.step` calls would
    produce.
    """
    return _ragged_pass(sessions, qs, ks, vs, step=True)


# --------------------------------------------------------------------------- #
# Verification oracle
# --------------------------------------------------------------------------- #
def decode_reference_mask(
    mask: MaskInput, length: int, *, horizon: Optional[int] = None
) -> CSRMatrix:
    """The causally-clipped mask a decode loop of ``length`` tokens attends.

    Row ``i`` is ``mask``'s row ``i`` evaluated at ``horizon`` (defaults to
    ``length``) clipped to keys ``j <= i``.  A one-shot
    ``engine.run(q, k, v, mask=decode_reference_mask(...))`` over the full
    tensors reproduces an entire ``prefill`` + ``step`` loop bit-for-bit up
    to accumulation order — the oracle the decode tests and benchmarks
    compare against.
    """
    require(length > 0, "length must be positive")
    horizon = length if horizon is None else int(horizon)
    require(horizon >= length, "horizon must be at least the decoded length")
    spec = DenseMask() if mask is None else as_mask_spec(mask)
    indptr, cols = compile_row_program(spec, horizon).causal_rows(0, length)
    return CSRMatrix(
        shape=(length, length),
        indptr=indptr,
        indices=cols,
        values=np.ones(cols.shape, dtype=np.float32),
    )
