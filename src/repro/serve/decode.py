"""Incremental autoregressive decoding: KV-cache sessions over decode plans.

One-shot attention recomputes every mask edge per call; the heavy-traffic
serving workload is *decoding*, where tokens arrive one at a time and the
work-optimal cost of the new token is O(edges of its own mask row · d) — the
paper's per-edge work argument (Section IV-B) applied to the streaming
pattern of the sequence-parallel systems it surveys.  This module provides
that path:

* :class:`KVCache` — preallocated, geometrically-doubling ``(..., L, d)``
  key/value buffers with batch/head leading axes, so appending a token is an
  O(d) copy and growth is amortised O(1).
* :class:`DecodeSession` — one decoding stream: a decode-mode
  :class:`~repro.serve.plan.ExecutionPlan` (whose precompiled
  :class:`~repro.masks.rows.RowProgram` yields each new token's neighbour
  set), the growing KV cache, and the incremental attention step that runs
  Algorithm 1 for the new query row against the cached keys in place.
* :func:`stacked_decode_step` / :func:`stacked_prefill` — the
  continuous-batching primitives: decode steps (or same-position prompt
  chunks) of several sessions that share one plan stack into a single
  vectorized kernel pass (used by
  :meth:`repro.serve.scheduler.AttentionServer.decode_steps` /
  :meth:`~repro.serve.scheduler.AttentionServer.prefill_chunks` and the
  iteration-level loop in :mod:`repro.serve.loop`).
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import compiled
from repro.core.dense import resolve_scale
from repro.core.engine import MaskInput
from repro.core.result import AttentionResult, OpCounts
from repro.masks.base import as_mask_spec
from repro.masks.rows import compile_row_program
from repro.masks.structured import DenseMask
from repro.serve.paging import BlockPool, PagedKVCache
from repro.serve.plan import ExecutionPlan, compile_plan
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require

#: Initial KV-cache capacity (tokens) before the first geometric doubling.
DEFAULT_INITIAL_CAPACITY = 16


class KVCache:
    """Growing key/value buffers for one decoding stream.

    Buffers are ``batch_shape + (capacity, d)`` with the batch/head axes
    leading, matching the layout every kernel treats as first-class; only the
    first :attr:`length` rows are live.  Appending beyond capacity reallocates
    at twice the size (geometric doubling, amortised O(1) per token), capped
    at ``max_length`` when given.
    """

    def __init__(
        self,
        batch_shape: Tuple[int, ...],
        key_dim: int,
        value_dim: int,
        *,
        dtype=np.float32,
        capacity: int = DEFAULT_INITIAL_CAPACITY,
        max_length: Optional[int] = None,
    ) -> None:
        require(key_dim > 0 and value_dim > 0, "key/value dims must be positive")
        require(capacity >= 1, "initial capacity must be >= 1")
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.key_dim = int(key_dim)
        self.value_dim = int(value_dim)
        self.max_length = int(max_length) if max_length is not None else None
        require(
            self.max_length is None or self.max_length >= 1,
            "max_length must be >= 1 when given",
        )
        if self.max_length is not None:
            capacity = min(capacity, self.max_length)
        self._keys = np.empty(self.batch_shape + (capacity, self.key_dim), dtype=dtype)
        self._values = np.empty(self.batch_shape + (capacity, self.value_dim), dtype=dtype)
        self._length = 0
        self.grows = 0

    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Number of live tokens."""
        return self._length

    @property
    def capacity(self) -> int:
        """Allocated token slots."""
        return int(self._keys.shape[-2])

    @property
    def dtype(self) -> np.dtype:
        return self._keys.dtype

    @property
    def nbytes(self) -> int:
        """Allocated buffer bytes (capacity, not just live tokens)."""
        return int(self._keys.nbytes + self._values.nbytes)

    def keys(self) -> np.ndarray:
        """View of the live key rows, ``batch_shape + (length, d_k)``."""
        return self._keys[..., : self._length, :]

    def values(self) -> np.ndarray:
        """View of the live value rows, ``batch_shape + (length, d_v)``."""
        return self._values[..., : self._length, :]

    def _check_live(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions)
        if positions.size:
            require(
                int(positions.min(initial=0)) >= 0,
                "gather with negative positions",
            )
            require(
                int(positions.max(initial=0)) < self._length,
                "gather past the live token range",
            )
        return positions

    def gather_keys(self, positions: np.ndarray) -> np.ndarray:
        """Key rows of live token ``positions``, ``batch_shape + (E, d_k)``.

        Same contract as :meth:`PagedKVCache.gather_keys
        <repro.serve.paging.PagedKVCache.gather_keys>`, including the refusal
        to read past the live rows into slack capacity.
        """
        return self._keys[..., self._check_live(positions), :]

    def gather_values(self, positions: np.ndarray) -> np.ndarray:
        """Value rows of live token ``positions``, ``batch_shape + (E, d_v)``."""
        return self._values[..., self._check_live(positions), :]

    def attention_operands(self, positions: np.ndarray) -> Tuple[compiled.Arena, np.ndarray]:
        """``(arena, rows)`` the attention kernel reads ``positions`` through.

        The private buffers are the arena and the checked positions its rows
        — same contract as :meth:`PagedKVCache.attention_operands
        <repro.serve.paging.PagedKVCache.attention_operands>`, so contiguous
        and paged caches interchange.
        """
        return compiled.Arena(self._keys, self._values), self._check_live(positions)

    # ------------------------------------------------------------------ #
    def _ensure_capacity(self, extra: int) -> None:
        needed = self._length + extra
        require(
            self.max_length is None or needed <= self.max_length,
            f"KV cache full: {needed} tokens exceed the decode horizon {self.max_length}",
        )
        if needed <= self.capacity:
            return
        new_capacity = self.capacity
        while new_capacity < needed:
            new_capacity *= 2
        if self.max_length is not None:
            new_capacity = min(new_capacity, self.max_length)
        keys = np.empty(self.batch_shape + (new_capacity, self.key_dim), dtype=self.dtype)
        values = np.empty(self.batch_shape + (new_capacity, self.value_dim), dtype=self.dtype)
        keys[..., : self._length, :] = self.keys()
        values[..., : self._length, :] = self.values()
        self._keys, self._values = keys, values
        self.grows += 1

    def extend(self, k_block: np.ndarray, v_block: np.ndarray) -> int:
        """Append a block of tokens; returns the first appended position."""
        k_block = np.asarray(k_block)
        v_block = np.asarray(v_block)
        require(k_block.ndim >= 2, "key block must be batch_shape + (T, d_k)")
        count = int(k_block.shape[-2])
        require(
            k_block.shape == self.batch_shape + (count, self.key_dim),
            "key block shape does not match the cache layout",
        )
        require(
            v_block.shape == self.batch_shape + (count, self.value_dim),
            "value block shape does not match the cache layout",
        )
        self._ensure_capacity(count)
        start = self._length
        self._keys[..., start : start + count, :] = k_block
        self._values[..., start : start + count, :] = v_block
        self._length += count
        return start

    def append(self, k_row: np.ndarray, v_row: np.ndarray) -> int:
        """Append one token (rows shaped ``batch_shape + (d,)``); returns its position."""
        return self.extend(
            np.asarray(k_row)[..., None, :], np.asarray(v_row)[..., None, :]
        )

    def truncate(self, length: int) -> None:
        """Discard tokens past ``length`` (speculative-decode rollback).

        The contiguous twin of the paged cache's speculative window: rows
        above ``length`` become dead capacity (never re-read — every gather
        checks the live range), so rejected draft tokens vanish without a
        copy and the accepted prefix keeps its exact written bytes.
        """
        require(0 <= length <= self._length, "truncate target outside the live range")
        self._length = int(length)


# --------------------------------------------------------------------------- #
# Row attention core
# --------------------------------------------------------------------------- #
#: Either cache flavour a session may own: the private contiguous buffer or a
#: block-table view over a shared pool.  Both hand the kernel their arena and
#: the rows to read (:meth:`KVCache.attention_operands`).
AnyKVCache = Union[KVCache, PagedKVCache]


def _edge_attention(
    q_stack: np.ndarray,
    caches: Sequence[AnyKVCache],
    cols: np.ndarray,
    indptr: np.ndarray,
    *,
    scale_value: float,
    out_dtype,
    return_scores: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Attention of ``R`` query rows per session over K/V read in place.

    ``q_stack`` is ``(S,) + batch_shape + (R, d_k)``, one slice per cache in
    ``caches``; ``cols`` holds the logical key positions of every query
    row's edges in CSR order, ``indptr`` delimits them, and all sessions
    share them.  Sessions whose caches read one arena (a shared pool) run as
    a single :func:`~repro.core.compiled.edge_attention` call over their
    stacked physical rows; each other arena gets its own call.  Empty rows
    (fully masked queries) finalise to zero exactly like the one-shot
    kernels.

    Returns ``(output, row_max, row_sum, scores)`` with the session axis
    leading; ``scores`` — the raw scaled ``(S,) + batch_shape + (E,)`` edge
    scores, from which the speculative passes read per-row argmaxes — is
    ``None`` unless ``return_scores``.
    """
    operands = [cache.attention_operands(cols) for cache in caches]
    by_arena: Dict[int, List[int]] = {}
    for index, (arena, _) in enumerate(operands):
        by_arena.setdefault(id(arena.keys), []).append(index)
    parts = []
    for members in by_arena.values():
        rows = np.stack([operands[i][1] for i in members])
        q_part = q_stack if len(members) == len(caches) else q_stack[members]
        arena = operands[members[0]][0]
        part = compiled.edge_attention(q_part, arena, rows, indptr, scale_value, return_scores=return_scores)
        parts.append((members, part))
    if len(parts) == 1:
        output, row_max, row_sum, scores = parts[0][1]
    else:
        slots = [None] * len(caches)
        for members, part in parts:
            for offset, index in enumerate(members):
                slots[index] = [None if a is None else a[offset] for a in part]
        output, row_max, row_sum, scores = (
            None if slots[0][n] is None else np.stack([slot[n] for slot in slots])
            for n in range(4)
        )
    return output.astype(out_dtype), row_max, row_sum, scores


def _rows_attention(
    q_rows: np.ndarray,
    cache: AnyKVCache,
    indptr: np.ndarray,
    cols: np.ndarray,
    *,
    scale: Optional[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attend one session's ``R`` query rows against its cache (CSR rows)."""
    output, row_max, row_sum, _ = _edge_attention(
        q_rows[None],
        [cache],
        cols,
        indptr,
        scale_value=resolve_scale(scale, q_rows.shape[-1]),
        out_dtype=q_rows.dtype,
    )
    return output[0], row_max[0], row_sum[0]


# --------------------------------------------------------------------------- #
# Decode sessions
# --------------------------------------------------------------------------- #
class DecodeSession:
    """One autoregressive decoding stream over a decode-mode execution plan.

    The session owns a :class:`KVCache` (allocated lazily from the first
    tokens it sees, so batch shape, head dims and dtype are inferred) and the
    plan's precompiled :class:`~repro.masks.rows.RowProgram`.  ``prefill``
    processes the prompt in one vectorized pass over its causal rows;
    ``step`` appends a single token and attends only that token's mask row —
    O(row edges · d) instead of the O(all edges · d) a full recompute pays.

    ``plan.length`` is the session's *horizon*: the pattern length mask rows
    are evaluated at, and the maximum number of tokens the session may hold.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        *,
        retain_outputs: bool = False,
        initial_capacity: int = DEFAULT_INITIAL_CAPACITY,
        session_id: Optional[int] = None,
        cache: Optional[AnyKVCache] = None,
    ) -> None:
        require(
            plan.mode == "decode" and plan.decode is not None,
            "DecodeSession needs a plan compiled with mode='decode'",
        )
        self.plan = plan
        self.program = plan.decode
        self.retain_outputs = bool(retain_outputs)
        self.initial_capacity = int(initial_capacity)
        self.session_id = session_id
        #: ``None`` until the first tokens arrive (layout is inferred), unless
        #: a pre-built cache — typically a :class:`~repro.serve.paging.
        #: PagedKVCache` over a shared pool — was injected at open.
        self.cache: Optional[AnyKVCache] = cache
        self.closed = False
        self.ops = OpCounts()
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
        initial_capacity: int = DEFAULT_INITIAL_CAPACITY,
        pool: Optional[BlockPool] = None,
    ) -> "DecodeSession":
        """Compile a decode plan for ``mask`` at ``horizon`` and open a session.

        The plan keeps its canonical cache key, so independently started
        sessions over the same mask shape can still coalesce their steps
        (see :func:`stacked_decode_step`).  Passing ``pool`` backs the session
        with a :class:`~repro.serve.paging.PagedKVCache` over that shared
        block pool instead of a private buffer.
        """
        plan = compile_plan(mask, horizon, executor=executor, scale=scale, mode="decode")
        cache = PagedKVCache(pool, max_length=horizon) if pool is not None else None
        return cls(
            plan,
            retain_outputs=retain_outputs,
            initial_capacity=initial_capacity,
            cache=cache,
        )

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

    @property
    def kv_cache_bytes(self) -> int:
        """Bytes currently allocated (private) or mapped (paged) by the cache."""
        return self.cache.nbytes if self.cache is not None else 0

    @property
    def paged(self) -> bool:
        """Whether the session's KV cache lives in a shared block pool."""
        return isinstance(self.cache, PagedKVCache)

    # ------------------------------------------------------------------ #
    def _ensure_cache(self, k_block: np.ndarray, v_block: np.ndarray) -> None:
        if self.cache is not None:
            require(
                k_block.shape[:-2] == self.cache.batch_shape
                and k_block.shape[-1] == self.cache.key_dim
                and v_block.shape[-1] == self.cache.value_dim,
                f"token batch shape {k_block.shape[:-2]} / dims "
                f"({k_block.shape[-1]}, {v_block.shape[-1]}) do not match the "
                f"cache layout {self.cache.batch_shape} + "
                f"({self.cache.key_dim}, {self.cache.value_dim})",
            )
            return
        self.cache = KVCache(
            k_block.shape[:-2],
            k_block.shape[-1],
            v_block.shape[-1],
            dtype=k_block.dtype,
            capacity=self.initial_capacity,
            max_length=self.horizon,
        )

    def _absorb(self, result: AttentionResult) -> None:
        self.ops = self.ops + result.ops
        if self.retain_outputs:
            self._outputs.append(result.output)

    def _as_token_slice(self, array: np.ndarray) -> np.ndarray:
        """Normalise a single-token input to ``batch_shape + (1, d)``."""
        array = np.asarray(array)
        if self.cache is not None:
            row_ndim = len(self.cache.batch_shape) + 1
            if array.ndim == row_ndim:
                return array[..., None, :]
            require(
                array.ndim == row_ndim + 1 and array.shape[-2] == 1,
                "decode steps take exactly one token: (..., d) or (..., 1, d)",
            )
            return array
        # before the cache exists, the batch shape is unknown: a bare (d,)
        # vector is a row, anything batched must carry the explicit token
        # axis — (..., 1, d) — or the leading axes would be ambiguous
        if array.ndim == 1:
            return array[None, :]
        require(
            array.ndim >= 2 and array.shape[-2] == 1,
            "first decode step with batch axes needs an explicit token axis: "
            "pass (..., 1, d) (or prefill first)",
        )
        return array

    # ------------------------------------------------------------------ #
    def prefill(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Process a prompt block ``(..., P, d)``: fill the cache, attend causally.

        Rows ``start..start+P-1`` each attend the causal clip of their mask
        row (keys up to and including themselves), in one vectorized pass
        over the block's edges.  May be called repeatedly (chunked prefill).
        """
        require(not self.closed, "session is closed")
        q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
        require(q.ndim >= 2, "prefill takes (..., P, d) blocks")
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        count = int(q.shape[-2])
        require(count >= 1, "prefill needs at least one token")
        self._ensure_cache(k, v)
        start = self.cache.length
        require(
            start + count <= self.horizon,
            f"prefill of {count} tokens at position {start} exceeds horizon {self.horizon}",
        )
        self.cache.extend(k, v)
        indptr, cols = self.program.causal_rows(start, start + count)
        output, row_max, row_sum = _rows_attention(q, self.cache, indptr, cols, scale=self.plan.scale)
        edges = int(cols.size)
        ops = OpCounts.for_edges(
            edges, q.shape[-1], v.shape[-1], batch=prod(self.cache.batch_shape)
        )
        result = AttentionResult(
            output=output,
            row_max=row_max,
            row_sum=row_sum,
            ops=ops,
            algorithm="decode-prefill",
            meta={"positions": (start, start + count), "edges": edges},
        )
        self.prefilled_tokens += count
        self._absorb(result)
        return result

    def step(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Append one token and attend its mask row against the cached K/V.

        ``q``/``k``/``v`` are one-token slices (``(..., d)`` or
        ``(..., 1, d)``).  The returned result's output is
        ``batch_shape + (1, d_v)`` — the new token's attention row.
        """
        require(not self.closed, "session is closed")
        q = self._as_token_slice(q)
        k = self._as_token_slice(k)
        v = self._as_token_slice(v)
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        self._ensure_cache(k, v)
        position = self.cache.length
        require(
            position < self.horizon,
            f"decode step at position {position} exceeds horizon {self.horizon}",
        )
        self.cache.extend(k, v)
        cols = self.program.causal_row(position)
        output, row_max, row_sum = _rows_attention(
            q, self.cache, np.array([0, cols.size], dtype=np.int64), cols, scale=self.plan.scale
        )
        edges = int(cols.size)
        ops = OpCounts.for_edges(
            edges, q.shape[-1], v.shape[-1], batch=prod(self.cache.batch_shape)
        )
        result = AttentionResult(
            output=output,
            row_max=row_max,
            row_sum=row_sum,
            ops=ops,
            algorithm="decode-step",
            meta={"position": position, "edges": edges},
        )
        self.steps_taken += 1
        self._absorb(result)
        return result

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Finish the stream: release paged blocks back to their pool.

        Idempotent.  A closed session refuses further prefills and steps;
        retained outputs stay readable.  For a private-cache session this
        only marks the stream finished (the buffer is garbage-collected with
        the session); for a paged session every block reference returns to
        the pool, where prefix-registered blocks park in the evictable LRU.
        """
        if self.closed:
            return
        self.closed = True
        if isinstance(self.cache, PagedKVCache):
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
# Continuous batching: stacked same-plan decode steps
# --------------------------------------------------------------------------- #
def _require_shared_plan_and_position(sessions: Sequence["DecodeSession"], verb: str) -> int:
    """Assert every session shares the first one's plan and position."""
    first = sessions[0]
    position = first.position
    for session in sessions[1:]:
        shared = session.plan is first.plan or (
            first.plan.key is not None and session.plan.key == first.plan.key
        )
        require(shared, f"{verb} needs sessions sharing one plan")
        require(session.position == position, f"{verb} needs sessions at one position")
    return position


def _stacked_extend(
    sessions: Sequence["DecodeSession"],
    k_rows: Sequence[np.ndarray],
    v_rows: Sequence[np.ndarray],
    tokens: int,
) -> None:
    """Atomically extend every session's cache by one ``tokens``-row block.

    Paged sessions reserve every block the batch needs per pool BEFORE any
    cache advances — pool exhaustion fails the whole batch with no block
    table advanced (the PR 3 atomicity guarantee).  Prefix-share hits consume
    no reservation; leftover entries return to their pools.
    """
    pending: Dict[BlockPool, int] = {}
    for session in sessions:
        if isinstance(session.cache, PagedKVCache):
            pool = session.cache.pool
            pending[pool] = pending.get(pool, 0) + session.cache.plan_extend(tokens)
    reservations: Dict[BlockPool, List[int]] = {pool: [] for pool in pending}
    try:
        for pool, count in pending.items():
            reservations[pool].extend(pool.reserve(count))
    except Exception:
        for pool, blocks in reservations.items():
            if blocks:
                pool.release(blocks)
        raise
    try:
        for session, k, v in zip(sessions, k_rows, v_rows):
            session._ensure_cache(k, v)
            if isinstance(session.cache, PagedKVCache):
                session.cache.extend(k, v, reserved=reservations[session.cache.pool])
            else:
                session.cache.extend(k, v)
    finally:
        # share hits consume no reservation; return what the batch left over
        for pool, blocks in reservations.items():
            if blocks:
                pool.release(blocks)


def stacked_prefill(
    sessions: Sequence["DecodeSession"],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
) -> List[AttentionResult]:
    """One prefill chunk for several sessions fused into a single kernel pass.

    The chunked-prefill twin of :func:`stacked_decode_step`: sessions sharing
    one plan and position append identically-shaped ``batch_shape + (P, d)``
    prompt chunks, and all their causal rows run through one fused kernel
    call per arena.  Block reservation is atomic per pool, so exhaustion
    fails the whole group before any block table advances.  Returns one
    per-session :class:`~repro.core.result.AttentionResult`, exactly equal to
    what individual :meth:`DecodeSession.prefill` calls would produce.
    """
    require(len(sessions) >= 1, "need at least one session")
    require(
        len(sessions) == len(qs) == len(ks) == len(vs),
        "sessions and prompt chunks must align",
    )
    first = sessions[0]
    if len(sessions) == 1:
        return [first.prefill(qs[0], ks[0], vs[0])]
    position = _require_shared_plan_and_position(sessions, "stacked prefill")

    # validate every chunk fully before mutating any session: a failure below
    # must not leave earlier sessions' caches advanced with orphan tokens
    q_list: List[np.ndarray] = []
    k_list: List[np.ndarray] = []
    v_list: List[np.ndarray] = []
    for session, q, k, v in zip(sessions, qs, ks, vs):
        require(not session.closed, "prefill on a closed session")
        q, k, v = np.asarray(q), np.asarray(k), np.asarray(v)
        require(q.ndim >= 2, "prefill takes (..., P, d) blocks")
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        if q_list:
            require(
                q.shape == q_list[0].shape and v.shape == v_list[0].shape,
                "stacked prefill needs identically-shaped chunks",
            )
        if session.cache is not None:
            require(
                k.shape[:-2] == session.cache.batch_shape
                and k.shape[-1] == session.cache.key_dim
                and v.shape[-1] == session.cache.value_dim,
                "prompt chunk does not match the session's cache layout",
            )
        count = int(q.shape[-2])
        require(count >= 1, "prefill needs at least one token")
        require(
            position + count <= session.horizon,
            f"prefill of {count} tokens at position {position} exceeds "
            f"horizon {session.horizon}",
        )
        q_list.append(q)
        k_list.append(k)
        v_list.append(v)
    count = int(q_list[0].shape[-2])

    _stacked_extend(sessions, k_list, v_list, count)

    indptr, cols = first.program.causal_rows(position, position + count)
    scale_value = resolve_scale(first.plan.scale, q_list[0].shape[-1])
    # stack sessions on a new leading axis: (S,) + batch_shape + (P, d)
    q_stack = np.stack(q_list)
    output, row_max, row_sum, _ = _edge_attention(
        q_stack,
        [s.cache for s in sessions],
        cols,
        indptr,
        scale_value=scale_value,
        out_dtype=q_stack.dtype,
    )

    edges = int(cols.size)
    results: List[AttentionResult] = []
    for index, session in enumerate(sessions):
        ops = OpCounts.for_edges(
            edges,
            q_stack.shape[-1],
            output.shape[-1],
            batch=prod(session.cache.batch_shape),
        )
        result = AttentionResult(
            output=output[index],
            row_max=row_max[index],
            row_sum=row_sum[index],
            ops=ops,
            algorithm="decode-prefill",
            meta={
                "positions": (position, position + count),
                "edges": edges,
                "coalesced": len(sessions),
            },
        )
        session.prefilled_tokens += count
        session._absorb(result)
        results.append(result)
    return results


def stacked_decode_step(
    sessions: Sequence[DecodeSession],
    qs: Sequence[np.ndarray],
    ks: Sequence[np.ndarray],
    vs: Sequence[np.ndarray],
) -> List[AttentionResult]:
    """One decode step for several sessions fused into a single kernel pass.

    All sessions must share one plan (same mask/horizon/scale) and sit at the
    same position with identically-shaped caches, so they also share the new
    token's neighbour set; their query rows stack along a new leading axis
    and the whole group runs through one fused kernel call per arena,
    reading each session's K/V rows in place — the continuous-batching shape
    of decode serving.
    Returns one per-session :class:`~repro.core.result.AttentionResult`,
    exactly equal to what individual :meth:`DecodeSession.step` calls would
    produce.
    """
    require(len(sessions) >= 1, "need at least one session")
    require(
        len(sessions) == len(qs) == len(ks) == len(vs),
        "sessions and token slices must align",
    )
    first = sessions[0]
    if len(sessions) == 1:
        return [first.step(qs[0], ks[0], vs[0])]

    position = _require_shared_plan_and_position(sessions, "stacked decode steps")

    # validate every step fully before mutating any session: a failure below
    # must not leave earlier sessions' caches advanced with orphan tokens
    q_rows, k_rows, v_rows = [], [], []
    for session, q, k, v in zip(sessions, qs, ks, vs):
        require(not session.closed, "decode step on a closed session")
        q, k, v = session._as_token_slice(q), session._as_token_slice(k), session._as_token_slice(v)
        require(q.shape == k.shape, "q and k must have matching shapes")
        require(v.shape[:-1] == q.shape[:-1], "v must cover the same rows as q")
        require(position < session.horizon, "decode step exceeds the session horizon")
        if session.cache is not None:
            require(
                k.shape[:-2] == session.cache.batch_shape
                and k.shape[-1] == session.cache.key_dim
                and v.shape[-1] == session.cache.value_dim,
                "token slice does not match the session's cache layout",
            )
        if q_rows:
            require(
                q.shape == q_rows[0].shape and v.shape == v_rows[0].shape,
                "stacked decode steps need identically-shaped sessions",
            )
        q_rows.append(q)
        k_rows.append(k)
        v_rows.append(v)

    _stacked_extend(sessions, k_rows, v_rows, 1)

    cols = first.program.causal_row(position)
    indptr = np.array([0, cols.size], dtype=np.int64)
    scale_value = resolve_scale(first.plan.scale, q_rows[0].shape[-1])
    # stack sessions on a new leading axis: (S,) + batch_shape + (1, d)
    q_stack = np.stack(q_rows)
    output, row_max, row_sum, _ = _edge_attention(
        q_stack,
        [s.cache for s in sessions],
        cols,
        indptr,
        scale_value=scale_value,
        out_dtype=q_stack.dtype,
    )

    results: List[AttentionResult] = []
    for index, session in enumerate(sessions):
        ops = OpCounts.for_edges(
            int(cols.size),
            q_stack.shape[-1],
            output.shape[-1],
            batch=prod(session.cache.batch_shape),
        )
        result = AttentionResult(
            output=output[index],
            row_max=row_max[index],
            row_sum=row_sum[index],
            ops=ops,
            algorithm="decode-step",
            meta={"position": position, "edges": int(cols.size), "coalesced": len(sessions)},
        )
        session.steps_taken += 1
        session._absorb(result)
        results.append(result)
    return results


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
