"""Output checks, run after the measured window.

* Streams (``chat``, ``rag``) must equal, bit for bit, a private
  :class:`~repro.serve.DecodeSession` replay of the same request on a pool of
  the same storage dtype, prefilled in the loop's chunk size.
* One-shot documents (``longctx``) must match a dense reference on sampled
  query rows within ``atol=1e-5``.  A row is checked against
  :func:`repro.core.dense.sdp_attention` on the sub-problem made of the row
  and the keys its mask row selects, so the dense reference stays small.  A
  global-token row selects (nearly) every key, and its sub-problem's
  ``L x L`` scores would not fit in memory, so it is checked against a direct
  one-row softmax over its keys instead.
"""

from __future__ import annotations

from typing import List

import numpy as np

ATOL = 1e-5
#: rows selecting more keys than this get the one-row reference
SUBPROBLEM_KEYS = 4096


def replay_stream(request, *, storage: str, block_size: int, prefill_chunk: int) -> np.ndarray:
    """Outputs of ``request`` decoded alone on a private same-storage pool."""
    from repro.serve import DecodeSession
    from repro.serve.paging import BlockPool

    prompt, total = request.prompt_tokens, request.total_tokens
    pool = BlockPool(
        -(-total // block_size),
        block_size,
        key_dim=request.k.shape[-1],
        value_dim=request.v.shape[-1],
        batch_shape=request.batch_shape,
        storage=storage,
    )
    session = DecodeSession.start(request.mask, total, retain_outputs=True, pool=pool)
    q, k, v = request.q, request.k, request.v
    for start in range(0, prompt, prefill_chunk):
        stop = min(start + prefill_chunk, prompt)
        session.prefill(q[..., start:stop, :], k[..., start:stop, :], v[..., start:stop, :])
    for i in range(prompt, total):
        session.step(q[..., i, :], k[..., i, :], v[..., i, :])
    output = session.outputs()
    session.close()
    return output


def sample_rows(length: int, global_tokens, count: int, seed: int) -> np.ndarray:
    """``count`` distinct non-global query rows, a pure function of ``seed``."""
    candidates = np.setdiff1d(np.arange(length), np.asarray(global_tokens))
    picked = np.random.default_rng([seed, 99]).choice(candidates, size=count, replace=False)
    return np.sort(picked)


def one_row_attention(q_row, k, v) -> np.ndarray:
    """``softmax(q_row . k^T / sqrt(d)) . v`` in float64."""
    from repro.core.dense import resolve_scale

    scores = k.astype(np.float64) @ q_row.astype(np.float64) * resolve_scale(None, k.shape[-1])
    weights = np.exp(scores - scores.max())
    return weights @ v.astype(np.float64) / weights.sum()


def oneshot_mismatches(output, q, k, v, mask, rows) -> List[str]:
    """Rows of ``output`` farther than ``ATOL`` from the dense reference."""
    from repro.core.dense import sdp_attention

    length = q.shape[-2]
    problems = []
    for row in rows:
        keys = np.asarray(mask.row(int(row), length), dtype=np.int64)
        if keys.size > SUBPROBLEM_KEYS:
            reference = one_row_attention(q[row], k[keys], v[keys])
        else:
            members = np.union1d(keys, [row])
            local = int(np.searchsorted(members, row))
            sub_mask = np.zeros((members.size, members.size), dtype=bool)
            sub_mask[local, np.searchsorted(members, keys)] = True
            reference = sdp_attention(q[members], k[members], v[members], sub_mask).output[local]
        error = float(np.max(np.abs(output[row] - reference)))
        if not error <= ATOL:
            problems.append(f"row {row}: max abs error {error:.3g} > {ATOL}")
    return problems
