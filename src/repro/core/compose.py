"""Composition of sequentially executed attention kernels.

Section V-F evaluates two ways of executing the popular composite masks:

* a **single CSR call** on the union mask, and
* a **sequence of specialised kernels** (Local then Global for Longformer;
  Local, Global, then CSR-random for BigBird) whose partial results are merged.

Merging is possible because every kernel returns its final online-softmax
statistics ``(m, l)`` alongside the (normalised) partial output; as long as
the component masks are edge-disjoint, combining the statistics reproduces the
softmax over the union mask exactly.  :func:`merge_results` implements that
combination, :func:`composed_attention` runs an arbitrary component list, and
:func:`longformer_attention` / :func:`bigbird_attention` are the Fig. 6
"Loc + Glo" and "Loc + Glo + CSR" sequences.

The serving plans (:mod:`repro.serve.plan`) split a union in two parts
instead: its stencil components on their own kernels, and every other edge —
global and random alike — in one CSR remainder, folded into one float64
state as each step finishes.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.explicit_kernels import csr_attention
from repro.core.implicit_kernels import global_attention, local_attention
from repro.core.online_softmax import rescale_factor
from repro.core.result import AttentionResult, OpCounts
from repro.masks.random_ import RandomMask
from repro.utils.validation import require


def merge_results(results: Sequence[AttentionResult], *, algorithm: str = "composed") -> AttentionResult:
    """Merge partial attention results computed over disjoint masks.

    Each result must cover the same rows (same leading batch axes, ``L`` and
    ``d_v``).  The merged output is the attention output of the union mask;
    operation counts are summed.  If the component masks overlap, the
    overlapped edges are counted twice — callers are responsible for passing
    disjoint components (the presets in :mod:`repro.masks.presets` are
    constructed to be disjoint).
    """
    results = list(results)
    require(len(results) >= 1, "need at least one result to merge")
    out_shape = results[0].output.shape
    for result in results[1:]:
        require(result.output.shape == out_shape, "results cover different shapes")

    row_max = np.full(out_shape[:-1], -np.inf, dtype=np.float64)
    row_sum = np.zeros(out_shape[:-1], dtype=np.float64)
    accumulator = np.zeros(out_shape, dtype=np.float64)
    ops = OpCounts()
    for result in results:
        r_max = np.asarray(result.row_max, dtype=np.float64)
        r_sum = np.asarray(result.row_sum, dtype=np.float64)
        r_out = np.asarray(result.output, dtype=np.float64)
        m_new = np.maximum(row_max, r_max)
        scale_old = rescale_factor(row_max, m_new)
        scale_new = rescale_factor(r_max, m_new)
        row_sum = row_sum * scale_old + r_sum * scale_new
        # result outputs are normalised; rescale back to unnormalised partials
        accumulator = accumulator * scale_old[..., None] + r_out * (r_sum * scale_new)[..., None]
        row_max = np.where(np.isfinite(m_new), m_new, -np.inf)
        ops = ops + result.ops

    empty = row_sum == 0
    safe = np.where(empty, 1.0, row_sum)
    output = accumulator / safe[..., None]
    output[empty] = 0.0
    return AttentionResult(
        output=output.astype(results[0].output.dtype),
        row_max=row_max,
        row_sum=row_sum,
        ops=ops,
        algorithm=algorithm,
        meta={"components": [r.algorithm for r in results]},
    )


def composed_attention(
    kernel_calls: Iterable[Callable[[], AttentionResult]],
    *,
    algorithm: str = "composed",
) -> AttentionResult:
    """Run a sequence of kernel thunks and merge their partial results."""
    results: List[AttentionResult] = [call() for call in kernel_calls]
    return merge_results(results, algorithm=algorithm)


# --------------------------------------------------------------------------- #
# Named compositions used by the Fig. 6 experiments
# --------------------------------------------------------------------------- #
def longformer_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    reach: int = 50,
    global_tokens: Sequence[int] = (0,),
    scale: Optional[float] = None,
    executor: str = "vectorized",
) -> AttentionResult:
    """Longformer local+global attention as a double kernel call (Loc + Glo).

    ``reach`` is the per-direction window ("local size of 50 in each
    direction"); the global component excludes the window so the two edge sets
    are disjoint.
    """
    window = reach + 1
    return composed_attention(
        [
            lambda: local_attention(q, k, v, window, scale=scale, executor=executor),
            lambda: global_attention(q, k, v, global_tokens, window, scale=scale, executor=executor),
        ],
        algorithm="local+global",
    )


def bigbird_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    reach: int = 50,
    global_tokens: Sequence[int] = (0,),
    random_sparsity: float = 0.001,
    seed: int = 0,
    scale: Optional[float] = None,
    executor: str = "vectorized",
) -> AttentionResult:
    """BigBird local+global+random attention as a triple kernel call (Loc + Glo + CSR).

    The random component is materialised as a CSR mask (it has no ordered
    structure an implicit kernel could exploit); edges already covered by the
    local window or global tokens are removed first so the components stay
    disjoint.
    """
    length = q.shape[-2]
    window = reach + 1
    from repro.masks.global_ import GlobalNonLocalMask
    from repro.masks.windowed import LocalMask

    random_mask = RandomMask(sparsity=random_sparsity, seed=seed).to_csr(length)
    covered = LocalMask(window=window).to_csr(length).union(
        GlobalNonLocalMask(global_tokens, window=window).to_csr(length)
    )
    random_only = random_mask.difference(covered)
    return composed_attention(
        [
            lambda: local_attention(q, k, v, window, scale=scale, executor=executor),
            lambda: global_attention(q, k, v, global_tokens, window, scale=scale, executor=executor),
            lambda: csr_attention(q, k, v, random_only, scale=scale, executor=executor),
        ],
        algorithm="local+global+csr",
    )
