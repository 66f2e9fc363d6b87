"""Kernel dispatch engine.

:class:`GraphAttentionEngine` is the user-facing entry point: given Q/K/V and
a mask specification it picks the most specialised kernel available —
the implicit ordered-sparsity kernels when the spec advertises a
``kernel_hint``, a union's stencil kernels plus one CSR call on the rest of
its edges, or the explicit CSR/COO kernels for arbitrary masks — and returns the
:class:`~repro.core.result.AttentionResult` together with the op counts the
work model consumes.  The dense SDP and FlashAttention baselines are exposed
through the same interface so experiments can swap algorithms by name.

Dispatch itself is delegated to the execution-plan compiler in
:mod:`repro.serve.plan`: :meth:`GraphAttentionEngine.plan` compiles a mask and
length into an immutable :class:`~repro.serve.plan.ExecutionPlan` and
:meth:`GraphAttentionEngine.run` executes it, so the engine and the serving
layer (:class:`~repro.serve.scheduler.AttentionServer`) share one dispatch
brain.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.obs.recorder import NULL_OBS, Observability
from repro.core.dense import sdp_attention
from repro.core.explicit_kernels import coo_attention, csr_attention, materialize_explicit
from repro.core.flash import flash_attention
from repro.core.implicit_kernels import (
    dilated1d_attention,
    dilated2d_attention,
    global_attention,
    local_attention,
)
from repro.core.result import AttentionResult, OpCounts
from repro.masks.base import MaskSpec
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require

#: Algorithms the engine can be asked for explicitly.
ALGORITHMS = (
    "auto",
    "sdp",
    "flash",
    "coo",
    "csr",
    "local",
    "dilated1d",
    "dilated2d",
    "global",
)

MaskInput = Union[MaskSpec, np.ndarray, COOMatrix, CSRMatrix, None]

#: Single dispatch table for the implicit (ordered-sparsity) kernels: spec
#: type -> runner extracting the spec's parameters.  The kernel *name* comes
#: from the spec's own ``kernel_hint``, so adding a specialised mask type
#: means adding one entry here and declaring the hint on the class.
SPECIALISED_KERNELS = {
    LocalMask: lambda q, k, v, s, scale, executor: local_attention(
        q, k, v, s.window, scale=scale, executor=executor
    ),
    Dilated1DMask: lambda q, k, v, s, scale, executor: dilated1d_attention(
        q, k, v, s.window, s.dilation, scale=scale, executor=executor
    ),
    Dilated2DMask: lambda q, k, v, s, scale, executor: dilated2d_attention(
        q, k, v, s.block_size, s.dilation, scale=scale, executor=executor
    ),
    GlobalNonLocalMask: lambda q, k, v, s, scale, executor: global_attention(
        q, k, v, s.global_tokens, s.window, scale=scale, executor=executor
    ),
    # window=0 disables the local-window exclusion, so the kernel executes the
    # pure global pattern exactly — self-edges on the global rows included
    GlobalMask: lambda q, k, v, s, scale, executor: global_attention(
        q, k, v, s.global_tokens, 0, scale=scale, executor=executor
    ),
}


#: Spec types the planner may execute implicitly with numerics identical to
#: the spec's own edge set.  GlobalMask dispatches to the global kernel with
#: ``window=0`` (no exclusion), which keeps the self-attention edges of the
#: global rows, so it is exactly plannable alongside the non-local variant.
PLANNABLE_SPECS = (LocalMask, Dilated1DMask, Dilated2DMask, GlobalNonLocalMask, GlobalMask)


def _kernel_runner(spec: MaskSpec):
    runner = SPECIALISED_KERNELS.get(type(spec))
    if runner is not None:
        return runner
    for spec_type, candidate in SPECIALISED_KERNELS.items():
        if isinstance(spec, spec_type):
            return candidate
    raise TypeError(f"no specialised kernel for {type(spec).__name__}")


def has_specialised_kernel(spec: MaskSpec) -> bool:
    """Whether the planner may run ``spec`` through an implicit ordered kernel."""
    return isinstance(spec, PLANNABLE_SPECS)


def spec_kernel_name(spec: MaskSpec) -> str:
    """Name of the implicit kernel that executes ``spec`` (its ``kernel_hint``)."""
    _kernel_runner(spec)  # raises TypeError for specs without a kernel
    return spec.kernel_hint


def run_spec_kernel(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    spec: MaskSpec,
    *,
    scale: Optional[float] = None,
    executor: str = "vectorized",
) -> AttentionResult:
    """Execute ``spec`` with its specialised implicit kernel."""
    return _kernel_runner(spec)(q, k, v, spec, scale, executor)


@dataclass
class GraphAttentionEngine:
    """Dispatches attention computations to the most appropriate kernel.

    Auto dispatch runs a :class:`UnionMask` as its stencil components
    (local, dilated 1-D or 2-D), each on its own kernel unless an earlier
    kept stencil overlaps it, plus every other edge as one CSR remainder,
    and folds the partial results (the paper's "Loc + Glo (+ CSR)" strategy
    of Section V-F).

    Parameters
    ----------
    executor:
        ``"vectorized"`` (default) or ``"streamed"`` — forwarded to the graph
        kernels.
    scale:
        Attention scale; ``None`` means ``1/sqrt(d_k)``.
    """

    executor: str = "vectorized"
    scale: Optional[float] = None
    history: List[AttentionResult] = field(default_factory=list, repr=False)
    #: observability recorder; the shared no-op recorder unless one is injected
    obs: Observability = field(default=NULL_OBS, repr=False)

    # ------------------------------------------------------------------ #
    def run(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        mask: MaskInput = None,
        *,
        algorithm: str = "auto",
    ) -> AttentionResult:
        """Compute attention for ``mask`` using ``algorithm`` (or auto-dispatch).

        ``q``/``k``/``v`` are ``(..., L, d)``: a bare single-head slice or any
        stack of batch/head slices sharing one mask — both run through the
        same plan-compile-and-execute path.
        """
        require(algorithm in ALGORITHMS, f"unknown algorithm {algorithm!r}")
        started = time.perf_counter() if self.obs.enabled else 0.0
        if algorithm == "auto":
            # one-shot dispatch: the plan is executed and discarded, so skip
            # deriving a cache key (content-hashing an explicit mask is the
            # only per-call cost plans would add over the old direct dispatch)
            result = self.plan(mask, q.shape[-2], compute_key=False).execute(q, k, v)
        else:
            result = self._run_named(q, k, v, mask, algorithm)
        self.history.append(result)
        if self.obs.enabled:
            self.obs.engine_dispatches.labels(kind=algorithm).inc()
            self.obs.kernel_seconds.labels(plan=algorithm, phase="engine").observe(
                time.perf_counter() - started
            )
        return result

    def plan(
        self,
        mask: MaskInput,
        length: int,
        *,
        device=None,
        head_dim: Optional[int] = None,
        batch: int = 1,
        mode: str = "full",
        compute_key: bool = True,
    ):
        """Compile ``mask`` at ``length`` into an immutable execution plan.

        The plan pins the kernel choice and precomputes a union's CSR
        remainder, so it can be cached and re-executed for many Q/K/V
        batches without repeating the dispatch or mask-materialisation work
        (see :mod:`repro.serve`).  ``device`` (a
        :class:`~repro.perfmodel.devices.DeviceSpec`) enables the predicted
        runtime attached to the plan, with ``batch`` slices (``B·H``) scaling
        the estimate; ``compute_key=False`` skips cache-key derivation for
        plans that will never be cached.  ``mode="decode"`` compiles an
        incremental-decode plan instead (see :mod:`repro.serve.decode`).
        """
        from repro.serve.plan import compile_plan

        extra = {} if compute_key else {"key": None}
        return compile_plan(
            mask,
            length,
            executor=self.executor,
            scale=self.scale,
            device=device,
            head_dim=head_dim,
            batch=batch,
            mode=mode,
            **extra,
        )

    # ------------------------------------------------------------------ #
    # Incremental autoregressive decoding
    # ------------------------------------------------------------------ #
    def start_decode(
        self, mask: MaskInput, horizon: int, *, retain_outputs: bool = False
    ):
        """Open a :class:`~repro.serve.decode.DecodeSession` for ``mask``.

        The session pages its KV cache through a block pool of its own,
        sized to ``horizon``, and compiles a decode-mode plan with this
        engine's execution knobs; feed it a prompt via
        ``session.prefill`` and new tokens via :meth:`decode_step`.
        ``horizon`` is the pattern length mask rows are evaluated at (the
        maximum number of tokens the session may hold).
        """
        from repro.serve.decode import DecodeSession

        plan = self.plan(mask, horizon, mode="decode", compute_key=False)
        return DecodeSession(plan, retain_outputs=retain_outputs)

    def decode_step(self, session, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Append one token to ``session`` and return its attention row.

        Costs O(edges of the new token's mask row · d) — the work-optimality
        argument of Section IV-B applied per decode step.  The result is
        recorded in this engine's history like any other kernel call.
        """
        result = session.step(q, k, v)
        self.history.append(result)
        return result

    def op_counts(self) -> Dict[str, int]:
        """Aggregate op counts across every call made through this engine."""
        totals = {counter.name: 0 for counter in dataclasses.fields(OpCounts)}
        for result in self.history:
            for name in totals:
                totals[name] += getattr(result.ops, name)
        return totals

    # ------------------------------------------------------------------ #
    def _run_named(self, q, k, v, mask: MaskInput, algorithm: str) -> AttentionResult:
        length = q.shape[-2]
        if algorithm == "sdp":
            return sdp_attention(q, k, v, mask, scale=self.scale)
        if algorithm == "flash":
            require(mask is None, "the FlashAttention baseline is dense; pass mask=None")
            return flash_attention(q, k, v, scale=self.scale)
        if algorithm in ("coo", "csr"):
            require(mask is not None, f"{algorithm} kernel requires an explicit mask")
            kernel = coo_attention if algorithm == "coo" else csr_attention
            return kernel(
                q,
                k,
                v,
                materialize_explicit(mask, length, fmt=algorithm),
                scale=self.scale,
                executor=self.executor,
            )
        # implicit kernels: the mask must be (convertible to) the right spec type
        require(isinstance(mask, MaskSpec), f"{algorithm} kernel requires a MaskSpec input")
        return run_spec_kernel(q, k, v, mask, scale=self.scale, executor=self.executor)
