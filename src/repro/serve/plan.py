"""Execution-plan compiler: mask + length + device → immutable plan.

Dispatching one :class:`~repro.core.engine.GraphAttentionEngine` call involves
real work that has nothing to do with the Q/K/V at hand: inspecting the mask,
choosing kernels and — for unions — splitting the edges between kernels.  For
a serving workload that sees the same mask shapes over and over, that work
should happen **once**.

:func:`compile_plan` performs it ahead of time and freezes the outcome into an
:class:`ExecutionPlan`: an immutable list of :class:`PlanStep`\\ s (each either
an implicit-kernel invocation of a spec or a CSR call on a precomputed
matrix), a canonical cache key derived from the mask parameters, and — when a
:class:`~repro.perfmodel.devices.DeviceSpec` is supplied — the predicted
runtime from :mod:`repro.perfmodel.runtime`.  Executing the plan is then a
pure kernel sequence: ``plan.execute(q, k, v)`` for as many request tensors as
desired.

A :class:`~repro.masks.composite.UnionMask` compiles in two parts:

* each dense-tile stencil component (:class:`~repro.masks.windowed.LocalMask`,
  :class:`~repro.masks.windowed.Dilated1DMask`,
  :class:`~repro.masks.dilated2d.Dilated2DMask`) keeps its own kernel unless
  an earlier kept stencil overlaps it;
* every other edge — global, random and explicit components, and stencils
  that overlap a kept one — goes into **one** CSR remainder that the compiled
  row kernel runs.  Each component's edges are tested against the kept
  stencils by offset, so the union itself is never materialised.

The steps are edge-disjoint, and execution folds each one into a single
float64 ``(output, row_max, row_sum)`` state, cast to the query dtype once.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.engine import (
    MaskInput,
    has_specialised_kernel,
    run_spec_kernel,
    spec_kernel_name,
)
from repro.core.explicit_kernels import csr_attention, materialize_explicit
from repro.core.flash import flash_attention
from repro.core.online_softmax import rescale_factor
from repro.core.result import AttentionResult, OpCounts
from repro.masks.base import MaskSpec, TranslationInvariantMask, as_mask_spec
from repro.masks.composite import DifferenceMask, IntersectionMask, UnionMask
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.explicit import ExplicitMask
from repro.masks.rows import RowProgram, compile_row_program
from repro.masks.structured import DenseMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.perfmodel.devices import DeviceSpec
from repro.perfmodel.runtime import RuntimeEstimate, RuntimeModel, combine_estimates
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require

#: Head dimension assumed by runtime prediction when the caller gives none.
DEFAULT_HEAD_DIM = 64

#: Union components that keep their own (dense-tile) kernel in a union plan;
#: every other component's edges join the plan's one CSR remainder.
_STENCIL_SPECS = (LocalMask, Dilated1DMask, Dilated2DMask)


# --------------------------------------------------------------------------- #
# Canonical cache keys
# --------------------------------------------------------------------------- #
def _csr_fingerprint(csr: CSRMatrix) -> str:
    digest = hashlib.sha1()
    digest.update(repr(csr.shape).encode())
    digest.update(np.ascontiguousarray(csr.indptr).tobytes())
    digest.update(np.ascontiguousarray(csr.indices).tobytes())
    return digest.hexdigest()[:16]


def mask_key(mask: MaskInput, length: int) -> str:
    """Canonical string identifying a mask pattern (structural, not identity).

    Pattern-defined specs key on their type and parameters, so two
    independently constructed ``LocalMask(window=64)`` objects share a key;
    materialised masks (dense arrays, COO/CSR containers,
    :class:`~repro.masks.explicit.ExplicitMask`) key on a content hash of
    their sparsity structure.
    """
    if mask is None:
        return "dense"
    if isinstance(mask, (np.ndarray, COOMatrix, CSRMatrix)):
        mask = as_mask_spec(mask)
    if isinstance(mask, UnionMask):
        inner = ",".join(mask_key(c, length) for c in mask.components)
        return f"union[{inner}]"
    if isinstance(mask, IntersectionMask):
        inner = ",".join(mask_key(c, length) for c in mask.components)
        return f"intersection[{inner}]"
    if isinstance(mask, DifferenceMask):
        return f"difference[{mask_key(mask.left, length)}-{mask_key(mask.right, length)}]"
    if isinstance(mask, ExplicitMask):
        return f"explicit:{_csr_fingerprint(mask.matrix)}"
    if dataclasses.is_dataclass(mask):
        params = ",".join(
            f"{f.name}={getattr(mask, f.name)!r}" for f in dataclasses.fields(mask)
        )
        return f"{type(mask).__name__}({params})"
    return f"{type(mask).__name__}({mask.describe()})"


def plan_cache_key(
    mask: MaskInput,
    length: int,
    *,
    executor: str = "vectorized",
    scale: Optional[float] = None,
    device: Optional[DeviceSpec] = None,
    head_dim: Optional[int] = None,
    batch: int = 1,
    mode: str = "full",
) -> str:
    """Canonical key under which a compiled plan is cached.

    Everything that influences compilation is part of the key: the mask's
    structural identity, the context length, the execution knobs, the
    device/head-dim/batch the attached runtime prediction targets, and the
    compilation ``mode`` (``"full"`` one-shot vs ``"decode"`` per-row).
    """
    device_name = device.name if device is not None else "-"
    return (
        f"L={length}|mode={mode}|exec={executor}|scale={scale}"
        f"|dev={device_name}|hd={head_dim}|b={batch}"
        f"|mask={mask_key(mask, length)}"
    )


# --------------------------------------------------------------------------- #
# Plan representation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanStep:
    """One kernel invocation of a compiled plan.

    ``kernel`` names the kernel (``flash``, ``local``, ``dilated1d``,
    ``dilated2d``, ``global`` or ``csr``); implicit kernels carry the ``spec``
    they execute, the CSR kernel carries its precomputed ``csr`` operand
    (for a union, the remainder of every edge no kept stencil covers).
    """

    kernel: str
    spec: Optional[MaskSpec] = None
    csr: Optional[CSRMatrix] = None
    nnz: int = 0

    def execute(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        *,
        scale: Optional[float],
        executor: str,
    ) -> AttentionResult:
        if self.kernel == "flash":
            return flash_attention(q, k, v, scale=scale)
        if self.kernel == "csr":
            return csr_attention(q, k, v, self.csr, scale=scale, executor=executor)
        return run_spec_kernel(q, k, v, self.spec, scale=scale, executor=executor)


@dataclass(frozen=True)
class ExecutionPlan:
    """Immutable compiled dispatch decision for one mask shape.

    ``algorithm`` is the label the executed
    :class:`~repro.core.result.AttentionResult` will carry (``"composed"``
    for multi-kernel plans, the kernel name otherwise), matching what
    ``GraphAttentionEngine.run`` reports.  ``predicted`` is the
    device-model runtime estimate, present when the plan was compiled for a
    device.  ``key`` is ``None`` for ad-hoc plans compiled outside any cache
    (the engine's one-shot dispatch path skips key derivation entirely).

    ``mode`` distinguishes one-shot plans (``"full"``, executed via
    :meth:`execute`) from incremental-decode plans (``"decode"``), which carry
    a precompiled :class:`~repro.masks.rows.RowProgram` in ``decode`` (the
    per-row stencil offsets / token sets) and are consumed one row at a time
    by :class:`~repro.serve.decode.DecodeSession`; for decode plans ``nnz``
    counts the causal edges a full decode loop over the horizon processes.
    """

    key: Optional[str]
    length: int
    algorithm: str
    steps: Tuple[PlanStep, ...]
    executor: str
    scale: Optional[float]
    nnz: int
    device: Optional[str] = None
    predicted: Optional[RuntimeEstimate] = None
    batch: int = 1
    mode: str = "full"
    decode: Optional[RowProgram] = None

    @property
    def num_kernel_calls(self) -> int:
        return len(self.steps)

    @property
    def kernels(self) -> Tuple[str, ...]:
        """Kernel names in execution order."""
        return tuple(step.kernel for step in self.steps)

    @property
    def sparsity_factor(self) -> float:
        total = float(self.length) * float(self.length)
        return self.nnz / total if total else 0.0

    @property
    def predicted_seconds(self) -> Optional[float]:
        return self.predicted.seconds if self.predicted is not None else None

    def execute(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
        """Run the compiled kernel sequence on one Q/K/V stack.

        ``q``/``k``/``v`` are ``(..., L, d)``: a bare single-head slice or any
        stack of batch/head slices — every kernel step executes the whole
        stack in one vectorized pass, so one compiled plan amortises over the
        full ``(B, H)`` batch.

        A multi-step plan folds each step's partial result into one float64
        ``(output, row_max, row_sum)`` state and casts it to ``q``'s dtype
        once.  Every kernel accumulates in float64 and casts its output to
        the query dtype, so the steps run on float64 queries: each partial
        reaches the fold unrounded.
        """
        require(
            self.mode == "full",
            "decode plans execute per-row through repro.serve.decode.DecodeSession",
        )
        require(
            q.shape[-2] == self.length,
            f"plan compiled for L={self.length}, got q with L={q.shape[-2]}",
        )
        if len(self.steps) == 1:
            return self.steps[0].execute(q, k, v, scale=self.scale, executor=self.executor)
        q64 = np.asarray(q, dtype=np.float64)
        output = row_max = row_sum = None
        ops = OpCounts()
        components = []
        for step in self.steps:
            part = step.execute(q64, k, v, scale=self.scale, executor=self.executor)
            ops = ops + part.ops
            components.append(part.algorithm)
            if output is None:
                output, row_max, row_sum = part.output, part.row_max, part.row_sum
                continue
            # both partials are normalised: weight each by its share of the
            # combined softmax normaliser (0 for a row neither reaches)
            new_max = np.maximum(row_max, part.row_max)
            kept = rescale_factor(row_max, new_max) * row_sum
            added = rescale_factor(part.row_max, new_max) * part.row_sum
            row_max, row_sum = new_max, kept + added
            safe = np.where(row_sum == 0, 1.0, row_sum)
            output *= (kept / safe)[..., None]
            np.multiply(part.output, (added / safe)[..., None], out=part.output)
            output += part.output
        return AttentionResult(
            output=output.astype(q.dtype, copy=False),
            row_max=row_max,
            row_sum=row_sum,
            ops=ops,
            algorithm=self.algorithm,
            meta={"components": components},
        )

    def describe(self) -> str:
        if self.mode == "decode":
            program = type(self.decode).__name__ if self.decode is not None else "-"
            return (
                f"ExecutionPlan(L={self.length}, decode: {program}, "
                f"causal nnz={self.nnz})"
            )
        kernels = " + ".join(self.kernels)
        pred = f", predicted {self.predicted.seconds:.3e}s on {self.device}" if self.predicted else ""
        return f"ExecutionPlan(L={self.length}, {self.algorithm}: {kernels}, nnz={self.nnz}{pred})"


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
def _stencil_edges(stencils: List[MaskSpec], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Whether each in-range edge ``(rows[e], cols[e])`` belongs to one of ``stencils``.

    A translation-invariant stencil holds an edge iff its offset ``j - i`` is
    one of the stencil's offsets; a 2-D dilated one iff both ends share a
    block and sit on its dilation grid.  O(edges), with no stencil edge
    materialised.
    """
    covered = np.zeros(rows.size, dtype=bool)
    for spec in stencils:
        if isinstance(spec, TranslationInvariantMask):
            covered |= np.isin(cols - rows, spec.offsets())
        else:
            block, stride = spec.block_size, spec.stride
            covered |= (
                (rows // block == cols // block)
                & (rows % block % stride == 0)
                & (cols % block % stride == 0)
            )
    return covered


def _union_steps(mask: UnionMask, length: int) -> List[PlanStep]:
    """A union's stencil kernels plus one CSR remainder, edge-disjoint.

    A stencil component keeps its kernel unless an earlier kept stencil
    overlaps it.  Every other component's edges, minus those of the kept
    stencils, go into one deduplicated CSR remainder.
    """
    kept: List[MaskSpec] = []
    others: List[CSRMatrix] = []
    for component in mask.components:
        stencil = isinstance(component, _STENCIL_SPECS)
        if stencil and not kept:
            kept.append(component)
            continue
        csr = component.to_csr(length)
        if stencil and not _stencil_edges(kept, csr.expanded_rows(), csr.indices).any():
            kept.append(component)
        else:
            others.append(csr)

    steps = [
        PlanStep(kernel=spec_kernel_name(spec), spec=spec, nnz=spec.nnz(length))
        for spec in kept
    ]
    rows, cols = [], []
    for csr in others:
        csr_rows = csr.expanded_rows()
        outside = ~_stencil_edges(kept, csr_rows, csr.indices)
        rows.append(csr_rows[outside])
        cols.append(csr.indices[outside])
    if others:
        remainder = COOMatrix.from_edges(
            (length, length), np.concatenate(rows), np.concatenate(cols)
        ).to_csr()
        if remainder.nnz:
            steps.append(PlanStep(kernel="csr", csr=remainder, nnz=remainder.nnz))
    return steps


def _predict(
    steps: Tuple[PlanStep, ...],
    algorithm: str,
    length: int,
    device: Optional[DeviceSpec],
    head_dim: Optional[int],
    batch: int = 1,
) -> Optional[RuntimeEstimate]:
    if device is None:
        return None
    model = RuntimeModel(device)
    head_dim = head_dim or DEFAULT_HEAD_DIM
    estimates = []
    for step in steps:
        degrees = step.csr.row_degrees() if step.csr is not None else None
        if step.kernel == "flash":
            estimates.append(model.estimate("flash", length, head_dim, batch=batch))
        else:
            # the step's true sparsity drives the load-imbalance model when no
            # explicit degree vector exists (notably the global kernel's skew)
            sparsity = min(1.0, step.nnz / (float(length) * float(length)))
            estimates.append(
                model.estimate(
                    step.kernel,
                    length,
                    head_dim,
                    sparsity_factor=sparsity,
                    nnz=step.nnz,
                    degrees=degrees,
                    batch=batch,
                )
            )
    return combine_estimates(estimates, algorithm=algorithm)


#: Sentinel: derive the cache key during compilation (the default).
_DERIVE_KEY = object()


def compile_plan(
    mask: MaskInput,
    length: int,
    *,
    executor: str = "vectorized",
    scale: Optional[float] = None,
    device: Optional[DeviceSpec] = None,
    head_dim: Optional[int] = None,
    batch: int = 1,
    mode: str = "full",
    key=_DERIVE_KEY,
) -> ExecutionPlan:
    """Compile a mask at a context length into an :class:`ExecutionPlan`.

    A :class:`~repro.masks.composite.UnionMask` runs as its stencil kernels
    plus one CSR remainder (see the module docstring); a mask with a
    specialised kernel runs on it; every other mask runs as one CSR call,
    and ``mask=None`` as dense FlashAttention.  ``GraphAttentionEngine.run``
    dispatches through this compiler, so plan execution is numerically
    identical to direct engine dispatch.

    ``mode="decode"`` compiles for incremental autoregressive decoding
    instead: no kernel steps are materialised (no CSR remainders, no set
    algebra); the plan carries a precompiled
    :class:`~repro.masks.rows.RowProgram` whose per-row stencil offsets /
    token sets let a :class:`~repro.serve.decode.DecodeSession` extract each
    new token's neighbour set in O(row edges).  ``length`` then plays the
    role of the decode *horizon* (the pattern length rows are evaluated at
    and the upper bound on generated tokens).

    ``key`` customises cache-key handling: leave the default to derive the
    canonical key, pass an already-computed key string to avoid hashing the
    mask twice (the server does this), or pass ``None`` for a one-shot plan
    that skips key derivation entirely.

    ``batch`` is the number of ``(L, d)`` slices (``B·H``) one execution is
    expected to carry; it scales the attached runtime prediction and is part
    of the cache key.  Execution itself accepts any batch shape regardless.
    """
    require(length > 0, "context length must be positive")
    require(batch >= 1, "batch must be >= 1")
    require(mode in ("full", "decode"), f"unknown plan mode {mode!r}")
    # coerce materialised inputs once, before keying: mask_key would coerce an
    # ndarray/COO/CSR itself, and the compilation below needs the spec anyway
    if isinstance(mask, (np.ndarray, COOMatrix, CSRMatrix)):
        mask = as_mask_spec(mask)
    if key is _DERIVE_KEY:
        key = plan_cache_key(
            mask,
            length,
            executor=executor,
            scale=scale,
            device=device,
            head_dim=head_dim,
            batch=batch,
            mode=mode,
        )

    if mode == "decode":
        program = compile_row_program(DenseMask() if mask is None else mask, length)
        return ExecutionPlan(
            key=key,
            length=length,
            algorithm="decode",
            steps=(),
            executor=executor,
            scale=scale,
            nnz=program.causal_nnz(),
            device=device.name if device is not None else None,
            predicted=None,
            batch=batch,
            mode="decode",
            decode=program,
        )

    if mask is None:
        steps: Tuple[PlanStep, ...] = (
            PlanStep(kernel="flash", nnz=length * length),
        )
        plan_algorithm = "flash"
    elif isinstance(mask, UnionMask):
        steps = tuple(_union_steps(mask, length))
        if len(steps) > 1:
            plan_algorithm = "composed"
        elif steps:  # one kernel covers the whole union
            plan_algorithm = steps[0].kernel
        else:  # every component was empty — degrade to one CSR call
            union_csr = materialize_explicit(mask, length, "csr")
            steps = (PlanStep(kernel="csr", csr=union_csr, nnz=union_csr.nnz),)
            plan_algorithm = "csr"
    elif has_specialised_kernel(mask):
        steps = (
            PlanStep(kernel=spec_kernel_name(mask), spec=mask, nnz=mask.nnz(length)),
        )
        plan_algorithm = spec_kernel_name(mask)
    else:
        csr = materialize_explicit(mask, length, "csr")
        steps = (PlanStep(kernel="csr", csr=csr, nnz=csr.nnz),)
        plan_algorithm = "csr"

    return ExecutionPlan(
        key=key,
        length=length,
        algorithm=plan_algorithm,
        steps=steps,
        executor=executor,
        scale=scale,
        nnz=sum(step.nnz for step in steps),
        device=device.name if device is not None else None,
        predicted=_predict(steps, plan_algorithm, length, device, head_dim, batch),
        batch=batch,
    )
