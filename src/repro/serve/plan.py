"""Execution-plan compiler: mask + length + device → immutable plan.

Dispatching one :class:`~repro.core.engine.GraphAttentionEngine` call involves
real work that has nothing to do with the Q/K/V at hand: inspecting the mask,
choosing kernels and — for composed unions — materialising every component as
CSR and running the ``difference``/``union`` set algebra that keeps the
sequential kernels edge-disjoint.  For a serving workload that sees the same
mask shapes over and over, that work should happen **once**.

:func:`compile_plan` performs it ahead of time and freezes the outcome into an
:class:`ExecutionPlan`: an immutable list of :class:`PlanStep`\\ s (each either
an implicit-kernel invocation of a spec or a CSR call on a precomputed
remainder matrix), a canonical cache key derived from the mask parameters, and
— when a :class:`~repro.perfmodel.devices.DeviceSpec` is supplied — the
predicted runtime from :mod:`repro.perfmodel.runtime`.  Executing the plan is
then a pure kernel sequence: ``plan.execute(q, k, v)`` for as many request
tensors as desired.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.compose import disjoint_union_components, merge_results
from repro.core.engine import (
    MaskInput,
    composable_in_plan,
    has_specialised_kernel,
    run_spec_kernel,
    spec_kernel_name,
)
from repro.core.explicit_kernels import csr_attention, materialize_explicit
from repro.core.flash import flash_attention
from repro.core.result import AttentionResult
from repro.masks.base import MaskSpec, as_mask_spec
from repro.masks.composite import DifferenceMask, IntersectionMask, UnionMask
from repro.masks.explicit import ExplicitMask
from repro.masks.rows import RowProgram, compile_row_program
from repro.masks.structured import DenseMask
from repro.perfmodel.devices import DeviceSpec
from repro.perfmodel.runtime import RuntimeEstimate, RuntimeModel, combine_estimates
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require

#: Head dimension assumed by runtime prediction when the caller gives none.
DEFAULT_HEAD_DIM = 64


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
    prefer_composition: bool = True,
    algorithm: str = "auto",
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
        f"L={length}|alg={algorithm}|mode={mode}|exec={executor}|scale={scale}"
        f"|compose={prefer_composition}|dev={device_name}|hd={head_dim}|b={batch}"
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
    (for composed unions this is the already-trimmed remainder).
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
        """
        require(
            self.mode == "full",
            "decode plans execute per-row through repro.serve.decode.DecodeSession",
        )
        require(
            q.shape[-2] == self.length,
            f"plan compiled for L={self.length}, got q with L={q.shape[-2]}",
        )
        results = [
            step.execute(q, k, v, scale=self.scale, executor=self.executor)
            for step in self.steps
        ]
        if self.algorithm == "composed":
            return merge_results(results)
        return results[0]

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
def _composed_steps(mask: UnionMask, length: int) -> List[PlanStep]:
    """Steps executing a union as disjoint sequential kernels (hoisted algebra)."""
    steps: List[PlanStep] = []
    for component, component_csr, remainder in disjoint_union_components(
        mask.components, length
    ):
        if remainder.nnz == component_csr.nnz and has_specialised_kernel(component):
            steps.append(
                PlanStep(
                    kernel=spec_kernel_name(component),
                    spec=component,
                    nnz=component_csr.nnz,
                )
            )
        elif remainder.nnz:
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
    prefer_composition: bool = True,
    algorithm: str = "auto",
    device: Optional[DeviceSpec] = None,
    head_dim: Optional[int] = None,
    batch: int = 1,
    mode: str = "full",
    key=_DERIVE_KEY,
) -> ExecutionPlan:
    """Compile a mask at a context length into an :class:`ExecutionPlan`.

    ``algorithm`` is ``"auto"`` (mirror the engine's dispatch rules) or
    ``"composed"`` (force sequential disjoint execution of a
    :class:`~repro.masks.composite.UnionMask`, even when some components need
    the CSR fallback).  The kernel choice is identical to what
    ``GraphAttentionEngine.run`` performed before plans existed, so plan
    execution is numerically identical to direct engine dispatch.

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
    require(algorithm in ("auto", "composed"), f"cannot compile algorithm {algorithm!r}")
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
            prefer_composition=prefer_composition,
            algorithm=algorithm,
            device=device,
            head_dim=head_dim,
            batch=batch,
            mode=mode,
        )

    if mode == "decode":
        require(algorithm == "auto", "decode plans always dispatch per row (auto)")
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
        require(algorithm == "auto", "composed execution requires a UnionMask")
        steps: Tuple[PlanStep, ...] = (
            PlanStep(kernel="flash", nnz=length * length),
        )
        plan_algorithm = "flash"
    else:
        if algorithm == "composed":
            require(isinstance(mask, UnionMask), "composed execution requires a UnionMask")

        compose = isinstance(mask, UnionMask) and (
            algorithm == "composed"
            or (prefer_composition and all(composable_in_plan(c) for c in mask.components))
        )
        if compose:
            composed = _composed_steps(mask, length)
            if composed:
                steps = tuple(composed)
                plan_algorithm = "composed"
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
