"""Composite masks: union, intersection and difference of mask specs.

The popular attention patterns of Fig. 2 are compositions — Longformer is
local ∪ global, BigBird is local ∪ global ∪ random.  Composites keep their
component structure so the engine can either (a) materialise the union for a
single CSR kernel call, or (b) execute each component with its specialised
implicit kernel and merge the partial results with online-softmax statistics
(Section V-F compares exactly these two strategies).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.masks.base import MaskSpec, merge_neighbor_sets
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.validation import require


class UnionMask(MaskSpec):
    """Logical OR of several mask specs."""

    kernel_hint = None

    def __init__(self, components: Sequence[MaskSpec], name: str = "union"):
        comps: List[MaskSpec] = []
        for comp in components:
            # flatten nested unions so Longformer | random stays a flat 3-way union
            if isinstance(comp, UnionMask):
                comps.extend(comp.components)
            else:
                comps.append(comp)
        require(len(comps) >= 1, "union needs at least one component")
        self.components = tuple(comps)
        self._name = name

    def neighbors(self, i: int, length: int) -> np.ndarray:
        return merge_neighbor_sets(c.neighbors(i, length) for c in self.components)

    def to_csr(self, length: int, *, dtype=np.float32) -> CSRMatrix:
        """Every component's edges canonicalised by one sort.

        Where components share a coordinate the earliest one's value is kept,
        as in a chain of pairwise :meth:`CSRMatrix.union` calls.
        """
        first, *rest = parts = [c.to_csr(length, dtype=dtype) for c in self.components]
        if not rest:
            return first
        return COOMatrix(
            shape=first.shape,
            rows=np.concatenate([p.expanded_rows() for p in parts]),
            cols=np.concatenate([p.indices for p in parts]),
            values=np.concatenate([np.asarray(p.values, dtype=np.float64) for p in parts]).astype(first.dtype),
        ).to_csr()

    def nnz(self, length: int) -> int:
        if len(self.components) == 1:
            return self.components[0].nnz(length)
        return self.to_csr(length).nnz

    def row_degrees(self, length: int) -> np.ndarray:
        if len(self.components) == 1:
            return self.components[0].row_degrees(length)
        return self.to_csr(length).row_degrees()

    def upper_bound_nnz(self, length: int) -> int:
        """Sum of component edge counts — the work a sequential multi-kernel run does."""
        return int(sum(c.nnz(length) for c in self.components))

    def describe(self) -> str:
        inner = " | ".join(c.describe() for c in self.components)
        return f"{self._name}({inner})"


class IntersectionMask(MaskSpec):
    """Logical AND of several mask specs."""

    kernel_hint = None

    def __init__(self, components: Sequence[MaskSpec]):
        require(len(components) >= 1, "intersection needs at least one component")
        self.components = tuple(components)

    def neighbors(self, i: int, length: int) -> np.ndarray:
        result = self.components[0].neighbors(i, length)
        for comp in self.components[1:]:
            result = np.intersect1d(result, comp.neighbors(i, length), assume_unique=False)
        return result.astype(INDEX_DTYPE)

    def describe(self) -> str:
        inner = " & ".join(c.describe() for c in self.components)
        return f"intersection({inner})"


class DifferenceMask(MaskSpec):
    """Edges of ``left`` that are not edges of ``right`` (set difference)."""

    kernel_hint = None

    def __init__(self, left: MaskSpec, right: MaskSpec):
        self.left = left
        self.right = right

    def neighbors(self, i: int, length: int) -> np.ndarray:
        keep = np.setdiff1d(
            self.left.neighbors(i, length), self.right.neighbors(i, length), assume_unique=False
        )
        return keep.astype(INDEX_DTYPE)

    def describe(self) -> str:
        return f"difference({self.left.describe()} - {self.right.describe()})"
