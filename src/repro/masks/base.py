"""Mask specification base classes.

A :class:`MaskSpec` describes an attention mask *pattern* independent of a
particular context length ``L``.  It plays two roles, mirroring the paper's two
families of kernels:

* **Explicit masks** — any spec can be materialised into a dense array, a
  :class:`~repro.sparse.coo.COOMatrix` or a :class:`~repro.sparse.csr.CSRMatrix`
  for the COO/CSR graph kernels (and for the dense SDP baseline).
* **Implicit masks** — specs whose ``kernel_hint`` names one of the paper's
  ordered-sparsity kernels (``local``, ``dilated1d``, ``dilated2d``,
  ``global``) expose ``neighbors(i, L)``: the ``Get_Neighbors`` function of
  Algorithm 1, computing a row's neighbour set on the fly from the pattern
  parameters with no stored mask.

Mask algebra (``|`` for union, ``-`` for difference, ``&`` for intersection)
builds the composite Longformer / BigBird patterns of Fig. 2.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix, concatenated_ranges
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.validation import require


class MaskSpec(abc.ABC):
    """Abstract attention-mask pattern, parameterised by context length later."""

    #: Name of the implicit graph kernel able to execute this pattern without
    #: materialising the mask, or ``None`` if only explicit kernels apply.
    kernel_hint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Required interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def neighbors(self, i: int, length: int) -> np.ndarray:
        """Sorted column indices attended by query row ``i`` (Get_Neighbors)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable description used in benchmark reports."""

    # ------------------------------------------------------------------ #
    # Derived interface (subclasses override when a cheaper form exists)
    # ------------------------------------------------------------------ #
    def row(self, i: int, length: int) -> np.ndarray:
        """Row ``i`` of the materialised mask at context length ``length``.

        Identical to ``to_csr(length).row_neighbors(i)`` for every spec, but
        computed from the pattern parameters in O(row edges) without
        materialising the full graph — the extractor the incremental decode
        path (:mod:`repro.serve.decode`) calls once per generated token, so a
        decode step costs O(edges of its own row), not O(all edges).
        """
        return self.neighbors(i, length)

    def causal_row(self, i: int, length: int) -> np.ndarray:
        """Neighbours of row ``i`` restricted to already-generated keys (``j <= i``).

        Autoregressive decoding at position ``i`` only has keys ``0..i`` in
        its KV cache; this is :meth:`row` clipped to that prefix.
        """
        cols = self.row(i, length)
        return cols[cols <= i]

    def validate_length(self, length: int) -> None:
        require(length > 0, "context length must be positive")

    def row_degrees(self, length: int) -> np.ndarray:
        """Number of attended keys per query row."""
        self.validate_length(length)
        return np.array([self.neighbors(i, length).size for i in range(length)], dtype=np.int64)

    def nnz(self, length: int) -> int:
        """Number of mask non-zeros (graph edges) at context length ``length``."""
        return int(self.row_degrees(length).sum())

    def sparsity_factor(self, length: int) -> float:
        """``Sf = NNZ / L^2`` — Eq. (2) of the paper."""
        self.validate_length(length)
        return self.nnz(length) / float(length * length)

    def neighbor_lists(self, length: int) -> List[np.ndarray]:
        """Neighbour arrays for every row (used to build CSR explicitly)."""
        self.validate_length(length)
        return [self.neighbors(i, length) for i in range(length)]

    def to_csr(self, length: int, *, dtype=np.float32) -> CSRMatrix:
        """Materialise as a CSR mask."""
        return CSRMatrix.from_row_lists(
            (length, length), self.neighbor_lists(length), dtype=dtype
        )

    def to_coo(self, length: int, *, dtype=np.float32) -> COOMatrix:
        """Materialise as a COO mask."""
        return self.to_csr(length, dtype=dtype).to_coo()

    def to_dense(self, length: int, *, dtype=np.float32) -> np.ndarray:
        """Materialise as a dense 0/1 array (small ``L`` only)."""
        return self.to_csr(length, dtype=dtype).to_dense()

    def contains(self, i: int, j: int, length: int) -> bool:
        """Whether query ``i`` attends to key ``j`` under this pattern."""
        return bool(np.isin(j, self.neighbors(i, length)))

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __or__(self, other: "MaskSpec") -> "MaskSpec":
        from repro.masks.composite import UnionMask

        return UnionMask([self, other])

    def __and__(self, other: "MaskSpec") -> "MaskSpec":
        from repro.masks.composite import IntersectionMask

        return IntersectionMask([self, other])

    def __sub__(self, other: "MaskSpec") -> "MaskSpec":
        from repro.masks.composite import DifferenceMask

        return DifferenceMask(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()})"


class TranslationInvariantMask(MaskSpec):
    """Mask whose row-``i`` neighbours are ``i + offsets`` clipped to range.

    Local and 1-D dilated windows fall in this class; the fixed offset vector
    is what the vectorised kernels exploit.
    """

    @abc.abstractmethod
    def offsets(self) -> np.ndarray:
        """Sorted relative offsets ``j - i`` attended by every row (pre-clipping)."""

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        cols = i + self.offsets()
        cols = cols[(cols >= 0) & (cols < length)]
        return cols.astype(INDEX_DTYPE)

    def _row_slices(self, length: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The offsets and, per row ``i``, the ``[first, stop)`` slice of them in range.

        The offsets are sorted, so ``i + offsets[first:stop]`` are exactly the
        columns in ``[0, length)``: O(L) memory, not an ``(L, offsets)`` matrix.
        """
        offsets = self.offsets()
        rows = np.arange(length, dtype=np.int64)
        return offsets, np.searchsorted(offsets, -rows), np.searchsorted(offsets, length - rows)

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        _, first, stop = self._row_slices(length)
        return stop - first

    def to_csr(self, length: int, *, dtype=np.float32) -> CSRMatrix:
        """Every row's in-range slice of the offsets, laid end to end (O(edges))."""
        self.validate_length(length)
        offsets, first, stop = self._row_slices(length)
        counts = stop - first
        cols = offsets[concatenated_ranges(first, counts)]
        cols += np.repeat(np.arange(length, dtype=np.int64), counts)
        return CSRMatrix.from_row_counts((length, length), counts, cols, dtype=dtype)

    def nnz(self, length: int) -> int:
        """Exact edge count: each offset ``d`` contributes ``L - |d|`` pairs."""
        self.validate_length(length)
        offsets = np.abs(self.offsets().astype(np.int64))
        contributions = np.maximum(length - offsets, 0)
        return int(contributions.sum())


def as_mask_spec(mask) -> MaskSpec:
    """Coerce dense arrays / sparse containers into an explicit mask spec."""
    from repro.masks.explicit import ExplicitMask

    if isinstance(mask, MaskSpec):
        return mask
    return ExplicitMask.from_any(mask)


def merge_neighbor_sets(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Sorted union of several neighbour index arrays."""
    arrays = [np.asarray(a, dtype=INDEX_DTYPE) for a in arrays if np.asarray(a).size]
    if not arrays:
        return np.empty(0, dtype=INDEX_DTYPE)
    return np.unique(np.concatenate(arrays)).astype(INDEX_DTYPE)
