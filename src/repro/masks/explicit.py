"""Wrapper turning a concrete (already materialised) mask into a :class:`MaskSpec`.

Users of the explicit COO/CSR kernels often already hold a mask as a dense
array, a scipy sparse matrix or a repro sparse container.  ``ExplicitMask``
adapts those to the spec interface so they can flow through the same engine,
mask algebra and graph analysis paths as the pattern-defined masks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.masks.base import MaskSpec
from repro.sparse.conversions import coerce_mask
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import require


class ExplicitMask(MaskSpec):
    """A mask spec backed by a concrete :class:`CSRMatrix` for a fixed length."""

    kernel_hint = None

    def __init__(self, matrix: CSRMatrix, name: str = "explicit"):
        require(isinstance(matrix, CSRMatrix), "ExplicitMask wraps a CSRMatrix")
        require(matrix.shape[0] == matrix.shape[1], "attention masks must be square")
        self._matrix = matrix
        self._name = name

    # ------------------------------------------------------------------ #
    @classmethod
    def from_any(cls, mask, *, name: str = "explicit") -> "ExplicitMask":
        """Build from a dense array, scipy matrix, COOMatrix or CSRMatrix."""
        return cls(coerce_mask(mask, fmt="csr"), name=name)

    @property
    def length(self) -> int:
        """The fixed context length this mask was materialised for."""
        return self._matrix.shape[0]

    @property
    def matrix(self) -> CSRMatrix:
        return self._matrix

    # ------------------------------------------------------------------ #
    def validate_length(self, length: int) -> None:
        super().validate_length(length)
        require(
            length == self.length,
            f"explicit mask was built for L={self.length}, got L={length}",
        )

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        return self._matrix.row_neighbors(i)

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        return self._matrix.row_degrees()

    def nnz(self, length: Optional[int] = None) -> int:
        if length is not None:
            self.validate_length(length)
        return self._matrix.nnz

    def sparsity_factor(self, length: Optional[int] = None) -> float:
        if length is not None:
            self.validate_length(length)
        return self._matrix.sparsity_factor

    def to_csr(self, length: int, *, dtype=np.float32) -> CSRMatrix:
        self.validate_length(length)
        return self._matrix

    def to_coo(self, length: int, *, dtype=np.float32) -> COOMatrix:
        self.validate_length(length)
        return self._matrix.to_coo()

    def to_dense(self, length: int, *, dtype=np.float32) -> np.ndarray:
        self.validate_length(length)
        return self._matrix.to_dense().astype(dtype)

    def describe(self) -> str:
        return f"{self._name}: L={self.length}, nnz={self._matrix.nnz}"
