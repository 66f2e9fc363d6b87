"""Additional structured masks: causal, block-diagonal, dense and strided.

These patterns are not benchmarked directly in the paper but appear throughout
the sparse-attention literature the paper builds on (Sparse Transformers,
BigBird's block formulation) and are useful both as test fixtures and as
building blocks for composite masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.masks.base import MaskSpec
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.validation import require


@dataclass(frozen=True, repr=False)
class CausalMask(MaskSpec):
    """Autoregressive mask: query ``i`` attends keys ``j <= i``."""

    kernel_hint = None

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        return np.arange(i + 1, dtype=INDEX_DTYPE)

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        return np.arange(1, length + 1, dtype=np.int64)

    def nnz(self, length: int) -> int:
        self.validate_length(length)
        return length * (length + 1) // 2

    def describe(self) -> str:
        return "causal"


@dataclass(frozen=True, repr=False)
class DenseMask(MaskSpec):
    """The fully dense mask (every pair attends); Sf = 1."""

    kernel_hint = None

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        return np.arange(length, dtype=INDEX_DTYPE)

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        return np.full(length, length, dtype=np.int64)

    def nnz(self, length: int) -> int:
        self.validate_length(length)
        return length * length

    def describe(self) -> str:
        return "dense"


@dataclass(frozen=True, repr=False)
class BlockDiagonalMask(MaskSpec):
    """Tokens attend all tokens in their own contiguous block (BigBird blocks)."""

    block_size: int

    kernel_hint = None

    def __post_init__(self) -> None:
        require(self.block_size >= 1, "block_size must be >= 1")

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        start = (i // self.block_size) * self.block_size
        stop = min(start + self.block_size, length)
        return np.arange(start, stop, dtype=INDEX_DTYPE)

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        rows = np.arange(length, dtype=np.int64)
        start = (rows // self.block_size) * self.block_size
        stop = np.minimum(start + self.block_size, length)
        return stop - start

    def nnz(self, length: int) -> int:
        self.validate_length(length)
        full, rem = divmod(length, self.block_size)
        return full * self.block_size * self.block_size + rem * rem

    def describe(self) -> str:
        return f"block_size={self.block_size}"


@dataclass(frozen=True, repr=False)
class StridedMask(MaskSpec):
    """Sparse Transformer's strided pattern: attend every ``stride``-th previous token.

    Query ``i`` attends keys ``j <= i`` with ``(i - j) % stride == 0``.
    """

    stride: int

    kernel_hint = None

    def __post_init__(self) -> None:
        require(self.stride >= 1, "stride must be >= 1")

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        cols = np.arange(i, -1, -self.stride, dtype=np.int64)[::-1]
        return cols.astype(INDEX_DTYPE)

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        rows = np.arange(length, dtype=np.int64)
        return rows // self.stride + 1

    def nnz(self, length: int) -> int:
        self.validate_length(length)
        return int(self.row_degrees(length).sum())

    def describe(self) -> str:
        return f"stride={self.stride}"
