"""2-D dilated (blocked) attention mask.

LongNet-style dilation over two dimensions (paper Section II-C): the sequence
is partitioned into contiguous blocks; inside a block, a query/key pair is
attended only when *both* of their intra-block positions land on the dilation
grid.

The paper's pseudo-code tests ``floor(i/(L/b)) == floor(j/(L/b))`` for block
membership while using ``i % b`` for the intra-block position, which is only
self-consistent when the block size equals ``b``.  We implement the natural
reading — contiguous blocks of ``block_size`` tokens, dilation ``r`` inside
each block — and note the deviation in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.masks.base import MaskSpec
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.validation import require


@dataclass(frozen=True, repr=False)
class Dilated2DMask(MaskSpec):
    """Block-diagonal mask with 2-D dilation inside each block.

    Query ``i`` attends key ``j`` iff they fall in the same ``block_size``-token
    block and both intra-block positions are multiples of ``dilation + 1``.
    Queries whose intra-block position is off the dilation grid attend nothing
    (their rows are empty), exactly as the paper's predicate returns 0.
    """

    block_size: int
    dilation: int = 1

    kernel_hint = "dilated2d"

    def __post_init__(self) -> None:
        require(self.block_size >= 1, "block_size must be >= 1")
        require(self.dilation >= 0, "dilation must be >= 0")

    @property
    def stride(self) -> int:
        return self.dilation + 1

    # ------------------------------------------------------------------ #
    def _block_bounds(self, i: int, length: int) -> tuple:
        start = (i // self.block_size) * self.block_size
        stop = min(start + self.block_size, length)
        return start, stop

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        start, stop = self._block_bounds(i, length)
        if (i - start) % self.stride != 0:
            return np.empty(0, dtype=INDEX_DTYPE)
        cols = np.arange(start, stop, self.stride, dtype=np.int64)
        return cols.astype(INDEX_DTYPE)

    def active_rows(self, length: int) -> np.ndarray:
        """Rows whose intra-block position lies on the dilation grid."""
        rows = np.arange(length, dtype=np.int64)
        return rows[(rows % self.block_size) % self.stride == 0]

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        rows = np.arange(length, dtype=np.int64)
        block_start = (rows // self.block_size) * self.block_size
        block_stop = np.minimum(block_start + self.block_size, length)
        per_block = -(-(block_stop - block_start) // self.stride)  # ceil division
        active = (rows - block_start) % self.stride == 0
        return np.where(active, per_block, 0)

    def nnz(self, length: int) -> int:
        """Closed form: ``ceil(b/s)^2`` per full block plus the remainder block."""
        self.validate_length(length)
        full_blocks, remainder = divmod(length, self.block_size)
        per_full = -(-self.block_size // self.stride)
        total = full_blocks * per_full * per_full
        if remainder:
            per_rem = -(-remainder // self.stride)
            total += per_rem * per_rem
        return int(total)

    def describe(self) -> str:
        return f"block_size={self.block_size}, dilation={self.dilation}"
