"""Uniform random attention masks (BigBird's random component).

Random attention (Fig. 2, orange cells) connects each query to a handful of
uniformly chosen keys.  Two parameterisations are supported, matching how the
paper's experiments specify randomness:

* a target **sparsity factor** ``Sf`` (Fig. 6 uses ``Sf = 0.001`` for BigBird's
  random component), or
* a fixed number of **random keys per row** (the original BigBird recipe).

Sampling is deterministic given the seed and the context length so benchmark
cells are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.masks.base import MaskSpec
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.validation import require


@dataclass(frozen=True, repr=False)
class RandomMask(MaskSpec):
    """Uniform random token-token connections.

    Exactly one of ``sparsity`` (target sparsity factor) or ``keys_per_row``
    must be given.  ``include_diagonal`` forces self-attention edges, which
    BigBird always keeps.
    """

    sparsity: Optional[float] = None
    keys_per_row: Optional[int] = None
    seed: int = 0
    include_diagonal: bool = False

    kernel_hint = None  # only explicit kernels can execute an arbitrary random mask

    def __post_init__(self) -> None:
        require(
            (self.sparsity is None) != (self.keys_per_row is None),
            "specify exactly one of sparsity or keys_per_row",
        )
        if self.sparsity is not None:
            require(0.0 < self.sparsity <= 1.0, "sparsity must be in (0, 1]")
        if self.keys_per_row is not None:
            require(self.keys_per_row >= 1, "keys_per_row must be >= 1")

    # ------------------------------------------------------------------ #
    def _keys_per_row(self, length: int) -> int:
        if self.keys_per_row is not None:
            return min(self.keys_per_row, length)
        per_row = int(round(self.sparsity * length))
        return max(1, min(per_row, length))

    def expected_nnz(self, length: int) -> int:
        """Edge count before adding the optional diagonal."""
        return self._keys_per_row(length) * length

    def _row_rng(self, i: int, length: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(length, i))
        )

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        k = self._keys_per_row(length)
        rng = self._row_rng(i, length)
        cols = rng.choice(length, size=k, replace=False)
        if self.include_diagonal and i not in cols:
            cols = np.concatenate([cols, [i]])
        return np.sort(cols).astype(INDEX_DTYPE)

    def nnz(self, length: int) -> int:
        if not self.include_diagonal:
            return self.expected_nnz(length)
        return int(self.row_degrees(length).sum())

    def sparsity_factor(self, length: int) -> float:
        return self.nnz(length) / float(length * length)

    def describe(self) -> str:
        if self.sparsity is not None:
            return f"sparsity={self.sparsity}, seed={self.seed}"
        return f"keys_per_row={self.keys_per_row}, seed={self.seed}"
