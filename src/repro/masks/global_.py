"""Global attention masks.

Global attention (Fig. 2, blue cells) designates a small set of tokens that
attend to every token and are attended by every token — Longformer's and
BigBird's global component.

The paper's *global (non-local)* kernel additionally subtracts a local window
from the global pattern so that, when composed sequentially with the local
kernel, no edge is processed twice (Section IV-B).  Both the pure pattern and
the non-local variant are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.masks.base import MaskSpec
from repro.sparse.csr import CSRMatrix, concatenated_ranges
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.validation import require


def _normalise_tokens(tokens: Sequence[int]) -> tuple:
    arr = np.unique(np.asarray(list(tokens), dtype=np.int64))
    return tuple(int(t) for t in arr)


def _row_slices(tokens: tuple, window: int, length: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of a global pattern minus ``|j - i| < window``, as two slices of one source.

    The source is ``tokens ++ arange(length)``.  Row ``i`` keeps the columns
    below ``i - window + 1`` and those from ``i + max(window, 1)`` on (so
    ``window=0`` excludes nothing): taken from the tokens for an ordinary row,
    from the whole row for a global token's own row.  Returns the source and
    ``(length, 2)`` slice starts and lengths.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    rows = np.arange(length, dtype=np.int64)
    below, above = rows - window + 1, rows + max(window, 1)
    num = tokens.size
    starts = np.stack([np.zeros(length, np.int64), np.searchsorted(tokens, above)], axis=1)
    stops = np.stack([np.searchsorted(tokens, below), np.full(length, num)], axis=1)
    starts[tokens] = num + np.stack([np.zeros(num, np.int64), np.minimum(above[tokens], length)], axis=1)
    stops[tokens] = num + np.stack([np.maximum(below[tokens], 0), np.full(num, length)], axis=1)
    return np.concatenate([tokens, rows]), starts, stops - starts


def _global_csr(tokens: tuple, window: int, length: int, dtype) -> CSRMatrix:
    source, starts, lengths = _row_slices(tokens, window, length)
    cols = source[concatenated_ranges(starts.ravel(), lengths.ravel())]
    return CSRMatrix.from_row_counts((length, length), lengths.sum(axis=1), cols, dtype=dtype)


@dataclass(frozen=True, repr=False)
class GlobalMask(MaskSpec):
    """Pure global attention for a designated token set.

    Query ``i`` attends key ``j`` iff ``i`` is a global token (full row) or
    ``j`` is a global token (full column).
    """

    global_tokens: tuple
    kernel_hint = "global"

    def __init__(self, global_tokens: Sequence[int]):
        object.__setattr__(self, "global_tokens", _normalise_tokens(global_tokens))
        require(len(self.global_tokens) > 0, "need at least one global token")
        require(min(self.global_tokens) >= 0, "global token indices must be non-negative")

    def validate_length(self, length: int) -> None:
        super().validate_length(length)
        require(max(self.global_tokens) < length, "global token index exceeds context length")

    @property
    def num_global(self) -> int:
        return len(self.global_tokens)

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        if i in self.global_tokens:
            return np.arange(length, dtype=INDEX_DTYPE)
        return np.asarray(self.global_tokens, dtype=INDEX_DTYPE)

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        degrees = np.full(length, self.num_global, dtype=np.int64)
        degrees[list(self.global_tokens)] = length
        return degrees

    def nnz(self, length: int) -> int:
        """``g·L`` full rows plus ``g·(L-g)`` extra column entries."""
        self.validate_length(length)
        g = self.num_global
        return int(g * length + g * (length - g))

    def to_csr(self, length: int, *, dtype=np.float32) -> CSRMatrix:
        self.validate_length(length)
        return _global_csr(self.global_tokens, 0, length, dtype)

    def describe(self) -> str:
        return f"global_tokens={list(self.global_tokens)}"


@dataclass(frozen=True, repr=False)
class GlobalNonLocalMask(MaskSpec):
    """Global attention minus a local window — the paper's ``Global`` kernel input.

    Designed to be composed with :class:`~repro.masks.windowed.LocalMask` of
    the same ``window``: their union is Longformer's local+global pattern and
    the two edge sets are disjoint, so a sequential two-kernel execution does
    not double count any edge.
    """

    global_tokens: tuple
    window: int = 1
    kernel_hint = "global"

    def __init__(self, global_tokens: Sequence[int], window: int = 1):
        object.__setattr__(self, "global_tokens", _normalise_tokens(global_tokens))
        object.__setattr__(self, "window", int(window))
        require(len(self.global_tokens) > 0, "need at least one global token")
        require(min(self.global_tokens) >= 0, "global token indices must be non-negative")
        require(self.window >= 1, "window must be >= 1")

    def validate_length(self, length: int) -> None:
        super().validate_length(length)
        require(max(self.global_tokens) < length, "global token index exceeds context length")

    @property
    def num_global(self) -> int:
        return len(self.global_tokens)

    def neighbors(self, i: int, length: int) -> np.ndarray:
        self.validate_length(length)
        require(0 <= i < length, "row index out of range")
        if i in self.global_tokens:
            cols = np.arange(length, dtype=np.int64)
        else:
            cols = np.asarray(self.global_tokens, dtype=np.int64)
        keep = np.abs(cols - i) >= self.window
        return cols[keep].astype(INDEX_DTYPE)

    def nnz(self, length: int) -> int:
        return int(self.row_degrees(length).sum())

    def row_degrees(self, length: int) -> np.ndarray:
        self.validate_length(length)
        _, _, lengths = _row_slices(self.global_tokens, self.window, length)
        return lengths.sum(axis=1)

    def to_csr(self, length: int, *, dtype=np.float32) -> CSRMatrix:
        self.validate_length(length)
        return _global_csr(self.global_tokens, self.window, length, dtype)

    def describe(self) -> str:
        return f"global_tokens={list(self.global_tokens)}, window={self.window}"
