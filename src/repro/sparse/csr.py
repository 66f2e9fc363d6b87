"""Compressed sparse row (CSR) attention masks.

CSR is the explicit-mask representation the paper recommends: the row-offset
vector removes the per-row search that penalises COO, and its memory footprint
is ``O(L)`` for offsets plus ``O(Sf L^2)`` for column indices and values
(Section V-D).  :class:`CSRMatrix` stores exactly those three vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

import numpy as np

from repro.utils.dtypes import INDEX_DTYPE, dtype_bytes, resolve_dtype
from repro.utils.validation import require


def concatenated_ranges(starts, lengths) -> np.ndarray:
    """``arange(starts[i], starts[i] + lengths[i])`` for every ``i``, end to end (int64)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    shifts = np.asarray(starts, dtype=np.int64) - (ends - lengths)
    ranges = np.repeat(shifts, lengths)
    ranges += np.arange(ranges.size)
    return ranges


@dataclass(frozen=True)
class CSRMatrix:
    """Compressed sparse row matrix with canonical (sorted) column indices."""

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        require(len(self.shape) == 2, "shape must be a (rows, cols) pair")
        n_rows, n_cols = int(self.shape[0]), int(self.shape[1])
        indptr = np.asarray(self.indptr, dtype=np.int64).ravel()
        indices = np.array(self.indices, dtype=INDEX_DTYPE).ravel()
        values = np.array(self.values).ravel()
        require(indptr.size == n_rows + 1, "indptr must have length rows + 1")
        require(indptr[0] == 0, "indptr must start at 0")
        require(int(indptr[-1]) == indices.size, "indptr[-1] must equal nnz")
        require(np.all(np.diff(indptr) >= 0), "indptr must be non-decreasing")
        require(indices.shape == values.shape, "indices and values must have equal length")
        if indices.size:
            require(int(indices.min()) >= 0 and int(indices.max()) < n_cols, "column index out of range")
        # sort column indices within each row for deterministic iteration: one
        # stable sort by (row, column), made only when some row is out of order
        row_start = np.zeros(indices.size + 1, dtype=bool)
        row_start[indptr] = True
        if np.any((indices[1:] < indices[:-1]) & ~row_start[1:-1]):
            rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
            order = np.argsort(rows * n_cols + indices, kind="stable")
            indices, values = indices[order], values[order]
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, dtype: Union[str, np.dtype] = np.float32) -> "CSRMatrix":
        """Build from a dense 0/1 (or weighted) mask array."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix.from_dense(dense, dtype=dtype).to_csr()

    @classmethod
    def from_row_lists(
        cls,
        shape: Tuple[int, int],
        neighbor_lists,
        *,
        dtype: Union[str, np.dtype] = np.float32,
    ) -> "CSRMatrix":
        """Build a binary mask from per-row neighbour index lists."""
        require(len(neighbor_lists) == shape[0], "need one neighbour list per row")
        counts = np.array([len(lst) for lst in neighbor_lists], dtype=np.int64)
        if counts.sum():
            indices = np.concatenate([np.asarray(lst, dtype=INDEX_DTYPE) for lst in neighbor_lists if len(lst)])
        else:
            indices = np.empty(0, dtype=INDEX_DTYPE)
        return cls.from_row_counts(shape, counts, indices, dtype=dtype)

    @classmethod
    def from_row_counts(
        cls,
        shape: Tuple[int, int],
        counts: np.ndarray,
        indices: np.ndarray,
        *,
        dtype: Union[str, np.dtype] = np.float32,
    ) -> "CSRMatrix":
        """Build a binary mask whose row ``i`` holds the next ``counts[i]`` of ``indices``."""
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        values = np.ones(len(indices), dtype=resolve_dtype(dtype))
        return cls(shape=shape, indptr=indptr, indices=indices, values=values)

    @classmethod
    def empty(cls, shape: Tuple[int, int], *, dtype: Union[str, np.dtype] = np.float32) -> "CSRMatrix":
        """An all-zero mask."""
        return cls(
            shape=shape,
            indptr=np.zeros(shape[0] + 1, dtype=np.int64),
            indices=np.empty(0, dtype=INDEX_DTYPE),
            values=np.empty(0, dtype=resolve_dtype(dtype)),
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def sparsity_factor(self) -> float:
        """``Sf = NNZ / TE`` from Eq. (2) of the paper."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    def memory_bytes(self, *, index_bytes: int = 4, offset_bytes: int = 4) -> int:
        """Bytes occupied by the three CSR vectors."""
        return (
            (self.shape[0] + 1) * offset_bytes
            + self.nnz * index_bytes
            + self.nnz * dtype_bytes(self.dtype)
        )

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def row_degrees(self) -> np.ndarray:
        """Out-degree of every query row (vectorised ``diff`` of offsets)."""
        return np.diff(self.indptr)

    def row_bounds(self, row: int) -> Tuple[int, int]:
        """``[start, stop)`` of a row — O(1) thanks to the offset vector."""
        require(0 <= row < self.shape[0], "row out of range")
        return int(self.indptr[row]), int(self.indptr[row + 1])

    def row_neighbors(self, row: int) -> np.ndarray:
        """Column indices attended to by ``row``."""
        start, stop = self.row_bounds(row)
        return self.indices[start:stop]

    def row_values(self, row: int) -> np.ndarray:
        start, stop = self.row_bounds(row)
        return self.values[start:stop]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row, neighbor_cols, values)`` for every row (including empty)."""
        for row in range(self.shape[0]):
            start, stop = int(self.indptr[row]), int(self.indptr[row + 1])
            yield row, self.indices[start:stop], self.values[start:stop]

    def row_slice(self, start_row: int, stop_row: int) -> "CSRMatrix":
        """Extract rows ``[start_row, stop_row)`` as a new CSR matrix.

        Used by the sequence-parallel distributed extension, where each rank
        owns a contiguous slice of query rows.
        """
        require(0 <= start_row <= stop_row <= self.shape[0], "invalid row slice")
        lo = int(self.indptr[start_row])
        hi = int(self.indptr[stop_row])
        indptr = self.indptr[start_row : stop_row + 1] - lo
        return CSRMatrix(
            shape=(stop_row - start_row, self.shape[1]),
            indptr=indptr,
            indices=self.indices[lo:hi].copy(),
            values=self.values[lo:hi].copy(),
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.values
        return dense

    def to_coo(self) -> "COOMatrix":
        from repro.sparse.coo import COOMatrix

        return COOMatrix(shape=self.shape, rows=self.expanded_rows(), cols=self.indices, values=self.values)

    def expanded_rows(self) -> np.ndarray:
        """Row index of every stored non-zero (the COO row vector)."""
        return np.repeat(np.arange(self.shape[0], dtype=INDEX_DTYPE), np.diff(self.indptr))

    def union(self, other: "CSRMatrix") -> "CSRMatrix":
        """Union of two binary masks (logical OR)."""
        return self.to_coo().union(other.to_coo()).to_csr()

    def difference(self, other: "CSRMatrix") -> "CSRMatrix":
        """Entries of ``self`` not present in ``other``."""
        return self.to_coo().difference(other.to_coo()).to_csr()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"Sf={self.sparsity_factor:.3e}, dtype={self.dtype})"
        )
