"""Coordinate-format (COO) sparse attention masks.

The COO kernel of the paper receives three parallel vectors — row indices,
column indices and values — describing the non-zero entries of the attention
mask.  The kernel requires entries to be grouped by row with columns sorted
inside each row (the paper notes the kernel must *search* for a row's bounds,
which is what makes COO slow relative to CSR).  :class:`COOMatrix` enforces
that canonical ordering on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.utils.dtypes import INDEX_DTYPE, dtype_bytes, resolve_dtype
from repro.utils.validation import require


@dataclass(frozen=True)
class COOMatrix:
    """Canonical coordinate-format sparse matrix.

    Attributes
    ----------
    shape:
        ``(rows, cols)`` of the dense mask this represents (``L x L`` for
        attention).
    rows, cols:
        int32 vectors of length ``nnz`` holding the coordinates of each
        non-zero, grouped by row and sorted by column within a row.
    values:
        Values of the non-zeros.  For 0/1 attention masks these are all 1, but
        weighted masks (e.g. ALiBi-style biases) are supported as well.
    """

    shape: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=INDEX_DTYPE).ravel()
        cols = np.array(self.cols, dtype=INDEX_DTYPE).ravel()
        values = np.array(self.values).ravel()
        require(len(self.shape) == 2, "shape must be a (rows, cols) pair")
        n_rows, n_cols = int(self.shape[0]), int(self.shape[1])
        require(n_rows >= 0 and n_cols >= 0, "shape entries must be non-negative")
        require(
            rows.shape == cols.shape == values.shape,
            "rows, cols and values must have identical lengths",
        )
        if rows.size:
            require(int(rows.min()) >= 0 and int(rows.max()) < n_rows, "row index out of range")
            require(int(cols.min()) >= 0 and int(cols.max()) < n_cols, "column index out of range")
        # Canonicalise: group by row, sort columns within rows, drop duplicates
        # keeping the first occurrence (so a union keeps its left operand's
        # value).  Keys already in order, as the set algebra's results are,
        # are only checked, not sorted.
        keys = rows.astype(np.int64) * n_cols + cols
        if np.any(keys[1:] < keys[:-1]):
            order = np.argsort(keys, kind="stable")
            rows, cols, values, keys = rows[order], cols[order], values[order], keys[order]
        repeats = keys[1:] == keys[:-1]
        if repeats.any():
            first = np.concatenate(([True], ~repeats))
            rows, cols, values = rows[first], cols[first], values[first]
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, dtype: Union[str, np.dtype] = np.float32) -> "COOMatrix":
        """Build from a dense 0/1 (or weighted) mask array."""
        dense = np.asarray(dense)
        require(dense.ndim == 2, "dense mask must be 2-D")
        rows, cols = np.nonzero(dense)
        values = np.asarray(dense[rows, cols], dtype=resolve_dtype(dtype))
        return cls(shape=dense.shape, rows=rows, cols=cols, values=values)

    @classmethod
    def from_edges(
        cls,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        values: Optional[np.ndarray] = None,
        dtype: Union[str, np.dtype] = np.float32,
    ) -> "COOMatrix":
        """Build a binary mask from edge lists (values default to 1)."""
        rows = np.asarray(rows)
        if values is None:
            values = np.ones(rows.shape, dtype=resolve_dtype(dtype))
        return cls(shape=shape, rows=rows, cols=cols, values=values)

    @classmethod
    def empty(cls, shape: Tuple[int, int], *, dtype: Union[str, np.dtype] = np.float32) -> "COOMatrix":
        """An all-zero mask (no edges)."""
        resolved = resolve_dtype(dtype)
        return cls(
            shape=shape,
            rows=np.empty(0, dtype=INDEX_DTYPE),
            cols=np.empty(0, dtype=INDEX_DTYPE),
            values=np.empty(0, dtype=resolved),
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored non-zeros (graph edges)."""
        return int(self.rows.size)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def sparsity_factor(self) -> float:
        """``Sf = NNZ / TE`` from Eq. (2) of the paper."""
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    @property
    def density(self) -> float:
        """Alias of :attr:`sparsity_factor` (1 = fully dense)."""
        return self.sparsity_factor

    def memory_bytes(self, *, index_bytes: int = 4) -> int:
        """Bytes occupied by the three COO vectors (paper Table II accounting)."""
        return self.nnz * (2 * index_bytes + dtype_bytes(self.dtype))

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def row_degrees(self) -> np.ndarray:
        """Out-degree (number of attended keys) of every query row."""
        degrees = np.zeros(self.shape[0], dtype=np.int64)
        if self.nnz:
            uniq, counts = np.unique(self.rows, return_counts=True)
            degrees[uniq] = counts
        return degrees

    def row_bounds(self, row: int) -> Tuple[int, int]:
        """Locate ``[start, stop)`` of a row in the canonical ordering.

        Uses binary search (``searchsorted``) — the analogue of the in-kernel
        search the paper identifies as COO's performance problem.
        """
        require(0 <= row < self.shape[0], "row out of range")
        start = int(np.searchsorted(self.rows, row, side="left"))
        stop = int(np.searchsorted(self.rows, row, side="right"))
        return start, stop

    def row_neighbors(self, row: int) -> np.ndarray:
        """Column indices attended to by ``row``."""
        start, stop = self.row_bounds(row)
        return self.cols[start:stop]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row, neighbor_cols, values)`` for every non-empty row."""
        if not self.nnz:
            return
        boundaries = np.flatnonzero(np.diff(self.rows)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [self.nnz]))
        for start, stop in zip(starts, stops):
            yield int(self.rows[start]), self.cols[start:stop], self.values[start:stop]

    # ------------------------------------------------------------------ #
    # Conversions / algebra
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialise the dense mask (only sensible for small ``L``)."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.rows, self.cols] = self.values
        return dense

    def to_csr(self) -> "CSRMatrix":
        """Convert to :class:`~repro.sparse.csr.CSRMatrix`."""
        from repro.sparse.csr import CSRMatrix

        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rows, minlength=self.shape[0]), out=indptr[1:])
        return CSRMatrix(shape=self.shape, indptr=indptr, indices=self.cols, values=self.values)

    def transpose(self) -> "COOMatrix":
        """Swap rows and columns (reverse every edge of the graph)."""
        return COOMatrix(
            shape=(self.shape[1], self.shape[0]),
            rows=self.cols,
            cols=self.rows,
            values=self.values,
        )

    def union(self, other: "COOMatrix") -> "COOMatrix":
        """Union of two masks on the same shape (logical OR).

        Where both store a coordinate, ``self``'s value is kept.
        """
        require(self.shape == other.shape, "shape mismatch in union")
        rows = np.concatenate([self.rows, other.rows])
        cols = np.concatenate([self.cols, other.cols])
        values = np.concatenate(
            [np.asarray(self.values, dtype=np.float64), np.asarray(other.values, dtype=np.float64)]
        )
        # canonicalisation in __post_init__ drops duplicate coordinates
        return COOMatrix(shape=self.shape, rows=rows, cols=cols, values=values.astype(self.dtype))

    def _keys(self) -> np.ndarray:
        """``row * cols + col`` of every entry: int64, sorted and duplicate-free."""
        return self.rows.astype(np.int64) * self.shape[1] + self.cols

    def _stored_in(self, other: "COOMatrix") -> np.ndarray:
        """Whether each entry's coordinate is also an entry of non-empty ``other``.

        Both key vectors are sorted, so one binary search per entry decides.
        """
        mine, theirs = self._keys(), other._keys()
        found = np.minimum(np.searchsorted(theirs, mine), theirs.size - 1)
        return theirs[found] == mine

    def difference(self, other: "COOMatrix") -> "COOMatrix":
        """Entries of ``self`` whose coordinates are absent from ``other``."""
        require(self.shape == other.shape, "shape mismatch in difference")
        if not self.nnz or not other.nnz:
            return self
        keep = ~self._stored_in(other)
        return COOMatrix(
            shape=self.shape, rows=self.rows[keep], cols=self.cols[keep], values=self.values[keep]
        )

    def intersection(self, other: "COOMatrix") -> "COOMatrix":
        """Entries present in both masks (values taken from ``self``)."""
        require(self.shape == other.shape, "shape mismatch in intersection")
        if not self.nnz or not other.nnz:
            return COOMatrix.empty(self.shape, dtype=self.dtype)
        keep = self._stored_in(other)
        return COOMatrix(
            shape=self.shape, rows=self.rows[keep], cols=self.cols[keep], values=self.values[keep]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.allclose(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"Sf={self.sparsity_factor:.3e}, dtype={self.dtype})"
        )
