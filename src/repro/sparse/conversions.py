"""Conversions between repro containers, dense arrays and ``scipy.sparse``.

The graph kernels consume :class:`~repro.sparse.coo.COOMatrix` /
:class:`~repro.sparse.csr.CSRMatrix`, but users frequently hold masks as dense
numpy arrays or scipy sparse matrices; these helpers bridge the gap without
the callers having to know about canonical ordering rules.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.utils.dtypes import resolve_dtype

# scipy is imported by the helpers that touch it, not here: importing it costs
# every ``import repro`` a large share of its start-up, and only numpy is a
# required dependency
if TYPE_CHECKING:
    import scipy.sparse

    MaskLike = Union[np.ndarray, scipy.sparse.spmatrix, COOMatrix, CSRMatrix]


def from_dense(dense: np.ndarray, *, fmt: str = "csr", dtype=np.float32):
    """Convert a dense mask to ``"coo"`` or ``"csr"`` format."""
    if fmt == "coo":
        return COOMatrix.from_dense(dense, dtype=dtype)
    if fmt == "csr":
        return CSRMatrix.from_dense(dense, dtype=dtype)
    raise ValueError(f"unknown sparse format {fmt!r} (expected 'coo' or 'csr')")


def coo_from_scipy(matrix: scipy.sparse.spmatrix, *, dtype=np.float32) -> COOMatrix:
    """Convert any scipy sparse matrix to a canonical :class:`COOMatrix`."""
    import scipy.sparse as sp

    coo = sp.coo_matrix(matrix)
    return COOMatrix(
        shape=coo.shape,
        rows=coo.row,
        cols=coo.col,
        values=np.asarray(coo.data, dtype=resolve_dtype(dtype)),
    )


def csr_from_scipy(matrix: scipy.sparse.spmatrix, *, dtype=np.float32) -> CSRMatrix:
    """Convert any scipy sparse matrix to a canonical :class:`CSRMatrix`."""
    import scipy.sparse as sp

    csr = sp.csr_matrix(matrix)
    csr.sort_indices()
    return CSRMatrix(
        shape=csr.shape,
        indptr=csr.indptr.astype(np.int64),
        indices=csr.indices,
        values=np.asarray(csr.data, dtype=resolve_dtype(dtype)),
    )


def to_scipy_coo(matrix: Union[COOMatrix, CSRMatrix]) -> scipy.sparse.coo_matrix:
    """Export to ``scipy.sparse.coo_matrix`` (e.g. for spy plots or graph IO)."""
    import scipy.sparse as sp

    if isinstance(matrix, CSRMatrix):
        matrix = matrix.to_coo()
    return sp.coo_matrix(
        (matrix.values, (matrix.rows, matrix.cols)), shape=matrix.shape
    )


def to_scipy_csr(matrix: Union[COOMatrix, CSRMatrix]) -> scipy.sparse.csr_matrix:
    """Export to ``scipy.sparse.csr_matrix``."""
    import scipy.sparse as sp

    if isinstance(matrix, COOMatrix):
        matrix = matrix.to_csr()
    return sp.csr_matrix(
        (matrix.values, matrix.indices, matrix.indptr), shape=matrix.shape
    )


def coerce_mask(mask: MaskLike, *, fmt: str = "csr", dtype=np.float32):
    """Coerce any supported mask representation to the requested format.

    Accepts dense arrays, scipy sparse matrices and repro containers; used by
    the engine so user code can pass whatever it has at hand.
    """
    if isinstance(mask, COOMatrix):
        return mask if fmt == "coo" else mask.to_csr()
    if isinstance(mask, CSRMatrix):
        return mask if fmt == "csr" else mask.to_coo()
    # a scipy matrix cannot exist unless scipy is loaded, so never import it
    scipy_sparse = sys.modules.get("scipy.sparse")
    if scipy_sparse is not None and scipy_sparse.issparse(mask):
        return coo_from_scipy(mask, dtype=dtype) if fmt == "coo" else csr_from_scipy(mask, dtype=dtype)
    dense = np.asarray(mask)
    return from_dense(dense, fmt=fmt, dtype=dtype)
