"""Property-based tests on mask specifications.

Invariants:
* analytic ``nnz`` always equals the materialised edge count;
* ``neighbors`` always returns sorted, unique, in-range indices;
* the translation-invariant and global masks' vectorised ``row_degrees`` and
  ``to_csr`` match the per-row neighbour lists;
* union upper bound >= exact nnz.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.masks.structured import BlockDiagonalMask, CausalMask, StridedMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.sparse.csr import CSRMatrix

# hypothesis profile (ci/nightly) is selected globally in tests/conftest.py

lengths = st.integers(min_value=1, max_value=48)
dtypes = st.sampled_from((np.float16, np.float32, np.float64))


def _check_csr_matches_rows(mask, length, dtype):
    """``to_csr`` equals the CSR built from the per-row neighbour lists, array for array."""
    csr = mask.to_csr(length, dtype=dtype)
    reference = CSRMatrix.from_row_lists((length, length), mask.neighbor_lists(length), dtype=dtype)
    for name in ("indptr", "indices", "values"):
        got, want = getattr(csr, name), getattr(reference, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert csr.indices.dtype == np.int32 and csr.values.dtype == dtype


def _check_neighbors_contract(mask, length):
    for i in range(length):
        cols = mask.neighbors(i, length)
        assert cols.size == len(np.unique(cols))
        assert np.all(np.diff(cols) > 0) or cols.size <= 1
        if cols.size:
            assert cols.min() >= 0 and cols.max() < length


@given(lengths, st.integers(1, 16), dtypes)
def test_local_mask_invariants(length, window, dtype):
    mask = LocalMask(window=window)
    assert mask.nnz(length) == int(mask.to_dense(length).sum())
    _check_neighbors_contract(mask, length)
    _check_csr_matches_rows(mask, length, dtype)
    np.testing.assert_array_equal(
        mask.row_degrees(length), [mask.neighbors(i, length).size for i in range(length)]
    )


@given(lengths, st.integers(1, 16), st.integers(0, 4), dtypes)
def test_dilated1d_mask_invariants(length, window, dilation, dtype):
    mask = Dilated1DMask(window=window, dilation=dilation)
    assert mask.nnz(length) == int(mask.to_dense(length).sum())
    _check_neighbors_contract(mask, length)
    _check_csr_matches_rows(mask, length, dtype)
    np.testing.assert_array_equal(
        mask.row_degrees(length), [mask.neighbors(i, length).size for i in range(length)]
    )


@given(lengths, st.integers(1, 12), st.integers(0, 3))
def test_dilated2d_mask_invariants(length, block, dilation):
    mask = Dilated2DMask(block_size=block, dilation=dilation)
    assert mask.nnz(length) == int(mask.to_dense(length).sum())
    _check_neighbors_contract(mask, length)
    np.testing.assert_array_equal(
        mask.row_degrees(length), mask.to_dense(length).sum(axis=1).astype(np.int64)
    )


@given(st.integers(4, 48), st.integers(1, 4), st.integers(1, 6), dtypes)
def test_global_non_local_invariants(length, num_global, window, dtype):
    tokens = np.linspace(0, length - 1, num_global).astype(int)
    mask = GlobalNonLocalMask(tokens, window=window)
    assert mask.nnz(length) == int(mask.to_dense(length).sum())
    _check_neighbors_contract(mask, length)
    _check_csr_matches_rows(mask, length, dtype)
    _check_csr_matches_rows(GlobalMask(tokens), length, dtype)
    np.testing.assert_array_equal(
        mask.row_degrees(length), [mask.neighbors(i, length).size for i in range(length)]
    )
    # disjoint from the matching local window by construction
    local = LocalMask(window=window)
    overlap = mask.to_csr(length).to_coo().intersection(local.to_csr(length).to_coo())
    assert overlap.nnz == 0


@given(lengths, st.integers(1, 10))
def test_structured_mask_invariants(length, param):
    for mask in (CausalMask(), BlockDiagonalMask(block_size=param), StridedMask(stride=param)):
        assert mask.nnz(length) == int(mask.to_dense(length).sum())
        _check_neighbors_contract(mask, length)


@given(st.integers(4, 40), st.integers(1, 8), st.integers(1, 8))
def test_union_upper_bound(length, w1, w2):
    union = LocalMask(window=w1) | Dilated1DMask(window=w2, dilation=1)
    assert union.upper_bound_nnz(length) >= union.nnz(length)
    assert union.nnz(length) == int(union.to_dense(length).sum())


@given(st.integers(1, 64), st.floats(min_value=1e-4, max_value=1.0))
def test_sparsity_factor_bounded(length, sparsity):
    mask = LocalMask(window=max(1, int(sparsity * length)))
    sf = mask.sparsity_factor(length)
    assert 0.0 < sf <= 1.0
