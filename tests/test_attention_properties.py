"""Property-based tests on the attention kernels.

Invariants:
* every graph kernel agrees with the dense masked reference on random masks,
  shapes and dtypes;
* attention outputs are convex combinations of value rows (each output lies in
  the convex hull of the attended values);
* kernels are permutation-equivariant under consistent row/column relabelling
  of an explicit mask;
* scaling Q and K jointly by the inverse of the scale parameter is equivalent
  to changing the scale.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.dense import sdp_attention
from repro.core.explicit_kernels import csr_attention
from repro.core.implicit_kernels import dilated1d_attention, local_attention
from repro.masks.random_ import RandomMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.sparse.csr import CSRMatrix
from repro.utils.rng import random_qkv

# hypothesis profile (ci/nightly) is selected globally in tests/conftest.py

dims = st.integers(min_value=1, max_value=12)
lengths = st.integers(min_value=2, max_value=48)


@given(lengths, dims, st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_local_kernel_matches_reference(length, dim, window, seed):
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed)
    expected = sdp_attention(q, k, v, LocalMask(window=window)).output
    result = local_attention(q, k, v, window).output
    np.testing.assert_allclose(result, expected, atol=1e-9)


@given(lengths, dims, st.integers(1, 12), st.integers(0, 3), st.integers(0, 2**31 - 1))
def test_dilated_kernel_matches_reference(length, dim, window, dilation, seed):
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed)
    mask = Dilated1DMask(window=window, dilation=dilation)
    expected = sdp_attention(q, k, v, mask).output
    result = dilated1d_attention(q, k, v, window, dilation).output
    np.testing.assert_allclose(result, expected, atol=1e-9)


# windows of at least 16 * (dilation + 1) + 1 reach the banded path (32 or
# more offsets per band) and the narrower ones the gather path; lengths below
# the stride leave residues empty, and other lengths leave ragged ones
@given(st.integers(2, 400), dims, st.integers(32, 200), st.integers(0, 3), st.integers(0, 2**31 - 1))
@example(length=3, dim=4, window=200, dilation=3, seed=0)
@example(length=301, dim=5, window=200, dilation=3, seed=1)
def test_wide_dilated_kernel_matches_reference(length, dim, window, dilation, seed):
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed)
    mask = Dilated1DMask(window=window, dilation=dilation)
    expected = sdp_attention(q, k, v, mask).output
    result = dilated1d_attention(q, k, v, window, dilation).output
    np.testing.assert_allclose(result, expected, atol=1e-9)


def test_wide_dilated_kernel_stack_equals_single_slices():
    # 65 offsets per band (banded path) over a length that is not a multiple
    # of the stride
    q, k, v = random_qkv(301, 8, dtype=np.float64, batch=2, heads=3, seed=11)
    stacked = dilated1d_attention(q, k, v, 97, 2)
    for b in range(2):
        for h in range(3):
            single = dilated1d_attention(q[b, h], k[b, h], v[b, h], 97, 2)
            np.testing.assert_array_equal(stacked.output[b, h], single.output)
            np.testing.assert_array_equal(stacked.row_max[b, h], single.row_max)
            np.testing.assert_array_equal(stacked.row_sum[b, h], single.row_sum)
    assert single.ops.wasted_dot_products > 0
    assert stacked.ops.wasted_dot_products == 6 * single.ops.wasted_dot_products


@given(lengths, dims, st.floats(min_value=0.05, max_value=1.0), st.integers(0, 2**31 - 1))
def test_csr_kernel_matches_reference_on_random_masks(length, dim, sparsity, seed):
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed)
    mask = RandomMask(sparsity=sparsity, seed=seed % 1000).to_csr(length)
    expected = sdp_attention(q, k, v, mask).output
    result = csr_attention(q, k, v, mask).output
    np.testing.assert_allclose(result, expected, atol=1e-9)


@given(lengths, dims, st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_output_rows_in_convex_hull_of_values(length, dim, window, seed):
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed, distribution="normal")
    out = local_attention(q, k, v, window).output
    # each output coordinate lies between the min and max of the attended values
    mask = LocalMask(window=window)
    for i in range(length):
        cols = mask.neighbors(i, length)
        assert np.all(out[i] <= v[cols].max(axis=0) + 1e-9)
        assert np.all(out[i] >= v[cols].min(axis=0) - 1e-9)


@given(st.integers(4, 32), dims, st.integers(0, 2**31 - 1))
def test_permutation_equivariance(length, dim, seed):
    rng = np.random.default_rng(seed)
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed)
    dense_mask = (rng.random((length, length)) < 0.3).astype(np.float32)
    perm = rng.permutation(length)
    base = csr_attention(q, k, v, CSRMatrix.from_dense(dense_mask)).output
    permuted = csr_attention(
        q[perm], k[perm], v[perm], CSRMatrix.from_dense(dense_mask[np.ix_(perm, perm)])
    ).output
    np.testing.assert_allclose(permuted, base[perm], atol=1e-9)


@given(st.integers(4, 32), dims, st.floats(min_value=0.1, max_value=4.0), st.integers(0, 2**31 - 1))
def test_scale_equivalence(length, dim, scale, seed):
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed)
    a = local_attention(q, k, v, 4, scale=scale).output
    b = local_attention(q * scale, k, v, 4, scale=1.0).output
    np.testing.assert_allclose(a, b, atol=1e-9)


@given(st.integers(2, 32), dims, st.integers(0, 2**31 - 1))
def test_row_sums_positive_for_nonempty_rows(length, dim, seed):
    q, k, v = random_qkv(length, dim, dtype=np.float64, seed=seed)
    result = local_attention(q, k, v, 3)
    assert np.all(result.row_sum > 0)
    assert result.empty_rows().size == 0
