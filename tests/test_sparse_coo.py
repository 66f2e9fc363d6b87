"""Tests for the COO sparse mask container."""

import numpy as np
import pytest

from repro.sparse.coo import COOMatrix


def _sample_dense(rng, shape=(16, 16), density=0.2):
    dense = (rng.random(shape) < density).astype(np.float32)
    return dense


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        dense = _sample_dense(rng)
        coo = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(coo.to_dense(), dense)

    def test_canonical_ordering(self):
        coo = COOMatrix.from_edges((4, 4), rows=[3, 0, 2, 0], cols=[1, 3, 2, 0])
        assert list(coo.rows) == sorted(coo.rows)
        # within row 0 the columns are sorted
        assert list(coo.row_neighbors(0)) == [0, 3]

    def test_duplicate_coordinates_collapsed(self):
        coo = COOMatrix.from_edges((4, 4), rows=[1, 1, 1], cols=[2, 2, 3])
        assert coo.nnz == 2
        # the first occurrence of a coordinate is kept, in order or not
        in_order = COOMatrix(shape=(2, 2), rows=[0, 0], cols=[1, 1], values=[5, 7])
        np.testing.assert_array_equal(in_order.values, [5])
        shuffled = COOMatrix(shape=(4, 4), rows=[1, 0, 1, 1], cols=[2, 0, 3, 2], values=[5.0, 1.0, 6.0, 7.0])
        np.testing.assert_array_equal(shuffled.values, [1.0, 5.0, 6.0])

    def test_empty(self):
        coo = COOMatrix.empty((8, 8))
        assert coo.nnz == 0
        assert coo.sparsity_factor == 0.0
        np.testing.assert_array_equal(coo.to_dense(), np.zeros((8, 8), dtype=np.float32))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix.from_edges((4, 4), rows=[4], cols=[0])
        with pytest.raises(ValueError):
            COOMatrix.from_edges((4, 4), rows=[0], cols=[7])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix((4, 4), rows=np.array([0, 1]), cols=np.array([0]), values=np.array([1.0]))

    def test_index_dtype_is_int32(self, rng):
        coo = COOMatrix.from_dense(_sample_dense(rng))
        assert coo.rows.dtype == np.int32
        assert coo.cols.dtype == np.int32


class TestProperties:
    def test_sparsity_factor_definition(self, rng):
        dense = _sample_dense(rng, shape=(32, 32))
        coo = COOMatrix.from_dense(dense)
        assert coo.sparsity_factor == pytest.approx(dense.sum() / dense.size)

    def test_memory_bytes_three_vectors(self, rng):
        coo = COOMatrix.from_dense(_sample_dense(rng))
        # rows + cols at 4 bytes, values at 4 bytes (float32)
        assert coo.memory_bytes() == coo.nnz * 12

    def test_row_degrees_match_dense(self, rng):
        dense = _sample_dense(rng)
        coo = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(coo.row_degrees(), dense.sum(axis=1).astype(np.int64))


class TestRowAccess:
    def test_row_bounds_and_neighbors(self, rng):
        dense = _sample_dense(rng)
        coo = COOMatrix.from_dense(dense)
        for i in range(dense.shape[0]):
            expected = np.flatnonzero(dense[i])
            np.testing.assert_array_equal(coo.row_neighbors(i), expected)
            start, stop = coo.row_bounds(i)
            assert stop - start == expected.size

    def test_row_bounds_out_of_range(self):
        coo = COOMatrix.empty((4, 4))
        with pytest.raises(ValueError):
            coo.row_bounds(4)

    def test_iter_rows_covers_all_edges(self, rng):
        dense = _sample_dense(rng)
        coo = COOMatrix.from_dense(dense)
        seen = 0
        for row, cols, values in coo.iter_rows():
            assert cols.size == values.size
            seen += cols.size
            np.testing.assert_array_equal(cols, np.flatnonzero(dense[row]))
        assert seen == coo.nnz

    def test_iter_rows_empty_matrix(self):
        assert list(COOMatrix.empty((4, 4)).iter_rows()) == []


class TestConversionsAndAlgebra:
    def test_to_csr_roundtrip(self, rng):
        dense = _sample_dense(rng)
        coo = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(coo.to_csr().to_dense(), dense)

    def test_transpose(self, rng):
        dense = _sample_dense(rng)
        coo = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(coo.transpose().to_dense(), dense.T)

    def test_union_is_logical_or(self, rng):
        a = _sample_dense(rng)
        b = _sample_dense(rng)
        union = COOMatrix.from_dense(a).union(COOMatrix.from_dense(b))
        np.testing.assert_array_equal(union.to_dense() > 0, (a + b) > 0)
        # weighted operands: on a shared coordinate the value of ``self`` is kept
        weighted = COOMatrix.from_dense(2 * a).union(COOMatrix.from_dense(3 * b))
        np.testing.assert_array_equal(weighted.to_dense(), np.where(a > 0, 2 * a, 3 * b))

    def test_difference(self, rng):
        a = _sample_dense(rng)
        b = _sample_dense(rng)
        diff = COOMatrix.from_dense(a).difference(COOMatrix.from_dense(b))
        expected = (a > 0) & ~(b > 0)
        np.testing.assert_array_equal(diff.to_dense() > 0, expected)

    def test_intersection(self, rng):
        a = _sample_dense(rng)
        b = _sample_dense(rng)
        inter = COOMatrix.from_dense(a).intersection(COOMatrix.from_dense(b))
        np.testing.assert_array_equal(inter.to_dense() > 0, (a > 0) & (b > 0))

    def test_union_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix.empty((4, 4)).union(COOMatrix.empty((5, 5)))

    def test_equality(self, rng):
        dense = _sample_dense(rng)
        assert COOMatrix.from_dense(dense) == COOMatrix.from_dense(dense)
        other = dense.copy()
        other[0, 0] = 1 - other[0, 0]
        assert COOMatrix.from_dense(dense) != COOMatrix.from_dense(other)
