"""Tests for the Local and 1-D dilated window masks (paper Section II-C predicates)."""

import tracemalloc

import numpy as np
import pytest

from repro.masks.windowed import Dilated1DMask, LocalMask


def paper_local_predicate(i, j, w):
    return abs(i - j) < w


def paper_dilated_predicate(i, j, w, r):
    return abs(i - j) < w and abs(i - j) % (r + 1) == 0


class TestLocalMask:
    @pytest.mark.parametrize("window,length", [(1, 8), (3, 16), (5, 5), (7, 32)])
    def test_matches_paper_predicate(self, window, length):
        mask = LocalMask(window=window)
        dense = mask.to_dense(length)
        for i in range(length):
            for j in range(length):
                assert bool(dense[i, j]) == paper_local_predicate(i, j, window)

    def test_window_one_is_identity(self):
        np.testing.assert_array_equal(LocalMask(window=1).to_dense(6), np.eye(6, dtype=np.float32))

    def test_from_reach(self):
        mask = LocalMask.from_reach(50)
        assert mask.window == 51
        assert mask.reach == 50

    def test_nnz_closed_form_matches_materialised(self):
        for window in (1, 2, 5, 16):
            for length in (4, 16, 33):
                mask = LocalMask(window=window)
                assert mask.nnz(length) == int(mask.to_dense(length).sum())

    def test_window_larger_than_length_is_dense(self):
        mask = LocalMask(window=100)
        assert mask.sparsity_factor(10) == pytest.approx(1.0)

    def test_offsets_symmetric(self):
        offsets = LocalMask(window=4).offsets()
        np.testing.assert_array_equal(offsets, np.arange(-3, 4))

    def test_neighbors_clipped_at_boundaries(self):
        mask = LocalMask(window=3)
        np.testing.assert_array_equal(mask.neighbors(0, 10), [0, 1, 2])
        np.testing.assert_array_equal(mask.neighbors(9, 10), [7, 8, 9])

    def test_row_degrees_vectorised_matches_per_row(self):
        mask = LocalMask(window=4)
        degrees = mask.row_degrees(20)
        expected = [mask.neighbors(i, 20).size for i in range(20)]
        np.testing.assert_array_equal(degrees, expected)

    def test_row_degrees_memory_is_linear_in_length(self):
        # 16 KiB of degrees; an (L, 2w - 1) matrix of columns would take 64 MiB
        mask = LocalMask(window=2048)
        tracemalloc.start()
        try:
            mask.row_degrees(2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            LocalMask(window=0)

    def test_kernel_hint(self):
        assert LocalMask(window=2).kernel_hint == "local"


class TestDilated1DMask:
    @pytest.mark.parametrize("window,dilation,length", [(5, 1, 16), (7, 2, 20), (9, 3, 24), (4, 0, 12)])
    def test_matches_paper_predicate(self, window, dilation, length):
        mask = Dilated1DMask(window=window, dilation=dilation)
        dense = mask.to_dense(length)
        for i in range(length):
            for j in range(length):
                assert bool(dense[i, j]) == paper_dilated_predicate(i, j, window, dilation)

    def test_zero_dilation_equals_local(self):
        length = 24
        np.testing.assert_array_equal(
            Dilated1DMask(window=5, dilation=0).to_dense(length),
            LocalMask(window=5).to_dense(length),
        )

    def test_dilation_reduces_nnz(self):
        length = 64
        dense_nnz = Dilated1DMask(window=9, dilation=0).nnz(length)
        dilated_nnz = Dilated1DMask(window=9, dilation=2).nnz(length)
        assert dilated_nnz < dense_nnz

    def test_dilation_widens_effective_reach_at_fixed_edge_count(self):
        # same number of attended offsets, but spaced farther apart
        base = Dilated1DMask(window=5, dilation=0)
        dilated = Dilated1DMask(window=9, dilation=1)
        assert base.offsets().size == dilated.offsets().size
        assert dilated.effective_reach > base.effective_reach

    def test_offsets_are_multiples_of_stride(self):
        mask = Dilated1DMask(window=10, dilation=2)
        assert np.all(np.abs(mask.offsets()) % 3 == 0)

    def test_nnz_closed_form(self):
        for window, dilation in [(6, 1), (9, 2), (3, 0)]:
            mask = Dilated1DMask(window=window, dilation=dilation)
            for length in (8, 21, 40):
                assert mask.nnz(length) == int(mask.to_dense(length).sum())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Dilated1DMask(window=0, dilation=1)
        with pytest.raises(ValueError):
            Dilated1DMask(window=3, dilation=-1)

    def test_kernel_hint(self):
        assert Dilated1DMask(window=3, dilation=1).kernel_hint == "dilated1d"
