"""Tests for the optional compiled fast path (repro.core.compiled).

The contract under test: the gather/dequant kernels are bit-identical across
backends (numba / runtime-compiled C / pure NumPy), the fused segment-reduce
agrees with ``np.add.reduceat`` to accumulator round-off, and the
``REPRO_COMPILED`` escape hatch forces the NumPy fallback so the whole stack
runs without any compiler present.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import repro
from repro.core import compiled
from repro.serve.quant import quantize_rows


@pytest.fixture
def restore_backend():
    """Re-resolve the backend after tests that reset or re-pin it."""
    yield
    compiled.reset_backend()


def _compiled_name():
    """The best non-numpy backend available here, or None."""
    name = compiled.backend()
    return name if name != "numpy" else None


class TestBackendSelection:
    def test_backend_is_one_of_the_three(self):
        assert compiled.backend() in {"numba", "cext", "numpy"}

    def test_env_zero_forces_numpy(self, monkeypatch, restore_backend):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        compiled.reset_backend()
        assert compiled.backend() == "numpy"

    def test_env_numpy_spelling(self, monkeypatch, restore_backend):
        monkeypatch.setenv("REPRO_COMPILED", "numpy")
        compiled.reset_backend()
        assert compiled.backend() == "numpy"

    def test_force_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            compiled.force_backend("cuda")

    def test_force_backend_numpy_pins_and_restores(self):
        before = compiled.backend()
        with compiled.force_backend("numpy"):
            assert compiled.backend() == "numpy"
        assert compiled.backend() == before

    def test_cext_build_leaves_no_directory(self, tmp_path):
        if compiled._find_cc() is None:
            pytest.skip("no C compiler on PATH")
        # a fresh process, so the build really runs: the check holds while
        # the process lives, and the loaded library still computes
        script = (
            "import glob, os, tempfile\n"
            "import numpy as np\n"
            "from repro.core import compiled\n"
            "assert compiled.backend() == 'cext', compiled.backend_error()\n"
            "assert not glob.glob(os.path.join(tempfile.gettempdir(), 'repro-compiled-*'))\n"
            "arena = np.arange(12, dtype=np.float32).reshape(4, 3)\n"
            "rows = np.array([3, 0], dtype=np.int64)\n"
            "assert (compiled.gather_rows(arena, rows) == arena[rows]).all()\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, TMPDIR=str(tmp_path), REPRO_COMPILED="cext", PYTHONPATH=path)
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert not list(tmp_path.glob("repro-compiled-*"))


class TestGatherRows:
    @pytest.mark.parametrize("batch_shape", [(), (2,), (2, 3)])
    def test_bit_identical_to_numpy_fallback(self, batch_shape):
        name = _compiled_name()
        if name is None:
            pytest.skip("no compiled backend available")
        rng = np.random.default_rng(0)
        arena = rng.normal(size=batch_shape + (32, 5)).astype(np.float32)
        rows = rng.integers(0, 32, size=17).astype(np.int64)
        fast = compiled.gather_rows(arena, rows)
        with compiled.force_backend("numpy"):
            slow = compiled.gather_rows(arena, rows)
        assert_array_equal(fast, slow)
        assert_array_equal(fast, arena[..., rows, :])

    def test_empty_gather(self):
        arena = np.zeros((4, 3), dtype=np.float32)
        out = compiled.gather_rows(arena, np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 3)

    def test_non_float32_falls_through(self):
        arena = np.arange(12, dtype=np.float64).reshape(4, 3)
        rows = np.array([3, 0], dtype=np.int64)
        assert_array_equal(compiled.gather_rows(arena, rows), arena[rows])


class TestGatherDequantInt8:
    @pytest.mark.parametrize("batch_shape", [(), (2,), (2, 3)])
    def test_bit_identical_to_numpy_fallback(self, batch_shape):
        name = _compiled_name()
        if name is None:
            pytest.skip("no compiled backend available")
        rng = np.random.default_rng(1)
        raw = rng.normal(size=batch_shape + (32, 5)).astype(np.float32)
        arena, scale, zero = quantize_rows(raw)
        rows = rng.integers(0, 32, size=23).astype(np.int64)
        fast = compiled.gather_dequant_int8(arena, scale, zero, rows)
        with compiled.force_backend("numpy"):
            slow = compiled.gather_dequant_int8(arena, scale, zero, rows)
        assert fast.dtype == np.float32
        assert_array_equal(fast, slow)

    def test_matches_manual_dequant(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(8, 4)).astype(np.float32)
        arena, scale, zero = quantize_rows(raw)
        rows = np.array([5, 0, 5], dtype=np.int64)
        out = compiled.gather_dequant_int8(arena, scale, zero, rows)
        expect = (arena[rows].astype(np.float32) - zero[rows, None]) * scale[rows, None]
        assert_array_equal(out, expect)


class TestSegmentWeightedSum:
    def _case(self, seed=3, batch_shape=(2,), num_rows=6, dim=4):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 5, size=num_rows)
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        nnz = int(indptr[-1])
        weights = rng.normal(size=batch_shape + (nnz,))
        values = rng.normal(size=batch_shape + (nnz, dim))
        return weights, values, indptr, dim

    def _reduceat(self, weights, values, indptr, dim):
        num_rows = indptr.size - 1
        acc = np.zeros(weights.shape[:-1] + (num_rows, dim), dtype=values.dtype)
        lengths = np.diff(indptr)
        nonempty = np.flatnonzero(lengths > 0)
        acc[..., nonempty, :] = np.add.reduceat(
            weights[..., None] * values, indptr[nonempty], axis=-2
        )
        return acc

    def test_matches_reduceat_to_roundoff(self):
        if _compiled_name() is None:
            pytest.skip("no compiled backend available")
        weights, values, indptr, dim = self._case()
        fused = compiled.try_segment_weighted_sum(weights, values, indptr, dim)
        assert fused is not None
        assert_allclose(fused, self._reduceat(weights, values, indptr, dim), rtol=1e-12)

    def test_returns_none_under_numpy_backend(self):
        weights, values, indptr, dim = self._case()
        with compiled.force_backend("numpy"):
            assert compiled.try_segment_weighted_sum(weights, values, indptr, dim) is None

    def test_returns_none_for_float32(self):
        weights, values, indptr, dim = self._case()
        assert (
            compiled.try_segment_weighted_sum(
                weights.astype(np.float32), values.astype(np.float32), indptr, dim
            )
            is None
        )

    def test_returns_none_for_empty_edges(self):
        indptr = np.zeros(5, dtype=np.int64)
        weights = np.zeros((2, 0))
        values = np.zeros((2, 0, 4))
        assert compiled.try_segment_weighted_sum(weights, values, indptr, 4) is None
