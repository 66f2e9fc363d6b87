"""Tests for the compiled kernels (repro.core.compiled).

The contract under test: the fused row kernel ``edge_attention`` agrees with
its NumPy fallback to float64 round-off on every arena storage, layout and
row shape, and exactly with itself across the layouts the serving stack
relies on (ragged == per-session, int8 == fp32 fed the dequantized rows);
its memory stays O(L·d); the int8 dequant-gather is bit-identical across
backends and refuses rows outside the arena; the C library is built once per
hash of its source, flags, host target and compiler, falls back to the
portable build when the compiler refuses the host target, returns the same
bits in both builds, and is never loaded from an untrusted or corrupt cache;
and ``REPRO_COMPILED`` forces the NumPy fallback so the whole stack runs
without any compiler present.
"""

import ctypes
import hashlib
import os
import pathlib
import shutil
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import repro
from repro.core import compiled
from repro.core.explicit_kernels import csr_attention
from repro.masks.windowed import LocalMask
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
    def test_backend_is_one_of_the_two(self):
        assert compiled.backend() in {"cext", "numpy"}

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
        with pytest.raises(ValueError):
            compiled.force_backend("numba")

    def test_force_backend_numpy_pins_and_restores(self):
        before = compiled.backend()
        with compiled.force_backend("numpy"):
            assert compiled.backend() == "numpy"
        assert compiled.backend() == before


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

    @pytest.mark.parametrize("backend_name", ["cext", "numpy"])
    def test_rows_outside_the_arena_are_refused(self, backend_name):
        if backend_name == "cext" and _compiled_name() is None:
            pytest.skip("no compiled backend available")
        rng = np.random.default_rng(3)
        arena, scale, zero = quantize_rows(rng.normal(size=(2, 6, 4)).astype(np.float32))
        with compiled.force_backend(backend_name):
            for bad in ([-1], [6], [0, 6]):
                with pytest.raises(ValueError, match="out of range"):
                    compiled.gather_dequant_int8(arena, scale, zero, np.array(bad))
            out = compiled.gather_dequant_int8(arena, scale, zero, np.array([5]))
        expect = (arena[:, [5]].astype(np.float32) - zero[:, [5], None]) * scale[:, [5], None]
        assert_array_equal(out, expect)

    def test_matches_manual_dequant(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(8, 4)).astype(np.float32)
        arena, scale, zero = quantize_rows(raw)
        rows = np.array([5, 0, 5], dtype=np.int64)
        out = compiled.gather_dequant_int8(arena, scale, zero, rows)
        expect = (arena[rows].astype(np.float32) - zero[rows, None]) * scale[rows, None]
        assert_array_equal(out, expect)


# --------------------------------------------------------------------------- #
# Build cache
# --------------------------------------------------------------------------- #
_CHILD = """
import numpy as np
from repro.core import compiled
assert compiled.backend() == "cext", compiled.backend_error()
q = (np.arange(12, dtype=np.float32).reshape(3, 4) - 5) / 4
arena = compiled.Arena(q, q[:, :3])
rows, indptr = np.array([0, 2, 1, 0]), np.array([0, 1, 1, 4])
fast = compiled.edge_attention(q, arena, rows, indptr, 0.5)
with compiled.force_backend("numpy"):
    slow = compiled.edge_attention(q, arena, rows, indptr, 0.5)
for a, b in zip(fast, slow):
    assert np.allclose(a, b, rtol=1e-12, atol=0), (a, b)
"""


def _cc_wrapper(tmp_path, refuse=None):
    """A ``CC`` that logs one line per library it is asked to build (an
    invocation with ``-shared``: the host target probe is not a build):
    ``refused`` and exit 1 when its arguments contain the run of arguments
    ``refuse``, else ``compile`` before it runs the real compiler."""
    real = compiled._find_cc()
    if real is None:
        pytest.skip("no C compiler on PATH")
    log = tmp_path / "compiles.log"
    wrapper = tmp_path / "cc-wrapper"
    builds = 'for arg in "$@"; do [ "$arg" = -shared ] && echo {} >> "%s"; done' % log
    lines = ["#!/bin/sh"]
    if refuse:
        lines.append(f'case " $* " in *" {refuse} "*) {builds.format("refused")}; exit 1;; esac')
    lines += [builds.format("compile"), f'exec "{shutil.which(real)}" "$@"']
    wrapper.write_text("\n".join(lines) + "\n")
    wrapper.chmod(0o755)
    temp = tmp_path / "tmp"
    temp.mkdir()
    return wrapper, log, temp


@pytest.fixture
def wrapped_cc(tmp_path):
    return _cc_wrapper(tmp_path)


def _run_child(wrapper, temp):
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(temp), CC=str(wrapper), REPRO_COMPILED="cext", PYTHONPATH=path)
    completed = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True, timeout=300, env=env)
    assert completed.returncode == 0, completed.stderr[-2000:]


def _compiles(log, outcome="compile"):
    return log.read_text().splitlines().count(outcome) if log.exists() else 0


class TestBuildCache:
    def test_processes_share_one_build_and_a_corrupt_library_is_rebuilt(self, wrapped_cc):
        wrapper, log, temp = wrapped_cc
        _run_child(wrapper, temp)
        assert _compiles(log) == 1
        _run_child(wrapper, temp)  # loads the first process's library
        assert _compiles(log) == 1
        (cache_dir,) = temp.glob("repro-compiled-*")
        target = compiled._host_target(str(wrapper))
        assert cache_dir.name == "repro-compiled-" + compiled._build_key(str(wrapper), target)
        assert stat.S_IMODE(cache_dir.stat().st_mode) == 0o700
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "repro_compiled.so",
            "repro_compiled.so.sha256",
        ]
        (cache_dir / "repro_compiled.so").write_bytes(b"\x7fELF not a library")
        _run_child(wrapper, temp)  # digest mismatch: rebuilt, never loaded
        assert _compiles(log) == 2
        assert list(temp.glob("repro-compiled-*")) == [cache_dir]
        _run_child(wrapper, temp)
        assert _compiles(log) == 2

    def test_untrusted_cache_directory_is_never_loaded_from(self, wrapped_cc):
        wrapper, log, temp = wrapped_cc
        key = compiled._build_key(str(wrapper), compiled._host_target(str(wrapper)))
        planted = temp / ("repro-compiled-" + key)
        planted.mkdir()
        planted.chmod(0o777)  # world-writable: anyone could have put this here
        payload = b"\x7fELF planted"
        (planted / "repro_compiled.so").write_bytes(payload)
        (planted / "repro_compiled.so.sha256").write_text(hashlib.sha256(payload).hexdigest())
        _run_child(wrapper, temp)  # builds privately and still runs the kernel
        assert _compiles(log) == 1
        assert (planted / "repro_compiled.so").read_bytes() == payload
        assert list(temp.glob("repro-*")) == [planted]

    @pytest.mark.parametrize("refuse", ["-march=native", "-shared -march=native"], ids=["flag", "build"])
    def test_a_compiler_refusing_the_host_target_builds_the_portable_library(self, tmp_path, refuse):
        """Refused in the target probe too ("flag"), or only when building
        with it ("build"): either way the portable library is built and run.
        A refused build is recorded in its key's directory, so the next
        process neither compiles nor asks for the refused build again."""
        wrapper, log, temp = _cc_wrapper(tmp_path, refuse=refuse)
        target = compiled._host_target(str(wrapper))
        assert (target is None) == (refuse == "-march=native")
        refused = int(target is not None)
        for _ in range(2):
            _run_child(wrapper, temp)  # the child asserts backend() == "cext"
            assert (_compiles(log), _compiles(log, "refused")) == (1, refused)
        portable = temp / ("repro-compiled-" + compiled._build_key(str(wrapper), None))
        assert sorted(p.name for p in portable.iterdir()) == ["repro_compiled.so", "repro_compiled.so.sha256"]
        hosts = [sorted(p.name for p in d.iterdir()) for d in temp.glob("repro-compiled-*") if d != portable]
        assert hosts == [["repro_compiled.so.refused"]] * refused

    def test_build_key_changes_with_the_resolved_target(self):
        targets = (None, "-march=skylake", "-march=skylake -mavx512f", "-march=znver3")
        assert len({compiled._build_key("/usr/bin/cc", target) for target in targets}) == len(targets)


# --------------------------------------------------------------------------- #
# The fused row kernel
# --------------------------------------------------------------------------- #
LENGTH, KEY_DIM, VALUE_DIM = 16, 7, 5  # d_k = 7 runs the dot product's tail

#: per-row degrees: empty rows, one-edge rows and a degree-L row among others
DEGREES = [0, 1, LENGTH, 3, 0, 1, 5, 2, 4, 0, 6, 1, 2, 3, 0, 7]


def _layout(rng):
    indptr = np.concatenate([[0], np.cumsum(DEGREES)]).astype(np.int64)
    picks = [np.arange(LENGTH) if n == LENGTH else rng.integers(0, LENGTH, size=n) for n in DEGREES]
    return np.concatenate(picks).astype(np.int32), indptr


def _arena(rng, batch_shape, storage, length=LENGTH, key_dim=KEY_DIM, value_dim=VALUE_DIM):
    keys = rng.standard_normal(batch_shape + (length, key_dim)).astype(np.float32)
    values = rng.standard_normal(batch_shape + (length, value_dim)).astype(np.float32)
    if storage == "int8":
        k8, k_scale, k_zero = quantize_rows(keys)
        v8, v_scale, v_zero = quantize_rows(values)
        return compiled.Arena(k8, v8, (k_scale, k_zero), (v_scale, v_zero))
    dtype = {"fp32": np.float32, "fp64": np.float64, "fp16": np.float16}[storage]
    return compiled.Arena(keys.astype(dtype), values.astype(dtype))


def _dequantized(arena):
    """The fp32 arena of an int8 arena's dequantized rows."""
    (k_scale, k_zero), (v_scale, v_zero) = arena.k_params, arena.v_params
    return compiled.Arena(
        (arena.keys.astype(np.float32) - k_zero[..., None]) * k_scale[..., None],
        (arena.values.astype(np.float32) - v_zero[..., None]) * v_scale[..., None],
    )


def _assert_round_off(fast, slow):
    for a, b in zip(fast, slow):
        assert a.shape == b.shape
        assert_allclose(a, b, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("storage", ["fp32", "fp64", "fp16", "int8"])
@pytest.mark.parametrize("q_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch_shape", [(), (2,), (2, 3)])
class TestEdgeAttentionAgainstFallback:
    def test_kernel_matches_numpy_fallback(self, batch_shape, q_dtype, storage):
        if _compiled_name() is None:
            pytest.skip("no compiled backend available")
        rng = np.random.default_rng(7)
        cols, indptr = _layout(rng)
        arena = _arena(rng, batch_shape, storage)
        q = rng.standard_normal(batch_shape + (LENGTH, KEY_DIM)).astype(q_dtype)
        fast = compiled.edge_attention(q, arena, cols, indptr, 0.4)
        with compiled.force_backend("numpy"):
            slow = compiled.edge_attention(q, arena, cols, indptr, 0.4)
        _assert_round_off(fast, slow)
        output, row_max, row_sum = fast
        assert output.shape == batch_shape + (LENGTH, VALUE_DIM)
        empty = np.asarray(DEGREES) == 0
        assert np.all(output[..., empty, :] == 0)
        assert np.all(row_max[..., empty] == -np.inf) and np.all(row_sum[..., empty] == 0)

    def test_ragged_rows_equal_per_session_calls(self, batch_shape, q_dtype, storage):
        """Sessions' rows laid end to end in one call == one call each, exactly,
        on whichever backend is active."""
        rng = np.random.default_rng(11)
        arena = _arena(rng, batch_shape, storage)
        sessions = []
        for count in (3, 1, 9):
            lo = int(rng.integers(0, LENGTH - count))
            indptr = np.concatenate([[0], np.cumsum(DEGREES[lo : lo + count])]).astype(np.int64)
            rows = rng.integers(0, LENGTH, size=int(indptr[-1])).astype(np.int64)
            q = rng.standard_normal(batch_shape + (count, KEY_DIM)).astype(q_dtype)
            sessions.append((q, rows, indptr))
        shifts = np.cumsum([0] + [int(p[-1]) for _, _, p in sessions[:-1]])
        q = np.concatenate([s[0] for s in sessions], axis=-2)
        rows = np.concatenate([s[1] for s in sessions])
        indptr = np.concatenate([[0]] + [p[1:] + shift for (_, _, p), shift in zip(sessions, shifts)])
        ragged = compiled.edge_attention(q, arena, rows, indptr, 0.4)
        output, row_max, row_sum = ragged
        row = 0
        for session_q, session_rows, session_indptr in sessions:
            single = compiled.edge_attention(session_q, arena, session_rows, session_indptr, 0.4)
            count = session_q.shape[-2]
            assert_array_equal(output[..., row : row + count, :], single[0])
            assert_array_equal(row_max[..., row : row + count], single[1])
            assert_array_equal(row_sum[..., row : row + count], single[2])
            row += count
        with compiled.force_backend("numpy"):
            slow = compiled.edge_attention(q, arena, rows, indptr, 0.4)
        _assert_round_off(ragged, slow)


class TestHostBuild:
    """The host-ISA build returns the portable build's bits: the dot product's
    eight lanes reduce in one fixed order and neither build fuses into FMAs."""

    @pytest.mark.parametrize("key_dim, value_dim", [(KEY_DIM, VALUE_DIM), (67, 33)])
    def test_host_and_portable_builds_are_bit_identical(self, tmp_path, monkeypatch, key_dim, value_dim):
        cc = compiled._find_cc()
        if cc is None or _compiled_name() is None:
            pytest.skip("no compiled backend available")
        target = compiled._host_target(shutil.which(cc))
        if target is None:
            pytest.skip("the compiler resolves no host target")
        libraries = []
        for name, build_target in (("portable", None), ("host", target)):
            path = tmp_path / f"{name}.so"
            compiled._compile(cc, str(tmp_path), str(path), build_target)
            libraries.append(compiled._bind(ctypes.CDLL(str(path))))
        rng = np.random.default_rng(17)
        cols, indptr = _layout(rng)
        for storage in ("fp32", "fp64", "int8"):
            arena = _arena(rng, (2,), storage, key_dim=key_dim, value_dim=value_dim)
            for q_dtype in (np.float32, np.float64):
                q = rng.standard_normal((2, LENGTH, key_dim)).astype(q_dtype)
                results = []
                with compiled.force_backend("cext"):
                    for library in libraries:
                        monkeypatch.setattr(compiled, "_cext", library)
                        results.append(compiled.edge_attention(q, arena, cols, indptr, 0.4))
                for portable, host in zip(*results):
                    assert_array_equal(portable, host)


class TestEdgeAttentionExactness:
    @pytest.mark.parametrize("backend_name", ["cext", "numpy"])
    def test_int8_arena_equals_fp32_arena_of_dequantized_rows(self, backend_name):
        if backend_name == "cext" and _compiled_name() is None:
            pytest.skip("no compiled backend available")
        rng = np.random.default_rng(5)
        cols, indptr = _layout(rng)
        arena = _arena(rng, (2,), "int8")
        q = rng.standard_normal((2, LENGTH, KEY_DIM)).astype(np.float32)
        for q_dtype, rows_dtype in ((np.float32, np.int32), (np.float64, np.int64)):
            with compiled.force_backend(backend_name):
                quantized = compiled.edge_attention(q.astype(q_dtype), arena, cols.astype(rows_dtype), indptr, 0.4)
                oracle = compiled.edge_attention(q.astype(q_dtype), _dequantized(arena), cols, indptr, 0.4)
            for a, b in zip(quantized, oracle):
                assert_array_equal(a, b)

    @pytest.mark.parametrize("backend_name", ["cext", "numpy"])
    def test_row_stats_are_the_softmax_statistics_of_the_scaled_scores(self, backend_name):
        """``row_max`` and ``row_sum`` against scores computed densely here:
        the maximum of ``scale · q·k`` over a row's edges and the sum of
        ``exp(score - row_max)``; the output is that softmax over the values."""
        if backend_name == "cext" and _compiled_name() is None:
            pytest.skip("no compiled backend available")
        rng = np.random.default_rng(13)
        cols, indptr = _layout(rng)
        arena = _arena(rng, (2,), "fp64")
        q = rng.standard_normal((2, LENGTH, KEY_DIM))
        with compiled.force_backend(backend_name):
            output, row_max, row_sum = compiled.edge_attention(q, arena, cols, indptr, 0.4)
        for head in range(2):
            for row, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
                if lo == hi:
                    continue
                keys = arena.keys[head, cols[lo:hi]]
                scores = 0.4 * (keys @ q[head, row])
                weights = np.exp(scores - scores.max())
                assert_allclose(row_max[head, row], scores.max(), rtol=1e-12, atol=0)
                assert_allclose(row_sum[head, row], weights.sum(), rtol=1e-12, atol=0)
                expected = weights @ arena.values[head, cols[lo:hi]] / weights.sum()
                assert_allclose(output[head, row], expected, rtol=1e-12, atol=1e-14)

    def test_rows_with_no_edges_at_all(self):
        q = np.ones((3, 4), dtype=np.float32)
        for storage in ("fp32", "int8"):
            arena = _arena(np.random.default_rng(37), (), storage, length=2, key_dim=4, value_dim=3)
            empty = np.zeros(0, np.int64)
            output, row_max, row_sum = compiled.edge_attention(q, arena, empty, np.zeros(4, np.int64), 1.0)
            assert output.shape == (3, 3) and not output.any()
            assert np.all(row_max == -np.inf) and not row_sum.any()

    def test_kernel_refuses_rows_outside_the_arena(self):
        """Whether the kernel reads the arena in place or an int8 arena's
        dequantized rows, with int32 or int64 rows."""
        if _compiled_name() is None:
            pytest.skip("no compiled backend available")
        q = np.ones((2, 4), dtype=np.float32)
        indptr = np.array([0, 1, 2])
        for storage, rows_dtype in (("fp32", np.int64), ("int8", np.int32), ("int8", np.int64)):
            arena = _arena(np.random.default_rng(41), (), storage, length=3, key_dim=4, value_dim=4)
            for bad in ([0, 3], [-1, 0]):
                with pytest.raises(ValueError, match="out of range"):
                    compiled.edge_attention(q, arena, np.array(bad, dtype=rows_dtype), indptr, 1.0)
            with pytest.raises(ValueError, match="indptr"):
                compiled.edge_attention(q, arena, np.array([0, 1], dtype=rows_dtype), np.array([0, 2, 1]), 1.0)

    def test_indptr_must_cover_the_edges(self):
        q = np.ones((2, 4), dtype=np.float32)
        arena = compiled.Arena(np.ones((3, 4), np.float32), np.ones((3, 4), np.float32))
        with pytest.raises(ValueError):
            compiled.edge_attention(q, arena, np.array([0, 1, 2]), np.array([0, 1, 2]), 1.0)


@pytest.fixture(scope="module")
def local_masks_16k():
    return {window: LocalMask(window).to_csr(16384) for window in (32, 64)}


class TestMemoryBound:
    """The one-shot CSR kernel holds O(L·d), not O(nnz·d), on both backends."""

    @pytest.mark.parametrize("backend_name", ["cext", "numpy"])
    def test_csr_attention_peak_does_not_grow_with_edges(self, backend_name, local_masks_16k):
        if backend_name == "cext" and _compiled_name() is None:
            pytest.skip("no compiled backend available")
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((16384, 16), dtype=np.float32) for _ in range(3))
        assert local_masks_16k[64].nnz == 2_076_736
        peaks = {}
        with compiled.force_backend(backend_name):
            for window, csr in local_masks_16k.items():
                tracemalloc.start()
                try:
                    csr_attention(q, k, v, csr)
                    peaks[window] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[64] <= 64 * 2**20, peaks
        assert peaks[64] < 1.1 * peaks[32], peaks


# --------------------------------------------------------------------------- #
# int8 calls: each distinct row dequantized once per call
# --------------------------------------------------------------------------- #
class TestInt8Calls:
    """However often a call reads a row and however large the arena, an int8
    call equals an fp32 arena of the dequantized rows exactly."""

    def test_over_a_shared_prefix(self):
        """A prefill over a shared prefix reads each prefix row from every
        query row: each int8 row is read hundreds of times in one call."""
        rng = np.random.default_rng(23)
        prefix, count = 512, 256
        arena = _arena(rng, (4,), "int8", length=prefix + count)
        positions = np.arange(prefix, prefix + count)
        rows = np.concatenate([np.arange(p + 1) for p in positions]).astype(np.int64)
        indptr = np.concatenate([[0], np.cumsum(positions + 1)])
        q = rng.standard_normal((4, count, KEY_DIM)).astype(np.float32)
        assert rows.size > 100 * np.unique(rows).size
        quantized = compiled.edge_attention(q, arena, rows, indptr, 0.3)
        oracle = compiled.edge_attention(q, _dequantized(arena), rows, indptr, 0.3)
        for a, b in zip(quantized, oracle):
            assert_array_equal(a, b)

    def test_arena_of_a_million_rows_touched_at_a_few(self):
        """The dequantized copy holds only the rows a call reads: a call on a
        2**20-row int8 arena equals an fp32 arena holding just those rows."""
        rng = np.random.default_rng(29)
        arena_rows, dim, touched = 1 << 20, 8, 48
        hot = np.sort(rng.choice(arena_rows, size=touched, replace=False))
        hot[-1] = arena_rows - 1  # the arena's last row among them
        keys = np.zeros((arena_rows, dim), dtype=np.int8)
        values = np.zeros((arena_rows, dim), dtype=np.int8)
        k_scale, v_scale = np.ones(arena_rows, np.float32), np.ones(arena_rows, np.float32)
        k_zero, v_zero = np.zeros(arena_rows, np.float32), np.zeros(arena_rows, np.float32)
        for array in (keys, values):
            array[hot] = rng.integers(-128, 128, size=(touched, dim))
        for scale in (k_scale, v_scale):
            scale[hot] = rng.uniform(0.01, 0.1, size=touched)
        for zero in (k_zero, v_zero):
            zero[hot] = rng.uniform(-5, 5, size=touched)
        arena = compiled.Arena(keys, values, (k_scale, k_zero), (v_scale, v_zero))
        count, degree = 2048, 24
        rows = hot[rng.integers(0, touched, size=count * degree)]
        indptr = np.arange(0, count * degree + 1, degree)
        q = rng.standard_normal((count, dim)).astype(np.float32)
        compact = _dequantized(
            compiled.Arena(keys[hot], values[hot], (k_scale[hot], k_zero[hot]), (v_scale[hot], v_zero[hot]))
        )
        quantized = compiled.edge_attention(q, arena, rows, indptr, 0.3)
        oracle = compiled.edge_attention(q, compact, np.searchsorted(hot, rows), indptr, 0.3)
        for a, b in zip(quantized, oracle):
            assert_array_equal(a, b)
