"""Optional compiled fast paths for the paged-KV gather/dequant hot loops.

The serving stack's per-token inner loops are short, gather-shaped kernels:
fancy-index K/V rows out of the block arena (dequantizing int8 storage on the
way) and segment-reduce the weighted value rows.  Pure NumPy evaluates each
as a chain of whole-array passes with temporaries; this module offers a fused
single-pass implementation behind an auto-detected backend:

* **numba** — ``@njit`` kernels, used when :mod:`numba` is importable;
* **cext** — a tiny C file compiled at first use with the system C compiler
  and loaded through :mod:`ctypes` (no build step, no install);
* **numpy** — the pure-NumPy fallback, always available.

The gather/dequant kernels are **bit-identical** to the NumPy fallback: they
perform the same float32 operations per element in the same order (a gather
is a copy; int8 dequant is ``(float(q) - zp) * scale``), so switching
backends never changes a single output bit at fp32 or int8 storage.  The
fused segment-reduce accumulates *sequentially* where ``np.add.reduceat``
reduces pairwise, so it agrees with the fallback only to accumulator-dtype
round-off (~1e-12 relative at float64); every decode path shares one
implementation per process, which keeps the stack's internal bit-exactness
invariants (paged == private, stacked == individual) intact either way.

Backend selection honours ``REPRO_COMPILED``:

* unset / ``auto`` / ``1`` — numba if importable, else cext, else numpy;
* ``0`` / ``off`` / ``numpy`` — force the pure-NumPy fallback;
* ``numba`` / ``cext`` — force one compiled backend (falls back to numpy,
  recording the reason in :func:`backend_error`, when it cannot be built).
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import threading
from typing import Optional

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>

void gather_rows_f32(const float *arena, const int64_t *rows,
                     int64_t batch, int64_t arena_rows, int64_t count,
                     int64_t dim, float *out)
{
    for (int64_t b = 0; b < batch; b++) {
        const float *src_base = arena + b * arena_rows * dim;
        float *dst = out + b * count * dim;
        for (int64_t e = 0; e < count; e++) {
            const float *src = src_base + rows[e] * dim;
            for (int64_t j = 0; j < dim; j++)
                dst[e * dim + j] = src[j];
        }
    }
}

void gather_dequant_i8(const int8_t *arena, const float *scale,
                       const float *zero, const int64_t *rows,
                       int64_t batch, int64_t arena_rows, int64_t count,
                       int64_t dim, float *out)
{
    for (int64_t b = 0; b < batch; b++) {
        const int8_t *src_base = arena + b * arena_rows * dim;
        const float *s_base = scale + b * arena_rows;
        const float *z_base = zero + b * arena_rows;
        float *dst = out + b * count * dim;
        for (int64_t e = 0; e < count; e++) {
            const int8_t *src = src_base + rows[e] * dim;
            const float s = s_base[rows[e]];
            const float z = z_base[rows[e]];
            for (int64_t j = 0; j < dim; j++)
                dst[e * dim + j] = ((float)src[j] - z) * s;
        }
    }
}

void segment_weighted_sum_f64(const double *weights, const double *values,
                              const int64_t *indptr, int64_t batch,
                              int64_t num_rows, int64_t num_edges,
                              int64_t dim, double *out)
{
    for (int64_t b = 0; b < batch; b++) {
        const double *w = weights + b * num_edges;
        const double *v = values + b * num_edges * dim;
        double *dst = out + b * num_rows * dim;
        for (int64_t i = 0; i < num_rows; i++) {
            double *acc = dst + i * dim;
            for (int64_t j = 0; j < dim; j++)
                acc[j] = 0.0;
            for (int64_t e = indptr[i]; e < indptr[i + 1]; e++) {
                const double we = w[e];
                const double *ve = v + e * dim;
                for (int64_t j = 0; j < dim; j++)
                    acc[j] += we * ve[j];
            }
        }
    }
}
"""

_I64 = ctypes.c_int64
_lock = threading.Lock()
_backend: Optional[str] = None  # resolved lazily: "numba" | "cext" | "numpy"
_backend_error: Optional[str] = None
_cext = None  # loaded ctypes library
_numba_kernels = None  # dict of jitted functions


# --------------------------------------------------------------------------- #
# Backend detection
# --------------------------------------------------------------------------- #
def _try_numba() -> bool:
    global _numba_kernels
    try:  # pragma: no cover - exercised only where numba is installed
        import numba
    except ImportError:
        return False

    @numba.njit(cache=False)  # pragma: no cover
    def gather_rows(arena, rows, out):
        batch, count, dim = out.shape
        for b in range(batch):
            for e in range(count):
                src = rows[e]
                for j in range(dim):
                    out[b, e, j] = arena[b, src, j]

    @numba.njit(cache=False)  # pragma: no cover
    def gather_dequant(arena, scale, zero, rows, out):
        batch, count, dim = out.shape
        for b in range(batch):
            for e in range(count):
                src = rows[e]
                s = scale[b, src]
                z = zero[b, src]
                for j in range(dim):
                    out[b, e, j] = (np.float32(arena[b, src, j]) - z) * s

    @numba.njit(cache=False)  # pragma: no cover
    def segment_sum(weights, values, indptr, out):
        batch, num_rows, dim = out.shape
        for b in range(batch):
            for i in range(num_rows):
                for j in range(dim):
                    out[b, i, j] = 0.0
                for e in range(indptr[i], indptr[i + 1]):
                    we = weights[b, e]
                    for j in range(dim):
                        out[b, i, j] += we * values[b, e, j]

    _numba_kernels = {
        "gather_rows": gather_rows,
        "gather_dequant": gather_dequant,
        "segment_sum": segment_sum,
    }
    return True


def _find_cc() -> Optional[str]:
    import shutil

    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _try_cext() -> bool:
    """Compile and load the C kernels; False (with the reason recorded) on failure."""
    global _cext, _backend_error
    cc = _find_cc()
    if cc is None:
        _backend_error = "no C compiler on PATH"
        return False
    try:
        # the build directory goes once the library is loaded: the process
        # keeps its mapping of the unlinked file (POSIX), and nothing is left
        # behind in the temp directory
        with tempfile.TemporaryDirectory(prefix="repro-compiled-") as build_dir:
            src = os.path.join(build_dir, "repro_compiled.c")
            lib_path = os.path.join(build_dir, "repro_compiled.so")
            with open(src, "w", encoding="utf-8") as handle:
                handle.write(_C_SOURCE)
            # -O2 without -ffast-math: the dequant path must keep IEEE float32
            # semantics so results stay bit-identical to the NumPy fallback
            result = subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", lib_path, src],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if result.returncode != 0:
                _backend_error = f"{cc} failed: {result.stderr.strip()[:500]}"
                return False
            lib = ctypes.CDLL(lib_path)
        for name in ("gather_rows_f32", "gather_dequant_i8", "segment_weighted_sum_f64"):
            getattr(lib, name).restype = None
        _cext = lib
        return True
    except (OSError, subprocess.SubprocessError) as exc:
        _backend_error = f"cext build failed: {exc}"
        return False


def _resolve_backend() -> str:
    global _backend_error
    raw = os.environ.get("REPRO_COMPILED", "auto").strip().lower()
    if raw in {"0", "off", "false", "no", "numpy"}:
        return "numpy"
    if raw == "numba":
        if _try_numba():
            return "numba"
        _backend_error = _backend_error or "numba is not importable"
        return "numpy"
    if raw == "cext":
        return "cext" if _try_cext() else "numpy"
    # auto: prefer numba (no toolchain dependency), then the C extension
    if _try_numba():
        return "numba"
    if _try_cext():
        return "cext"
    return "numpy"


def _ensure_backend() -> str:
    global _backend
    if _backend is None:
        with _lock:
            if _backend is None:
                _backend = _resolve_backend()
    return _backend


def backend() -> str:
    """The active backend name: ``"numba"``, ``"cext"`` or ``"numpy"``."""
    return _ensure_backend()


def backend_error() -> Optional[str]:
    """Why a requested compiled backend fell back to numpy, if it did."""
    _ensure_backend()
    return _backend_error


def reset_backend() -> None:
    """Forget the resolved backend (tests re-read ``REPRO_COMPILED`` after this)."""
    global _backend, _backend_error
    with _lock:
        _backend = None
        _backend_error = None


class force_backend:
    """Context manager pinning the backend (benchmarks compare paths with it)."""

    def __init__(self, name: str) -> None:
        if name not in {"numba", "cext", "numpy"}:
            raise ValueError(f"unknown backend {name!r}")
        self.name = name
        self._saved: Optional[str] = None

    def __enter__(self) -> "force_backend":
        global _backend
        _ensure_backend()
        with _lock:
            self._saved = _backend
            if self.name == "numba" and _numba_kernels is None and not _try_numba():
                raise RuntimeError("numba backend is not available")
            if self.name == "cext" and _cext is None and not _try_cext():
                raise RuntimeError(f"cext backend is not available: {_backend_error}")
            _backend = self.name
        return self

    def __exit__(self, *exc) -> None:
        global _backend
        with _lock:
            _backend = self._saved


# --------------------------------------------------------------------------- #
# Shape plumbing
# --------------------------------------------------------------------------- #
def _flat3(array: np.ndarray) -> np.ndarray:
    """View ``(..., R, d)`` as contiguous ``(B, R, d)`` (copying only if needed)."""
    rows, dim = array.shape[-2], array.shape[-1]
    return np.ascontiguousarray(array).reshape(-1, rows, dim)


def _ptr(array: np.ndarray, ctype):
    return array.ctypes.data_as(ctypes.POINTER(ctype))


# --------------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------------- #
def gather_rows(arena: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fancy-index ``arena[..., rows, :]`` — a fused copy on compiled backends.

    ``arena`` is ``(..., R, d)`` float32; ``rows`` is a 1-D int64 index
    vector.  All backends return bit-identical results (a gather moves
    bytes), so this is safe on every decode path.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    which = _ensure_backend()
    if which == "numpy" or arena.dtype != np.float32:
        return arena[..., rows, :]
    flat = _flat3(arena)
    batch, arena_rows, dim = flat.shape
    out = np.empty((batch, rows.size, dim), dtype=np.float32)
    if rows.size:
        if which == "numba":  # pragma: no cover - requires numba
            _numba_kernels["gather_rows"](flat, rows, out)
        else:
            _cext.gather_rows_f32(
                _ptr(flat, ctypes.c_float),
                _ptr(rows, _I64),
                _I64(batch),
                _I64(arena_rows),
                _I64(rows.size),
                _I64(dim),
                _ptr(out, ctypes.c_float),
            )
    return out.reshape(arena.shape[:-2] + (rows.size, dim))


def gather_dequant_int8(
    arena: np.ndarray,
    scale: np.ndarray,
    zero: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Gather int8 rows and dequantize to float32: ``(float(q) - zp) * scale``.

    ``arena`` is ``(..., R, d)`` int8; ``scale``/``zero`` are ``(..., R)``
    float32 per-row affine parameters sharing the arena's row indexing;
    ``rows`` is 1-D int64.  Compiled backends fuse the gather and the two
    float32 ops into one pass and are bit-identical to the NumPy fallback
    (same operations, same order, per element).
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    which = _ensure_backend()
    if which == "numpy":
        gathered = arena[..., rows, :].astype(np.float32)
        z = zero[..., rows]
        s = scale[..., rows]
        return (gathered - z[..., None]) * s[..., None]
    flat = _flat3(arena)
    batch, arena_rows, dim = flat.shape
    scale2 = np.ascontiguousarray(scale, dtype=np.float32).reshape(batch, arena_rows)
    zero2 = np.ascontiguousarray(zero, dtype=np.float32).reshape(batch, arena_rows)
    out = np.empty((batch, rows.size, dim), dtype=np.float32)
    if rows.size:
        if which == "numba":  # pragma: no cover - requires numba
            _numba_kernels["gather_dequant"](flat, scale2, zero2, rows, out)
        else:
            _cext.gather_dequant_i8(
                _ptr(flat, ctypes.c_int8),
                _ptr(scale2, ctypes.c_float),
                _ptr(zero2, ctypes.c_float),
                _ptr(rows, _I64),
                _I64(batch),
                _I64(arena_rows),
                _I64(rows.size),
                _I64(dim),
                _ptr(out, ctypes.c_float),
            )
    return out.reshape(arena.shape[:-2] + (rows.size, dim))


def try_segment_weighted_sum(
    weights: np.ndarray, values: np.ndarray, indptr: np.ndarray, value_dim: int
) -> Optional[np.ndarray]:
    """Fused per-row ``sum(weights * values)`` over CSR segments, or ``None``.

    Returns ``None`` when no compiled backend is active or the dtypes are not
    the float64 accumulator layout the decode paths use — the caller then
    falls through to the ``np.add.reduceat`` implementation.  The compiled
    reduction is sequential per segment (reduceat is pairwise), so results
    agree to float64 round-off rather than bit-for-bit; all serving paths
    share whichever implementation is active, preserving cross-path
    bit-exactness within a process.
    """
    which = _ensure_backend()
    if which == "numpy":
        return None
    if weights.dtype != np.float64 or values.dtype != np.float64:
        return None
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    num_rows = indptr.size - 1
    num_edges = weights.shape[-1]
    if num_rows <= 0 or num_edges == 0 or value_dim == 0:
        return None  # degenerate shapes: the reduceat fallback handles them
    if values.shape[-2] != num_edges or values.shape[-1] != value_dim:
        return None
    batch_shape = weights.shape[:-1]
    if values.shape[:-2] != batch_shape:
        return None
    w2 = np.ascontiguousarray(weights).reshape(-1, num_edges)
    v3 = _flat3(values)
    batch = w2.shape[0]
    out = np.zeros((batch, num_rows, value_dim), dtype=np.float64)
    if num_edges and num_rows:
        if which == "numba":  # pragma: no cover - requires numba
            _numba_kernels["segment_sum"](w2, v3, indptr, out)
        else:
            _cext.segment_weighted_sum_f64(
                _ptr(w2, ctypes.c_double),
                _ptr(v3, ctypes.c_double),
                _ptr(indptr, _I64),
                _I64(batch),
                _I64(num_rows),
                _I64(num_edges),
                _I64(value_dim),
                _ptr(out, ctypes.c_double),
            )
    return out.reshape(batch_shape + (num_rows, value_dim))


__all__ = [
    "backend",
    "backend_error",
    "force_backend",
    "gather_dequant_int8",
    "gather_rows",
    "reset_backend",
    "try_segment_weighted_sum",
]
