"""Algorithm 1's fused row kernel, with a compiled and a NumPy backend.

Every vectorised attention core in the package ends in :func:`edge_attention`:
the one-shot CSR/COO kernels (every plan's ``csr`` step) and the serving
stack's prefill, decode and stacked passes.  It runs Algorithm 1
per query row in two passes over the row's CSR edges: the first does one
dot product per edge into a score buffer and takes the row's maximum, the
second one float64 ``exp`` and one value fold per edge, so the accumulator
is never rescaled.  It reads the K/V rows *in place* from an arena by row
index.  No K/V row is copied per edge, so memory stays O(L·d) — Q/K/V/O
plus the two O(L) softmax statistics and one score per edge of the widest
row, the paper's own bound (Section IV-B, Table II) — where gathering
per-edge K/V copies costs O(nnz·d).  (An int8 call also holds one float32
copy of each distinct row it reads and O(nnz) row indices; see below.)

Two backends:

* **cext** — a small C file compiled with the system C compiler at first use
  and loaded through :mod:`ctypes` (no build step, no install).  It is
  built for the host's ISA (``-march=native``) when the compiler resolves
  that flag to a target, and with the portable flags when it does not or
  cannot build with it.  The library is cached per hash of its source,
  flags, resolved host target and compiler path in
  ``<tempdir>/repro-compiled-<sha256>/``, so only the first process on a
  host pays the build and a shared cache never loads a library built for
  another CPU; a cache directory that is not the user's own with mode 0700
  is never trusted (the library is then built privately, in a temporary
  directory removed once it is loaded).
* **numpy** — the pure-NumPy fallback, always available, and the tests'
  reference.  It gathers, scores and reduces one chunk of rows at a time
  (:data:`_FALLBACK_CHUNK_ELEMENTS`), so its memory is bounded too.

Exactness: each row's reduction is sequential and independent of every
other row of the call, so within one backend a row's result depends only on
its own query and K/V rows — stacked == individual and paged == contiguous
hold by construction.  The C kernel sums each dot product in a fixed order
(eight lanes, element ``j`` into lane ``j % 8``, reduced as
``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``) and is built with
``-ffp-contract=off``, so no target fuses it into FMAs: the host and
portable builds return the same bits.  Across backends results agree to
float64 round-off.  The C kernel reads float32 and float64 arenas only: on
an int8 arena, :func:`edge_attention` first dequantizes each distinct row
the call reads, once, with :func:`gather_dequant_int8` (``(float(q) -
zero) * scale`` in float32), and runs the kernel over those rows with the
edges renumbered onto them.  An int8 arena therefore gives exactly what an
fp32 arena of the dequantized rows gives.  :func:`gather_dequant_int8` (also
the paged cache's ``gather_keys``/``gather_values`` on int8 storage) is
bit-identical across backends.

Backend selection honours ``REPRO_COMPILED``:

* unset / ``auto`` / ``1`` / ``cext`` — the C kernels when they build, else
  numpy (the reason is recorded in :func:`backend_error`);
* ``0`` / ``off`` / ``numpy`` — the pure-NumPy fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from functools import cache, cached_property
from math import prod
from typing import Optional, Tuple

import numpy as np

from repro.core.online_softmax import (
    accumulator_dtype,
    segment_softmax_stats,
    segment_weighted_sum,
)
from repro.utils.validation import require

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

/* dot(q, p) in eight lanes: element j adds into lane j % 8, the tail into
   lanes 0, 1, ..., and the lanes reduce in one fixed order;
   fold: acc += weight * p */
#define ROW_LOOPS(SUFFIX, T)                                                  \
static double dot_##SUFFIX(const double *q, const T *p, int64_t n)            \
{                                                                             \
    double a[8] = {0.0};                                                      \
    int64_t j = 0;                                                            \
    for (; j + 8 <= n; j += 8)                                                \
        for (int t = 0; t < 8; t++)                                           \
            a[t] += q[j + t] * (double)p[j + t];                              \
    for (int t = 0; j < n; j++, t++)                                          \
        a[t] += q[j] * (double)p[j];                                          \
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])); \
}                                                                             \
static void fold_##SUFFIX(double *acc, double weight, const T *p, int64_t n)  \
{                                                                             \
    for (int64_t j = 0; j < n; j++)                                           \
        acc[j] += weight * (double)p[j];                                      \
}

ROW_LOOPS(f32, float)
ROW_LOOPS(f64, double)

static double dot_row(int f64, const void *slice, int64_t row, int64_t n,
                      const double *q)
{
    if (f64)
        return dot_f64(q, (const double *)slice + row * n, n);
    return dot_f32(q, (const float *)slice + row * n, n);
}

static void fold_row(int f64, const void *slice, int64_t row, int64_t n,
                     double *acc, double weight)
{
    if (f64)
        fold_f64(acc, weight, (const double *)slice + row * n, n);
    else
        fold_f32(acc, weight, (const float *)slice + row * n, n);
}

static int64_t edge_row(const void *rows, int rows_i64, int64_t e)
{
    if (rows_i64)
        return ((const int64_t *)rows)[e];
    return (int64_t)((const int32_t *)rows)[e];
}

/* Algorithm 1 for num_rows query rows of each of slices query slices over
   float32 (f64 == 0) or float64 K/V arenas.  Slice b reads arena slice b;
   edge e of a row reads arena row rows[e].  A row runs in two passes: its
   scores into the score buffer, with their maximum, then one exp and one
   fold per edge, so the accumulator is never rescaled.
   Returns 0, or 1 for a malformed indptr, 2 for an arena row out of range,
   3 when the per-call scratch cannot be allocated (nothing is read then). */
int edge_attention(const void *q, int q_f64, const void *k, const void *v,
                   int f64, const void *rows, int rows_i64,
                   const int64_t *indptr, int64_t slices, int64_t arena_rows,
                   int64_t num_rows, int64_t num_edges, int64_t dk,
                   int64_t dv, double scale, double *out, double *row_max,
                   double *row_sum)
{
    if (indptr[0] != 0 || indptr[num_rows] != num_edges)
        return 1;
    int64_t widest = 0;
    for (int64_t i = 0; i < num_rows; i++) {
        if (indptr[i] > indptr[i + 1])
            return 1;
        if (indptr[i + 1] - indptr[i] > widest)
            widest = indptr[i + 1] - indptr[i];
    }
    for (int64_t e = 0; e < num_edges; e++) {
        const int64_t r = edge_row(rows, rows_i64, e);
        if (r < 0 || r >= arena_rows)
            return 2;
    }
    /* the query row in float64, then the widest row's scores (never 0 bytes) */
    double *qrow = malloc((size_t)(dk + widest + 1) * sizeof(double));
    if (qrow == NULL)
        return 3;
    double *score = qrow + dk;
    const size_t itemsize = f64 ? sizeof(double) : sizeof(float);
    for (int64_t b = 0; b < slices; b++) {
        const char *ks = (const char *)k + (size_t)(b * arena_rows * dk) * itemsize;
        const char *vs = (const char *)v + (size_t)(b * arena_rows * dv) * itemsize;
        for (int64_t i = 0; i < num_rows; i++) {
            const int64_t at = b * num_rows + i;
            if (q_f64) {
                const double *src = (const double *)q + at * dk;
                for (int64_t j = 0; j < dk; j++)
                    qrow[j] = src[j];
            } else {
                const float *src = (const float *)q + at * dk;
                for (int64_t j = 0; j < dk; j++)
                    qrow[j] = (double)src[j];
            }
            const int64_t lo = indptr[i], degree = indptr[i + 1] - lo;
            double m = -INFINITY, l = 0.0;
            for (int64_t e = 0; e < degree; e++) {
                score[e] = dot_row(f64, ks, edge_row(rows, rows_i64, lo + e), dk, qrow) * scale;
                if (score[e] > m)
                    m = score[e];
            }
            double *acc = out + at * dv;
            for (int64_t j = 0; j < dv; j++)
                acc[j] = 0.0;
            for (int64_t e = 0; e < degree; e++) {
                const double w = exp(score[e] - m);
                l += w;
                fold_row(f64, vs, edge_row(rows, rows_i64, lo + e), dv, acc, w);
            }
            row_max[at] = m;
            row_sum[at] = l;
            if (l != 0.0)
                for (int64_t j = 0; j < dv; j++)
                    acc[j] /= l;
        }
    }
    free(qrow);
    return 0;
}
"""

#: the portable build's compiler flags; the host build adds :data:`_NATIVE`.
#: Both are hashed into the cache key with the source, the resolved host
#: target and the compiler path.  No ``-ffast-math``: the int8 dequant keeps
#: IEEE float32 semantics, and ``-ffp-contract=off`` keeps every target from
#: fusing it, the dot products or the value fold into FMAs.
#: ``-ftree-vectorize`` only packs independent lanes (the value fold, the
#: dot product's eight lanes); without reassociation flags it never reorders
#: a sum, so the portable and host builds return the same bits.
_CFLAGS = ("-O2", "-ftree-vectorize", "-ffp-contract=off", "-fPIC", "-shared")
_NATIVE = "-march=native"
_LIB_NAME = "repro_compiled.so"
#: a key's record that the compiler refused its build (the compiler's message)
_REFUSED_NAME = _LIB_NAME + ".refused"

_P = ctypes.c_void_p
_INT = ctypes.c_int
_I64 = ctypes.c_int64
_ARGTYPES = {
    "gather_dequant_i8": ([_P] * 4 + [_I64] * 4 + [_P], None),
    "edge_attention": (
        [_P, _INT, _P, _P, _INT, _P, _INT, _P] + [_I64] * 6 + [ctypes.c_double] + [_P] * 3,
        _INT,
    ),
}
_KERNEL_ERRORS = {
    1: "indptr must start at 0, never decrease and end at the edge count",
    2: "an edge reads an arena row out of range",
    3: "out of memory for the kernel's scratch query row and score buffer",
}
#: the dtypes the C kernel reads queries and K/V arenas in
_C_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))

_lock = threading.Lock()
_backend: Optional[str] = None  # resolved lazily: "cext" | "numpy"
_backend_error: Optional[str] = None
_cext = None  # loaded ctypes library

#: Row chunks of the NumPy fallback hold at most this many per-edge elements
#: (query slices x edges x head dim) in each temporary — 8 MB at float64 — so
#: the fallback's memory stays O(L·d) whatever the mask's edge count.
_FALLBACK_CHUNK_ELEMENTS = 1 << 20


# --------------------------------------------------------------------------- #
# Build and load
# --------------------------------------------------------------------------- #
def _find_cc() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _flags(target: Optional[str]) -> Tuple[str, ...]:
    """The build's flags: the host build's for a resolved target, else the portable ones."""
    return _CFLAGS if target is None else _CFLAGS + (_NATIVE,)


@cache
def _host_target(cc_path: str) -> Optional[str]:
    """What ``-march=native`` resolves to for this compiler on this CPU, or
    ``None`` when the compiler refuses the flag or names no target.

    Read from the driver's dry run (``-###`` compiles nothing): the ``-m``
    flags and ``--param`` values gcc hands ``cc1``, or the triple, CPU and
    features clang hands ``-cc1``.  Cached per compiler: a process asks once.
    """
    try:
        result = subprocess.run(
            [cc_path, "-###", _NATIVE, "-x", "c", "-c", os.devnull],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    for line in result.stderr.splitlines():
        try:
            words = shlex.split(line)
        except ValueError:
            continue
        if words and (os.path.basename(words[0]) == "cc1" or "-cc1" in words):
            valued = {"--param", "-triple", "-target-cpu", "-target-feature", "-tune-cpu"}
            target = [word for before, word in zip([""] + words, words) if word.startswith("-m") or before in valued]
            return " ".join(target) or None
    return None


def _build_key(cc_path: str, target: Optional[str]) -> str:
    digest = hashlib.sha256()
    for part in (_C_SOURCE, " ".join(_flags(target)), target or "", cc_path):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _cache_dir(cc_path: str, target: Optional[str]) -> Optional[str]:
    """The shared build directory, or ``None`` when it cannot be trusted.

    Trusted means a real directory (not a symlink) owned by this user with
    mode 0700: nobody else can have planted or altered a library in it.
    """
    if not hasattr(os, "getuid"):
        return None
    path = os.path.join(tempfile.gettempdir(), "repro-compiled-" + _build_key(cc_path, target))
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or stat.S_IMODE(info.st_mode) != 0o700:
        return None
    return path


def _sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class _BuildError(Exception):
    """The C compiler rejected the source (its message is the reason)."""


def _compile(cc: str, build_dir: str, lib_path: str, target: Optional[str]) -> None:
    """Compile the source to ``lib_path`` (raises :exc:`_BuildError`)."""
    fd, src = tempfile.mkstemp(prefix="build-", suffix=".c", dir=build_dir)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_C_SOURCE)
        result = subprocess.run(
            [cc, *_flags(target), "-o", lib_path, src, "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        os.unlink(src)
    if result.returncode != 0:
        raise _BuildError(f"{cc} failed: {result.stderr.strip()[:500]}")


def _load_or_build_cached(cc: str, cache_dir: str, target: Optional[str]):
    """Load the cached library if its digest checks out, else build it in.

    The library and its digest are written under unique temporary names and
    moved in with ``os.replace``, so a concurrent process never loads a
    half-written file; a library whose bytes do not match the recorded digest
    (corrupt, or caught between two replaces) is rebuilt, never loaded.

    A compiler that refuses the build refuses it for every process: the key
    covers the source, the flags, the target and the compiler.  The refusal
    is recorded in the key's directory, and later processes raise it without
    compiling.  Timeouts and ``OSError`` are not refusals and leave no record.
    """
    lib_path = os.path.join(cache_dir, _LIB_NAME)
    digest_path = lib_path + ".sha256"
    refused_path = os.path.join(cache_dir, _REFUSED_NAME)
    try:
        with open(digest_path, encoding="ascii") as handle:
            expected = handle.read().strip()
        if _sha256_file(lib_path) == expected:
            return ctypes.CDLL(lib_path)
    except (OSError, UnicodeDecodeError):
        pass  # missing, unreadable or not loadable: build it again
    if os.path.exists(refused_path):
        with open(refused_path, encoding="utf-8", errors="replace") as handle:
            raise _BuildError(handle.read())
    fd, tmp_lib = tempfile.mkstemp(prefix="build-", suffix=".so", dir=cache_dir)
    os.close(fd)
    tmp_digest, tmp_refused = tmp_lib + ".sha256", tmp_lib + ".refused"
    try:
        _compile(cc, cache_dir, tmp_lib, target)
        with open(tmp_digest, "w", encoding="ascii") as handle:
            handle.write(_sha256_file(tmp_lib))
        os.replace(tmp_lib, lib_path)
        os.replace(tmp_digest, digest_path)
    except _BuildError as exc:
        with open(tmp_refused, "w", encoding="utf-8") as handle:
            handle.write(str(exc))
        os.replace(tmp_refused, refused_path)
        raise
    finally:
        for leftover in (tmp_lib, tmp_digest, tmp_refused):
            if os.path.exists(leftover):
                os.unlink(leftover)
    return ctypes.CDLL(lib_path)


def _build_private(cc: str, target: Optional[str]):
    # the build directory goes once the library is loaded: the process keeps
    # its mapping of the unlinked file (POSIX), and nothing is left behind
    with tempfile.TemporaryDirectory(prefix="repro-private-") as build_dir:
        lib_path = os.path.join(build_dir, _LIB_NAME)
        _compile(cc, build_dir, lib_path, target)
        return ctypes.CDLL(lib_path)


def _load(cc: str, cc_path: str, target: Optional[str]):
    """The library built for ``target`` (``None``: portable), cached when the
    shared directory can be trusted, else built privately."""
    cache_dir = _cache_dir(cc_path, target)
    if cache_dir is None:
        return _build_private(cc, target)
    return _load_or_build_cached(cc, cache_dir, target)


def _bind(lib):
    """Declare the C functions' signatures on a loaded library, and return it."""
    for name, (argtypes, restype) in _ARGTYPES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib


def _try_cext() -> bool:
    """Load (building if needed) the C kernels; False, with the reason, on failure.

    The library is built for the host's ISA when the compiler resolves
    ``-march=native``, and portable when it does not or cannot build with it.
    """
    global _cext, _backend_error
    cc = _find_cc()
    if cc is None:
        _backend_error = "no C compiler on PATH"
        return False
    try:
        cc_path = shutil.which(cc)
        target = _host_target(cc_path)
        try:
            lib = _load(cc, cc_path, target)
        except _BuildError:
            if target is None:
                raise
            lib = _load(cc, cc_path, None)
        _cext = _bind(lib)
        return True
    except _BuildError as exc:
        _backend_error = str(exc)
        return False
    except (OSError, subprocess.SubprocessError) as exc:
        _backend_error = f"cext build failed: {exc}"
        return False


def _resolve_backend() -> str:
    raw = os.environ.get("REPRO_COMPILED", "auto").strip().lower()
    if raw in {"0", "off", "false", "no", "numpy"}:
        return "numpy"
    return "cext" if _try_cext() else "numpy"


def _ensure_backend() -> str:
    global _backend
    if _backend is None:
        with _lock:
            if _backend is None:
                _backend = _resolve_backend()
    return _backend


def backend() -> str:
    """The active backend name: ``"cext"`` or ``"numpy"``."""
    return _ensure_backend()


def backend_error() -> Optional[str]:
    """Why the compiled backend fell back to numpy, if it did."""
    _ensure_backend()
    return _backend_error


def reset_backend() -> None:
    """Forget the resolved backend (tests re-read ``REPRO_COMPILED`` after this)."""
    global _backend, _backend_error
    with _lock:
        _backend = None
        _backend_error = None


class force_backend:
    """Context manager pinning the backend (tests compare paths with it)."""

    def __init__(self, name: str) -> None:
        if name not in {"cext", "numpy"}:
            raise ValueError(f"unknown backend {name!r}")
        self.name = name
        self._saved: Optional[str] = None

    def __enter__(self) -> "force_backend":
        global _backend
        _ensure_backend()
        with _lock:
            self._saved = _backend
            if self.name == "cext" and _cext is None and not _try_cext():
                raise RuntimeError(f"cext backend is not available: {_backend_error}")
            _backend = self.name
        return self

    def __exit__(self, *exc) -> None:
        global _backend
        with _lock:
            _backend = self._saved


# --------------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, eq=False)
class Arena:
    """K/V rows :func:`edge_attention` reads in place, addressed by row index.

    ``keys``/``values`` are ``(..., N, d_k)`` / ``(..., N, d_v)``.  An int8
    arena carries per-row float32 ``(scale, zero)`` pairs shaped ``(..., N)``
    and dequantizes as ``(float(q) - zero) * scale`` in float32 with
    :func:`gather_dequant_int8`, once per distinct row a call reads, whatever
    the arena's size.  A block pool builds its arena once, so the C
    functions' view of it (:attr:`c_operands`) is made once too.
    """

    keys: np.ndarray
    values: np.ndarray
    k_params: Optional[Tuple[np.ndarray, np.ndarray]] = None
    v_params: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @cached_property
    def c_operands(self) -> Tuple[Tuple[np.ndarray, ...], Tuple[int, int]]:
        """Contiguous arrays for the C functions (held here): keys, values,
        then for an int8 arena the float32 scale/zero of keys and of values;
        and the addresses of keys and values."""
        arrays = [np.ascontiguousarray(self.keys), np.ascontiguousarray(self.values)]
        if self.k_params is not None:
            arrays += [np.ascontiguousarray(p, dtype=np.float32) for p in (*self.k_params, *self.v_params)]
            require(
                all(p.shape == self.keys.shape[:-1] for p in arrays[2:]),
                "int8 scale/zero must be shaped like the arena's rows",
            )
        return tuple(arrays), (arrays[0].ctypes.data, arrays[1].ctypes.data)


def _dequant_rows(arena: np.ndarray, scale: np.ndarray, zero: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The C gather-dequant of int64 ``rows`` already known to be in range:
    contiguous ``(..., R, d)`` int8 and ``(..., R)`` float32 in,
    ``(..., rows.size, d)`` float32 out."""
    out = np.empty(arena.shape[:-2] + (rows.size, arena.shape[-1]), dtype=np.float32)
    if rows.size:
        _cext.gather_dequant_i8(
            arena.ctypes.data,
            scale.ctypes.data,
            zero.ctypes.data,
            rows.ctypes.data,
            prod(arena.shape[:-2]),
            arena.shape[-2],
            rows.size,
            arena.shape[-1],
            out.ctypes.data,
        )
    return out


def gather_dequant_int8(
    arena: np.ndarray,
    scale: np.ndarray,
    zero: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Gather int8 rows and dequantize to float32: ``(float(q) - zp) * scale``.

    ``arena`` is ``(..., R, d)`` int8; ``scale``/``zero`` are ``(..., R)``
    float32 per-row affine parameters sharing the arena's row indexing;
    ``rows`` is 1-D int64, each in ``[0, R)``; any other row raises
    :exc:`ValueError` on both backends.  The C backend fuses the gather and
    the two float32 ops into one pass and is bit-identical to the NumPy
    fallback (same operations, same order, per element).
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    arena_rows = arena.shape[-2]
    if rows.size and (rows.min() < 0 or rows.max() >= arena_rows):
        raise ValueError(f"gather_dequant_int8: a row is out of range [0, {arena_rows})")
    if _ensure_backend() == "numpy":
        gathered = arena[..., rows, :].astype(np.float32)
        z = zero[..., rows]
        s = scale[..., rows]
        return (gathered - z[..., None]) * s[..., None]
    scale, zero = (np.ascontiguousarray(p, dtype=np.float32).reshape(arena.shape[:-1]) for p in (scale, zero))
    return _dequant_rows(np.ascontiguousarray(arena), scale, zero, rows)


def _arena_kind(q: np.ndarray, arena: Arena) -> Optional[str]:
    """How the C kernel runs the call: ``"float"`` on the arena itself,
    ``"int8"`` on its dequantized rows, ``None`` not at all (NumPy only)."""
    if q.dtype not in _C_FLOATS or arena.keys.dtype != arena.values.dtype:
        return None  # fp16 compute accumulates in float32: NumPy only
    if arena.k_params is not None or arena.v_params is not None:
        quantized = arena.k_params is not None and arena.v_params is not None
        return "int8" if quantized and arena.keys.dtype == np.int8 else None
    return "float" if arena.keys.dtype in _C_FLOATS else None


def _dequantize_once(arena: Arena, rows: np.ndarray) -> Tuple[Arena, np.ndarray]:
    """An int8 call's distinct rows, each dequantized once, as a float32 arena,
    and the call's edges renumbered onto it: the kernel then reads the same
    float32 values per element as a float32 arena of the dequantized rows.
    Costs O(edges log edges), never O(arena rows)."""
    distinct, local = np.unique(rows, return_inverse=True)
    if distinct.size and (distinct[0] < 0 or distinct[-1] >= arena.keys.shape[-2]):
        raise ValueError(f"edge_attention: {_KERNEL_ERRORS[2]}")
    distinct = distinct.astype(np.int64, copy=False)
    keys, values, k_scale, k_zero, v_scale, v_zero = arena.c_operands[0]
    dequantized = Arena(
        _dequant_rows(keys, k_scale, k_zero, distinct),
        _dequant_rows(values, v_scale, v_zero, distinct),
    )
    return dequantized, local


def edge_attention(
    q: np.ndarray,
    arena: Arena,
    rows: np.ndarray,
    indptr: np.ndarray,
    scale: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1 for ``R`` query rows over K/V rows read in place.

    ``indptr`` (``R + 1`` entries) delimits each query row's edges, and edge
    ``e`` reads arena row ``rows[e]``.  ``q`` is
    ``arena.keys.shape[:-2] + (R, d_k)``, and each query slice reads its own
    arena slice.  Rows are independent, so several sessions paging one arena
    run as one call: their query rows concatenated along the row axis, their
    rows concatenated and their ``indptr`` arrays offset by the running edge
    count.

    Returns ``(output, row_max, row_sum)``: the normalised output in the
    accumulator dtype (``q.shape[:-1] + (d_v,)``) and the per-row softmax
    maximum and normaliser (``q.shape[:-1]``).  Empty rows finalise to zero
    with ``row_max = -inf`` and ``row_sum = 0``.
    """
    q = np.asarray(q)
    rows = np.asarray(rows)
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    keys, values = arena.keys, arena.values
    slices_shape = keys.shape[:-2]
    require(rows.ndim == 1, "rows must be one arena row per edge")
    if q.ndim < 2 or q.shape[:-2] != slices_shape:
        raise ValueError(f"query slices {q.shape[:-2]} do not match the arena's {slices_shape}")
    require(values.shape[:-1] == keys.shape[:-1], "K and V arenas must share their rows")
    require(q.shape[-1] == keys.shape[-1], "Q and K must share the head dimension d_k")
    require(indptr.size == q.shape[-2] + 1, "indptr must have one entry per query row + 1")
    kind = _arena_kind(q, arena)
    if kind is None or _ensure_backend() == "numpy":
        return _edge_attention_numpy(q, arena, rows, indptr, scale)

    if kind == "int8":
        arena, rows = _dequantize_once(arena, rows)
    q = np.ascontiguousarray(q)
    if rows.dtype != np.int32:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
    else:
        rows = np.ascontiguousarray(rows)
    _, (keys_address, values_address) = arena.c_operands
    num_rows, num_edges, value_dim = q.shape[-2], rows.size, values.shape[-1]
    output = np.empty(q.shape[:-1] + (value_dim,), dtype=np.float64)
    # one buffer holds row_max and row_sum: one address to take
    stats = prod(q.shape[:-1])
    buffer = np.empty(2 * stats, dtype=np.float64)
    base = buffer.ctypes.data
    status = _cext.edge_attention(
        q.ctypes.data,
        int(q.dtype == np.float64),
        keys_address,
        values_address,
        int(arena.keys.dtype == np.float64),
        rows.ctypes.data,
        int(rows.dtype == np.int64),
        indptr.ctypes.data,
        prod(slices_shape),
        arena.keys.shape[-2],
        num_rows,
        num_edges,
        keys.shape[-1],
        value_dim,
        float(scale),
        output.ctypes.data,
        base,
        base + 8 * stats,
    )
    if status:
        raise ValueError(f"edge_attention: {_KERNEL_ERRORS[status]}")
    return output, buffer[:stats].reshape(q.shape[:-1]), buffer[stats:].reshape(q.shape[:-1])


def _gather(
    arena: np.ndarray,
    params: Optional[Tuple[np.ndarray, np.ndarray]],
    rows: np.ndarray,
    dtype: np.dtype,
) -> np.ndarray:
    """Rows ``rows`` (``(E,)``) of every ``(A, N, d)`` arena slice as ``(A, E, d)``."""
    gathered = arena[:, rows, :]
    if params is not None:
        scale, zero = params
        gathered = (gathered.astype(np.float32) - zero[:, rows, None]) * scale[:, rows, None]
    return np.ascontiguousarray(gathered, dtype=dtype)


def _edge_attention_numpy(
    q: np.ndarray,
    arena: Arena,
    rows: np.ndarray,
    indptr: np.ndarray,
    scale: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The NumPy fallback of :func:`edge_attention`, one chunk of rows at a time.

    Per chunk: gather the edges' K rows, score them with one einsum, reduce
    a segment softmax, gather the V rows and segment-sum them.  Chunks split
    only between rows, and every reduction is per row, so the chunking never
    changes a result.
    """
    acc_dtype = accumulator_dtype(q.dtype)
    keys, values = arena.keys, arena.values
    slices, arena_rows = prod(keys.shape[:-2]), keys.shape[-2]
    key_dim, value_dim = keys.shape[-1], values.shape[-1]
    k3 = keys.reshape(slices, arena_rows, key_dim)
    v3 = values.reshape(slices, arena_rows, value_dim)
    k_params, v_params = (
        None if params is None else tuple(p.reshape(slices, arena_rows) for p in params)
        for params in (arena.k_params, arena.v_params)
    )
    num_edges = rows.size
    num_rows = indptr.size - 1
    require(
        int(indptr[0]) == 0 and int(indptr[-1]) == num_edges,
        "indptr must start at 0 and end at the edge count",
    )
    q3 = np.asarray(q, dtype=acc_dtype).reshape(slices, num_rows, key_dim)

    accumulator = np.zeros((slices, num_rows, value_dim), dtype=acc_dtype)
    row_max = np.full((slices, num_rows), -np.inf, dtype=acc_dtype)
    row_sum = np.zeros((slices, num_rows), dtype=acc_dtype)
    budget = max(1, _FALLBACK_CHUNK_ELEMENTS // max(1, slices * max(key_dim, value_dim)))
    start = 0
    while start < num_rows:
        lo = int(indptr[start])
        stop = int(np.searchsorted(indptr, lo + budget, side="right")) - 1
        stop = min(max(stop, start + 1), num_rows)
        hi = int(indptr[stop])
        local = indptr[start : stop + 1] - lo
        chunk_rows = rows[lo:hi]
        edge_rows = np.repeat(np.arange(stop - start), np.diff(local))
        k_sel = _gather(k3, k_params, chunk_rows, acc_dtype)
        chunk_scores = np.einsum("bed,bed->be", q3[:, start:stop][:, edge_rows], k_sel) * scale
        del k_sel  # before the V rows are gathered: one chunk temporary at a time
        chunk_max, chunk_sum, weights = segment_softmax_stats(chunk_scores, local)
        v_sel = _gather(v3, v_params, chunk_rows, acc_dtype)
        accumulator[:, start:stop] = segment_weighted_sum(weights, v_sel, local, value_dim)
        row_max[:, start:stop] = chunk_max
        row_sum[:, start:stop] = chunk_sum
        start = stop

    empty = row_sum == 0
    output = accumulator / np.where(empty, 1.0, row_sum)[..., None]
    output[empty] = 0.0
    return (
        output.reshape(q.shape[:-1] + (value_dim,)),
        row_max.reshape(q.shape[:-1]),
        row_sum.reshape(q.shape[:-1]),
    )


__all__ = [
    "Arena",
    "backend",
    "backend_error",
    "edge_attention",
    "force_backend",
    "gather_dequant_int8",
    "reset_backend",
]
