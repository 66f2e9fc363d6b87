"""Quantized KV-block storage: encode/decode and error bounds per storage dtype.

The paged :class:`~repro.serve.paging.BlockPool` separates the *compute*
dtype its gathers return (what the kernels consume, unchanged) from the
*storage* dtype its arenas hold.  Three storage formats are supported:

* ``"fp32"`` / ``"fp16"`` (and ``"fp64"`` for float64 pools) — plain casts;
  storage matching the compute dtype is the identity, bit-for-bit.
* ``"int8"`` — affine quantization ``q = clip(round(x / scale + zero))`` with
  **per-row** float32 ``scale``/``zero`` parameters: every block carries a
  ``(block_size,)``-length parameter vector per batch slice, one entry per
  token row.  Per-row parameters are what keep the scheme *compositional*:
  a row's encoded bytes depend only on that row's values, so appends never
  requantize existing tokens (no error drift), copy-on-write moves raw
  bytes, swap-out ships the quantized payload exactly, and a chunk's
  content fingerprint is a pure function of its rows — prefix sharing and
  byte-exact swap restores work on quantized blocks unchanged.

Every bound here is explicit in the storage dtype (:func:`roundtrip_bound`),
the property the tests assert: int8 round-trip error is at most half a
quantization step (``scale = (max - min) / 255`` per row) plus float32
arithmetic slack, fp16 is half-precision rounding, fp32 is exact.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.utils.validation import require

#: Storage formats a pool can hold, mapped to the arena element dtype.
STORAGE_DTYPES = {
    "fp16": np.dtype(np.float16),
    "fp32": np.dtype(np.float32),
    "fp64": np.dtype(np.float64),
    "int8": np.dtype(np.int8),
}

#: Canonical storage name of each float compute dtype (the default storage).
_COMPUTE_TO_STORAGE = {
    np.dtype(np.float16): "fp16",
    np.dtype(np.float32): "fp32",
    np.dtype(np.float64): "fp64",
}

#: Bytes of quantization parameters per token row per batch slice: float32
#: ``scale`` and ``zero`` for the key row and again for the value row.
QUANT_PARAM_BYTES_PER_TOKEN = 16


def resolve_storage(storage: Optional[str], compute_dtype) -> str:
    """Canonical storage name; ``None`` means "match the compute dtype"."""
    compute = np.dtype(compute_dtype)
    if storage is None:
        require(
            compute in _COMPUTE_TO_STORAGE,
            f"no default storage format for compute dtype {compute!r}",
        )
        return _COMPUTE_TO_STORAGE[compute]
    key = str(storage).strip().lower()
    require(
        key in STORAGE_DTYPES,
        f"unknown storage {storage!r}; expected one of {sorted(STORAGE_DTYPES)}",
    )
    return key


def storage_itemsize(storage: str) -> int:
    """Bytes per stored element of one storage format."""
    return int(STORAGE_DTYPES[storage].itemsize)


def storage_param_bytes_per_token(storage: str) -> int:
    """Per-token quantization-parameter overhead (0 for float storage)."""
    return QUANT_PARAM_BYTES_PER_TOKEN if storage == "int8" else 0


# --------------------------------------------------------------------------- #
# Affine int8 row codec
# --------------------------------------------------------------------------- #
def quantize_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize ``(..., T, d)`` float rows to int8 with per-row affine params.

    Returns ``(q, scale, zero)`` where ``q`` is int8 of the input shape and
    ``scale``/``zero`` are float32 ``(..., T)``: row ``t`` dequantizes as
    ``(float(q[t]) - zero[t]) * scale[t]``.  Constant rows get ``scale = 1``
    and round-trip exactly; all other rows round-trip within half a step,
    ``scale / 2 = (max - min) / 510`` (see :func:`roundtrip_bound`).
    """
    x = np.asarray(rows, dtype=np.float32)
    lo = x.min(axis=-1)
    hi = x.max(axis=-1)
    scale = ((hi - lo) / np.float32(255.0)).astype(np.float32)
    scale = np.where(scale > 0, scale, np.float32(1.0)).astype(np.float32)
    zero = (np.float32(-128.0) - lo / scale).astype(np.float32)
    q = np.clip(
        np.round(x / scale[..., None] + zero[..., None]), -128, 127
    ).astype(np.int8)
    return q, scale, zero


def dequantize_rows(
    q: np.ndarray, scale: np.ndarray, zero: np.ndarray, dtype=np.float32
) -> np.ndarray:
    """Invert :func:`quantize_rows` into ``dtype`` (float32 ops, then cast).

    The arithmetic mirrors the gather-path dequant in
    :func:`repro.core.compiled.gather_dequant_int8` exactly — same float32
    operations in the same order — so a decoded swap payload is bit-identical
    to what a gather of the same stored rows returns.
    """
    out = (q.astype(np.float32) - np.asarray(zero)[..., None]) * np.asarray(scale)[
        ..., None
    ]
    return out.astype(dtype, copy=False)


# --------------------------------------------------------------------------- #
# Encoded chunks
# --------------------------------------------------------------------------- #
class EncodedChunk(NamedTuple):
    """Storage-encoded K/V token rows (plus int8 quantization parameters).

    ``k``/``v`` are ``batch_shape + (T, d)`` in the storage dtype; the four
    parameter arrays are ``batch_shape + (T,)`` float32 for int8 storage and
    ``None`` otherwise.  A chunk is a pure function of its token rows —
    slicing it commutes with encoding, which is what lets one whole-extend
    encode be fingerprinted block-by-block.
    """

    k: np.ndarray
    v: np.ndarray
    k_scale: Optional[np.ndarray] = None
    k_zero: Optional[np.ndarray] = None
    v_scale: Optional[np.ndarray] = None
    v_zero: Optional[np.ndarray] = None

    @property
    def quantized(self) -> bool:
        return self.k_scale is not None

    @property
    def tokens(self) -> int:
        return int(self.k.shape[-2])

    @property
    def nbytes(self) -> int:
        """Encoded payload bytes (what a swap of this chunk actually ships)."""
        total = self.k.nbytes + self.v.nbytes
        if self.quantized:
            total += (
                self.k_scale.nbytes
                + self.k_zero.nbytes
                + self.v_scale.nbytes
                + self.v_zero.nbytes
            )
        return int(total)

    def slice(self, start: int, stop: int) -> "EncodedChunk":
        """Rows ``[start, stop)`` of this chunk (views, no copy)."""
        if not self.quantized:
            return EncodedChunk(
                k=self.k[..., start:stop, :], v=self.v[..., start:stop, :]
            )
        return EncodedChunk(
            k=self.k[..., start:stop, :],
            v=self.v[..., start:stop, :],
            k_scale=self.k_scale[..., start:stop],
            k_zero=self.k_zero[..., start:stop],
            v_scale=self.v_scale[..., start:stop],
            v_zero=self.v_zero[..., start:stop],
        )

    def take(self, rows: np.ndarray) -> "EncodedChunk":
        """Rows ``rows`` of this chunk (copies, in the order given)."""
        if not self.quantized:
            return EncodedChunk(k=self.k[..., rows, :], v=self.v[..., rows, :])
        return EncodedChunk(
            k=self.k[..., rows, :],
            v=self.v[..., rows, :],
            k_scale=self.k_scale[..., rows],
            k_zero=self.k_zero[..., rows],
            v_scale=self.v_scale[..., rows],
            v_zero=self.v_zero[..., rows],
        )

    def concat(self, other: "EncodedChunk") -> "EncodedChunk":
        """This chunk's rows followed by ``other``'s (for tail fingerprints)."""
        if not self.quantized:
            return EncodedChunk(
                k=np.concatenate([self.k, other.k], axis=-2),
                v=np.concatenate([self.v, other.v], axis=-2),
            )
        return EncodedChunk(
            k=np.concatenate([self.k, other.k], axis=-2),
            v=np.concatenate([self.v, other.v], axis=-2),
            k_scale=np.concatenate([self.k_scale, other.k_scale], axis=-1),
            k_zero=np.concatenate([self.k_zero, other.k_zero], axis=-1),
            v_scale=np.concatenate([self.v_scale, other.v_scale], axis=-1),
            v_zero=np.concatenate([self.v_zero, other.v_zero], axis=-1),
        )

    def param_bytes(self) -> bytes:
        """Serialized quantization parameters (hashed into fingerprints)."""
        if not self.quantized:
            return b""
        return b"".join(
            np.ascontiguousarray(a).tobytes()
            for a in (self.k_scale, self.k_zero, self.v_scale, self.v_zero)
        )


def encode_chunk(k_rows: np.ndarray, v_rows: np.ndarray, storage: str) -> EncodedChunk:
    """Encode float K/V rows into ``storage`` format (per-row for int8)."""
    if storage == "int8":
        k, k_scale, k_zero = quantize_rows(k_rows)
        v, v_scale, v_zero = quantize_rows(v_rows)
        return EncodedChunk(
            k=k, v=v, k_scale=k_scale, k_zero=k_zero, v_scale=v_scale, v_zero=v_zero
        )
    dtype = STORAGE_DTYPES[storage]
    return EncodedChunk(
        k=np.ascontiguousarray(k_rows, dtype=dtype),
        v=np.ascontiguousarray(v_rows, dtype=dtype),
    )


def decode_chunk(chunk: EncodedChunk, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Decode an encoded chunk back to compute-dtype ``(k, v)`` rows."""
    dtype = np.dtype(dtype)
    if chunk.quantized:
        return (
            dequantize_rows(chunk.k, chunk.k_scale, chunk.k_zero, dtype),
            dequantize_rows(chunk.v, chunk.v_scale, chunk.v_zero, dtype),
        )
    return chunk.k.astype(dtype, copy=False), chunk.v.astype(dtype, copy=False)


# --------------------------------------------------------------------------- #
# Error bounds (explicit functions of the storage dtype)
# --------------------------------------------------------------------------- #
def roundtrip_bound(storage: str, amplitude: float) -> float:
    """Worst-case ``|decode(encode(x)) - x|`` for ``|x| <= amplitude``.

    * fp32/fp64 storage of float32 inputs is exact (0.0);
    * fp16 pays half-precision rounding: relative ``2**-11`` for normal
      values plus the subnormal floor;
    * int8 pays half a quantization step: per-row ``scale <= 2 * amplitude /
      255``, so the error is at most ``amplitude / 255`` — widened by 1% for
      float32 arithmetic slack in the codec itself.
    """
    require(amplitude >= 0.0, "amplitude must be non-negative")
    if storage in ("fp32", "fp64"):
        return 0.0
    if storage == "fp16":
        return amplitude * 2.0**-11 + 2.0**-24
    if storage == "int8":
        return amplitude / 255.0 * 1.01 + 1e-12
    raise ValueError(f"unknown storage {storage!r}")


def attention_tolerance(storage: str, amplitude: float, head_dim: int) -> float:
    """Output ``atol`` for attention over quantized K/V vs. the fp32 reference.

    A decode output is a convex combination of value rows, so the value-side
    error passes through bounded by :func:`roundtrip_bound`; key-side error
    perturbs each score by up to ``~amplitude * sqrt(head_dim) * bound``
    (random-sign dot products concentrate at ``sqrt(d)``), which re-weights
    the softmax and contributes ``~2 * amplitude`` times that score shift.
    This is a practical benchmark bound for well-conditioned inputs, not an
    adversarial worst case — the *exact* cross-checks in the tests compare
    quantized serving paths against an fp32 oracle fed the dequantized rows,
    which must agree bit-for-bit.
    """
    base = roundtrip_bound(storage, amplitude)
    return base * (1.0 + 2.0 * amplitude * float(np.sqrt(head_dim)))


__all__ = [
    "EncodedChunk",
    "QUANT_PARAM_BYTES_PER_TOKEN",
    "STORAGE_DTYPES",
    "attention_tolerance",
    "decode_chunk",
    "dequantize_rows",
    "encode_chunk",
    "quantize_rows",
    "resolve_storage",
    "roundtrip_bound",
    "storage_itemsize",
    "storage_param_bytes_per_token",
]
