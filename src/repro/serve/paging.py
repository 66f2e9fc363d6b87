"""Paged KV-cache: block pools, block tables, prefix sharing, copy-on-write.

Every decoding stream's KV cache pages through this module.  A contiguous
buffer per stream would store N copies of a prompt that N streams share,
and leave the server no global notion of memory; a block pool does neither
— the vLLM recipe applied to the repo's numpy serving stack:

* :class:`BlockPool` — one preallocated pair of K/V arenas shaped
  ``batch_shape + (num_blocks · block_size, d)``, carved into fixed-size
  *blocks* handed out through a free list.  Blocks are refcounted: several
  sessions may map one physical block, and a block whose refcount drops to
  zero while still registered under a prefix fingerprint parks in an LRU of
  *evictable* blocks — a finished session's prompt stays warm for the next
  identical prompt until memory pressure actually reclaims it.
* :class:`PagedKVCache` — the KV cache of every
  :class:`~repro.serve.decode.DecodeSession`: ``extend``/``append``/
  ``gather`` over a *block table* of physical block ids instead of a
  contiguous buffer.  Prefill chunks are fingerprinted with a chained
  content hash (hash of this block's bytes chained onto the hash of
  everything before it), so two sessions prefilling the same prompt map the
  same physical blocks (*prefix sharing*), including a partially-filled
  tail block.  Appending into a block mapped by more than
  one session copies it first (*copy-on-write on divergence*).
* The pass writer — the KV write of one serving pass
  (:func:`~repro.serve.decode.stacked_decode_step` /
  :func:`~repro.serve.decode.stacked_prefill`): the new rows of every
  session on a pool are encoded in one call, probed session by session
  (share lookups, partial-tail claims, and chunks an earlier session of the
  same pass writes), covered by one reservation of only the blocks the probe
  left unmet, and scattered into the arenas at once.
  :meth:`PagedKVCache.extend` and :meth:`PagedKVCache.restore` are its
  one-cache calls.
* :exc:`PoolExhausted` — raised when an allocation (or a server admission
  check) cannot be satisfied even after evicting every unreferenced block;
  the serving layer turns it into reject-or-queue admission control.

All pool mutations happen under one lock, so concurrent sessions on a thread
pool can share a pool; reservation (:meth:`BlockPool.reserve`) is
all-or-nothing and a pass's write rolls every cache back on failure, which
is what lets a batched decode step fail *before* advancing any session's
block table.

The block table keeps decoding bit-exact: one vectorised lookup
(:meth:`BlockPool.attention_operands`) maps the logical token positions of
all a pass's sessions to physical arena rows, and the attention kernel
(:func:`repro.core.compiled.edge_attention`) reads exactly those rows in
place — the same values it would have read from a contiguous cache, with no
gathered copy in between.

**Quantized storage** (:mod:`repro.serve.quant`): a pool's ``storage`` axis
(``"fp32"`` / ``"fp16"`` / ``"int8"``) decouples what the arenas hold from
the compute dtype its gathers return.  Chunks are encoded on write (int8
rows carry per-row float32 scale/zero parameters in parallel arenas) and
dequantized once per distinct row an attention call reads, or on gather
(:mod:`repro.core.compiled`); fingerprints hash the *encoded* payload, so
prefix sharing, copy-on-write and byte-exact swap restores all operate on
quantized blocks without ever inflating them to fp32.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from math import prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import compiled
from repro.obs.recorder import NULL_OBS, Observability
from repro.serve.quant import (
    STORAGE_DTYPES,
    EncodedChunk,
    decode_chunk,
    encode_chunk,
    resolve_storage,
    storage_param_bytes_per_token,
)
from repro.sparse.csr import concatenated_ranges
from repro.utils.dtypes import INDEX_DTYPE, resolve_dtype
from repro.utils.validation import require

#: Default tokens per block — small enough that a short prompt's padding
#: waste stays low, large enough that block tables stay short.
DEFAULT_BLOCK_SIZE = 16

#: Default names for pools created without one ("pool0", "pool1", ...) — the
#: metric label that keeps multiple pools' series apart in one registry.
_POOL_IDS = itertools.count()


class PoolExhausted(RuntimeError):
    """No free or evictable block can satisfy an allocation or admission."""


def _fingerprint(
    parent: str, k_bytes: bytes, v_bytes: bytes, fill: int, params: bytes = b""
) -> str:
    """Chained content hash of one block given the fingerprint of its prefix.

    ``params`` carries the serialized quantization parameters for int8
    storage (empty for float storage, so fp32 fingerprints are byte-for-byte
    the pre-quantization scheme).  Hashing the *encoded* payload is what
    makes sharing and swap-restore consistent on quantized pools: two chunks
    share a block exactly when their stored bytes are identical.
    """
    digest = hashlib.sha1()
    digest.update(parent.encode())
    digest.update(fill.to_bytes(4, "little"))
    digest.update(k_bytes)
    digest.update(v_bytes)
    if params:
        digest.update(params)
    return digest.hexdigest()


def prefix_fingerprints(
    k: np.ndarray,
    v: np.ndarray,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    storage: Optional[str] = None,
    dtype=np.float32,
) -> List[str]:
    """Chained fingerprints of a prompt's *full* KV blocks, without a pool.

    Returns exactly the chain a :class:`PagedKVCache` registers while
    prefilling these rows on a pool of the same ``block_size`` / ``storage``
    / compute ``dtype``: the chain advances only on full blocks and a
    partially filled tail is re-fingerprinted over the complete block's
    encoded content once it fills, so the result is independent of how the
    prompt was chunked.  This is the prefix-affinity routing key — a
    front-end router can compute it before picking a replica and know which
    replica's pool already holds the deepest matching prefix.
    """
    k = np.asarray(k)
    v = np.asarray(v)
    require(k.shape[-2] == v.shape[-2], "k and v must cover the same tokens")
    require(block_size >= 1, "block size must be >= 1")
    resolved = resolve_storage(storage, resolve_dtype(dtype))
    full_blocks = k.shape[-2] // block_size
    if full_blocks == 0:
        return []
    covered = full_blocks * block_size
    payload = encode_chunk(k[..., :covered, :], v[..., :covered, :], resolved)
    chain = "root"
    fingerprints: List[str] = []
    for index in range(full_blocks):
        block = payload.slice(index * block_size, (index + 1) * block_size)
        chain = _fingerprint(
            chain,
            np.ascontiguousarray(block.k).tobytes(),
            np.ascontiguousarray(block.v).tobytes(),
            block_size,
            block.param_bytes(),
        )
        fingerprints.append(chain)
    return fingerprints


@dataclass
class BlockPoolStats:
    """Counters and gauges of one :class:`BlockPool` (gauges updated under its lock)."""

    num_blocks: int = 0
    block_size: int = 0
    allocations: int = 0
    share_hits: int = 0
    shared_tokens_saved: int = 0
    cow_copies: int = 0
    evictions: int = 0
    failed_reservations: int = 0
    free_blocks: int = 0
    evictable_blocks: int = 0
    blocks_in_use: int = 0

    @property
    def occupancy(self) -> float:
        """Fraction of physical blocks currently mapped by at least one cache."""
        return self.blocks_in_use / self.num_blocks if self.num_blocks else 0.0

    def snapshot(self) -> "BlockPoolStats":
        return BlockPoolStats(**{f: getattr(self, f) for f in self.__dataclass_fields__})


class BlockPool:
    """Refcounted fixed-size block arena shared by paged KV caches.

    The K and V arenas are allocated once, shaped
    ``batch_shape + (num_blocks · block_size, d)`` so a block table lookup
    turns token positions into flat physical rows and every kernel gather is
    a single fancy-index on the arena.  All sessions sharing a pool must
    share its layout (batch shape, head dims, dtype) — the same constraint a
    real paged-attention arena has, since blocks are raw ``(block_size, d)``
    tiles of one tensor.

    Thread safety: every mutating method takes the pool lock, and
    :meth:`reserve` is all-or-nothing, so concurrent sessions can allocate
    from one pool without ever observing a partially-applied batch.
    """

    def __init__(
        self,
        num_blocks: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        *,
        key_dim: int,
        value_dim: Optional[int] = None,
        batch_shape: Tuple[int, ...] = (),
        dtype=np.float32,
        storage: Optional[str] = None,
        obs: Optional[Observability] = None,
        name: Optional[str] = None,
    ) -> None:
        require(num_blocks >= 1, "pool needs at least one block")
        require(block_size >= 1, "block size must be >= 1")
        require(key_dim > 0, "key dim must be positive")
        value_dim = key_dim if value_dim is None else value_dim
        require(value_dim > 0, "value dim must be positive")
        self.num_blocks = int(num_blocks)
        self.block_size = int(block_size)
        self.key_dim = int(key_dim)
        self.value_dim = int(value_dim)
        self.batch_shape = tuple(int(s) for s in batch_shape)
        #: compute dtype: what gathers return and kernels consume
        self._dtype = resolve_dtype(dtype)
        #: storage format of the arenas; defaults to matching the compute dtype
        self.storage = resolve_storage(storage, self._dtype)
        storage_dtype = STORAGE_DTYPES[self.storage]
        #: identity storage needs no decode — the fp32 hot path stays a view
        self._identity = storage_dtype == self._dtype
        rows = self.num_blocks * self.block_size
        self._keys = np.zeros(
            self.batch_shape + (rows, self.key_dim), dtype=storage_dtype
        )
        self._values = np.zeros(
            self.batch_shape + (rows, self.value_dim), dtype=storage_dtype
        )
        if self.storage == "int8":
            # per-row affine parameters, indexed by physical row like the arenas
            param_shape = self.batch_shape + (rows,)
            self._k_scale = np.ones(param_shape, dtype=np.float32)
            self._k_zero = np.zeros(param_shape, dtype=np.float32)
            self._v_scale = np.ones(param_shape, dtype=np.float32)
            self._v_zero = np.zeros(param_shape, dtype=np.float32)
        else:
            self._k_scale = self._k_zero = self._v_scale = self._v_zero = None
        #: what the attention kernel reads in place; None when rows must be
        #: decoded through a gather first (fp16 storage, int8 under a
        #: non-fp32 compute dtype — the kernel dequantizes to float32)
        self._kernel_arena: Optional[compiled.Arena] = None
        if self._identity:
            self._kernel_arena = compiled.Arena(self._keys, self._values)
        elif self.storage == "int8" and self._dtype == np.float32:
            self._kernel_arena = compiled.Arena(
                self._keys,
                self._values,
                (self._k_scale, self._k_zero),
                (self._v_scale, self._v_zero),
            )
        self._refcounts = np.zeros(self.num_blocks, dtype=np.int64)
        self._in_use = 0  # blocks with refcount > 0, maintained on 0<->1 edges
        self._free: List[int] = list(range(self.num_blocks - 1, -1, -1))
        #: refcount-0 blocks still registered under a fingerprint, LRU order
        self._evictable: "OrderedDict[int, None]" = OrderedDict()
        self._fingerprint_to_block: Dict[str, int] = {}
        self._block_to_fingerprint: Dict[int, str] = {}
        self._lock = threading.RLock()
        self.stats = BlockPoolStats(num_blocks=self.num_blocks, block_size=self.block_size)
        self.obs = obs if obs is not None else NULL_OBS
        self.name = name if name is not None else f"pool{next(_POOL_IDS)}"
        if self.obs.enabled:
            # label children resolved once; hot paths record through these
            events = self.obs.pool_events
            self._obs_alloc = events.labels(pool=self.name, event="allocation")
            self._obs_evict = events.labels(pool=self.name, event="eviction")
            self._obs_fail = events.labels(pool=self.name, event="failed_reservation")
            self._obs_share = events.labels(pool=self.name, event="share_hit")
            # monotone twin of the retractable share counters: Prometheus
            # counters must never decrease, so backed-out share credit is
            # counted forward here instead of subtracted
            self._obs_retract = events.labels(pool=self.name, event="share_retraction")
            self._obs_cow = events.labels(pool=self.name, event="cow_copy")
            self._obs_shared_tokens = self.obs.pool_shared_tokens.labels(pool=self.name)
            blocks = self.obs.pool_blocks
            self._obs_free = blocks.labels(pool=self.name, state="free")
            self._obs_evictable = blocks.labels(pool=self.name, state="evictable")
            self._obs_in_use = blocks.labels(pool=self.name, state="in_use")
            self._obs_kv_bytes = self.obs.pool_kv_bytes.labels(
                pool=self.name, storage=self.storage
            )
            self._obs_dequant = self.obs.pool_dequant_seconds.labels(
                pool=self.name, storage=self.storage
            )
        self._refresh_gauges()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_budget(
        cls,
        memory_budget_bytes: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        *,
        key_dim: int,
        value_dim: Optional[int] = None,
        batch_shape: Tuple[int, ...] = (),
        dtype=np.float32,
        storage: Optional[str] = None,
        obs: Optional[Observability] = None,
        name: Optional[str] = None,
    ) -> "BlockPool":
        """Size a pool to a byte budget: as many blocks as the arenas can hold.

        The per-block cost is priced at the *storage* dtype — an int8 pool
        carves roughly 4x the blocks of an fp32 pool from one budget, minus
        the per-row quantization-parameter overhead.
        """
        value_dim = key_dim if value_dim is None else value_dim
        resolved = resolve_storage(storage, resolve_dtype(dtype))
        element = STORAGE_DTYPES[resolved].itemsize
        slices = prod(batch_shape or (1,))
        per_block = slices * block_size * (
            (key_dim + value_dim) * element + storage_param_bytes_per_token(resolved)
        )
        num_blocks = int(memory_budget_bytes) // per_block
        require(
            num_blocks >= 1,
            f"memory budget {memory_budget_bytes} bytes is below one "
            f"{per_block}-byte block",
        )
        return cls(
            num_blocks,
            block_size,
            key_dim=key_dim,
            value_dim=value_dim,
            batch_shape=batch_shape,
            dtype=dtype,
            storage=storage,
            obs=obs,
            name=name,
        )

    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        """Compute dtype: what gathers return, regardless of storage format."""
        return self._dtype

    @property
    def storage_dtype(self) -> np.dtype:
        """Element dtype the arenas physically hold."""
        return self._keys.dtype

    @property
    def block_bytes(self) -> int:
        """Physical bytes of one block: K/V tiles plus quantization parameters."""
        slices = prod(self.batch_shape) if self.batch_shape else 1
        element = self._keys.dtype.itemsize
        data = slices * self.block_size * (self.key_dim + self.value_dim) * element
        params = slices * self.block_size * storage_param_bytes_per_token(self.storage)
        return int(data + params)

    @property
    def nbytes(self) -> int:
        """Total arena bytes (the fixed memory budget the pool occupies)."""
        total = self._keys.nbytes + self._values.nbytes
        if self._k_scale is not None:
            total += (
                self._k_scale.nbytes
                + self._k_zero.nbytes
                + self._v_scale.nbytes
                + self._v_zero.nbytes
            )
        return int(total)

    @property
    def free_blocks(self) -> int:
        with self._lock:
            return len(self._free)

    @property
    def evictable_blocks(self) -> int:
        with self._lock:
            return len(self._evictable)

    @property
    def available_blocks(self) -> int:
        """Blocks an allocation could obtain right now (free + evictable)."""
        with self._lock:
            return len(self._free) + len(self._evictable)

    @property
    def blocks_in_use(self) -> int:
        """Blocks mapped by at least one live cache (refcount > 0)."""
        with self._lock:
            return self._in_use

    @property
    def used_bytes(self) -> int:
        """Bytes of the blocks currently mapped by live caches."""
        return self.blocks_in_use * self.block_bytes

    def refcount(self, block: int) -> int:
        with self._lock:
            return int(self._refcounts[block])

    def _refresh_gauges(self) -> None:
        self.stats.free_blocks = len(self._free)
        self.stats.evictable_blocks = len(self._evictable)
        self.stats.blocks_in_use = self._in_use
        if self.obs.enabled:
            self._obs_free.set(len(self._free))
            self._obs_evictable.set(len(self._evictable))
            self._obs_in_use.set(self._in_use)
            self._obs_kv_bytes.set(self._in_use * self.block_bytes)

    def stats_snapshot(self) -> BlockPoolStats:
        """Tear-free copy of the pool's counters and gauges (under the lock)."""
        with self._lock:
            return self.stats.snapshot()

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _evict_locked(self) -> int:
        block, _ = self._evictable.popitem(last=False)  # least recently parked
        fingerprint = self._block_to_fingerprint.pop(block, None)
        if fingerprint is not None:
            self._fingerprint_to_block.pop(fingerprint, None)
        self.stats.evictions += 1
        if self.obs.enabled:
            self._obs_evict.inc()
        return block

    def _alloc_locked(self) -> int:
        if self._free:
            block = self._free.pop()
        elif self._evictable:
            block = self._evict_locked()
        else:
            raise PoolExhausted(
                f"all {self.num_blocks} blocks are referenced by live sessions"
            )
        self._refcounts[block] = 1
        self._in_use += 1
        self.stats.allocations += 1
        if self.obs.enabled:
            self._obs_alloc.inc()
        return block

    def reserve(self, count: int) -> List[int]:
        """Atomically allocate ``count`` blocks (refcount 1 each) or none.

        Raises :exc:`PoolExhausted` without side effects when fewer than
        ``count`` blocks are free or evictable — the all-or-nothing shape a
        batched decode step needs so a failed batch mutates nothing.
        """
        require(count >= 0, "reserve count must be non-negative")
        with self._lock:
            if len(self._free) + len(self._evictable) < count:
                self.stats.failed_reservations += 1
                if self.obs.enabled:
                    self._obs_fail.inc()
                raise PoolExhausted(
                    f"need {count} blocks, only "
                    f"{len(self._free) + len(self._evictable)} available"
                )
            blocks = [self._alloc_locked() for _ in range(count)]
            self._refresh_gauges()
            return blocks

    def incref(self, block: int) -> None:
        with self._lock:
            require(self._refcounts[block] > 0, "incref on an unreferenced block")
            self._refcounts[block] += 1
            # no gauge refresh: gauges move only on 0<->1 refcount edges and
            # free/evictable list changes, none of which can happen here

    def release(self, blocks: Sequence[int]) -> None:
        """Drop one reference from each block; unreferenced blocks park or free.

        A block still registered under a prefix fingerprint becomes
        *evictable* (kept warm for future identical prefixes, reclaimed LRU
        under pressure); an unregistered block returns straight to the free
        list.
        """
        with self._lock:
            for block in blocks:
                count = int(self._refcounts[block])
                require(count > 0, f"double free of block {block}")
                self._refcounts[block] = count - 1
                if count == 1:
                    self._in_use -= 1
                    if block in self._block_to_fingerprint:
                        # a 1 -> 0 transition cannot already be parked, so the
                        # fresh insertion lands most-recently-parked
                        self._evictable[block] = None
                    else:
                        self._free.append(block)
            self._refresh_gauges()

    # ------------------------------------------------------------------ #
    # Prefix sharing
    # ------------------------------------------------------------------ #
    def lookup(self, fingerprint: str, *, tokens: int = 0) -> Optional[int]:
        """Map a chained prefix fingerprint to its physical block, if cached.

        A hit increfs the block (reviving it from the evictable LRU when its
        last session already finished) — the caller now maps it.  ``tokens``
        is the token count the hit deduplicates, credited to the pool's
        ``shared_tokens_saved`` counter under the lock.
        """
        with self._lock:
            block = self._fingerprint_to_block.get(fingerprint)
            if block is not None:
                self._share_locked(block, tokens)
            return block

    def _share_locked(self, block: int, tokens: int) -> None:
        """Map one more reference to ``block`` and credit the share (lock held)."""
        if self._refcounts[block] == 0:
            self._evictable.pop(block, None)
            self._refcounts[block] = 1
            self._in_use += 1
        else:
            self._refcounts[block] += 1
        self.stats.share_hits += 1
        self.stats.shared_tokens_saved += int(tokens)
        if self.obs.enabled:
            self._obs_share.inc()
            self._obs_shared_tokens.inc(int(tokens))
        self._refresh_gauges()

    def register(self, fingerprint: str, block: int) -> None:
        """Publish a block under its chained fingerprint for future sharing.

        The block's previous fingerprint (if any) is withdrawn first, even
        when the new fingerprint loses the first-writer-wins race — the block
        holds new content either way, so its old mapping must never survive.
        """
        with self._lock:
            stale = self._block_to_fingerprint.pop(block, None)
            if stale is not None and self._fingerprint_to_block.get(stale) == block:
                self._fingerprint_to_block.pop(stale)
            if fingerprint in self._fingerprint_to_block:
                return  # first writer wins; the duplicate stays private
            self._fingerprint_to_block[fingerprint] = block
            self._block_to_fingerprint[block] = fingerprint

    def invalidate(self, block: int) -> None:
        """Withdraw a block's fingerprint before its content is mutated."""
        with self._lock:
            fingerprint = self._block_to_fingerprint.pop(block, None)
            if fingerprint is not None:
                self._fingerprint_to_block.pop(fingerprint, None)

    def retract_shares(self, hits: int, tokens: int) -> None:
        """Back out the share credit of lookups whose extend then failed."""
        with self._lock:
            self.stats.share_hits -= int(hits)
            self.stats.shared_tokens_saved -= int(tokens)
            if self.obs.enabled:
                self._obs_retract.inc(int(hits))

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def encode(self, k_rows: np.ndarray, v_rows: np.ndarray) -> EncodedChunk:
        """Encode compute-dtype K/V rows into this pool's storage format."""
        return encode_chunk(k_rows, v_rows, self.storage)

    def write_rows(self, physical: np.ndarray, chunk: EncodedChunk) -> None:
        """Scatter an encoded chunk's rows into arena rows ``physical``, in order."""
        self._keys[..., physical, :] = chunk.k
        self._values[..., physical, :] = chunk.v
        if self._k_scale is not None:
            self._k_scale[..., physical] = chunk.k_scale
            self._k_zero[..., physical] = chunk.k_zero
            self._v_scale[..., physical] = chunk.v_scale
            self._v_zero[..., physical] = chunk.v_zero

    def copy_block(self, src: int, dst: int, fill: int) -> None:
        """Copy the first ``fill`` rows of ``src`` into ``dst`` (the COW copy).

        A raw byte move in storage space — quantization parameters travel
        with their rows, so a COW of quantized content is exact by
        construction (no decode/re-encode, hence no added error).
        """
        s, d = src * self.block_size, dst * self.block_size
        self._keys[..., d : d + fill, :] = self._keys[..., s : s + fill, :]
        self._values[..., d : d + fill, :] = self._values[..., s : s + fill, :]
        if self._k_scale is not None:
            self._k_scale[..., d : d + fill] = self._k_scale[..., s : s + fill]
            self._k_zero[..., d : d + fill] = self._k_zero[..., s : s + fill]
            self._v_scale[..., d : d + fill] = self._v_scale[..., s : s + fill]
            self._v_zero[..., d : d + fill] = self._v_zero[..., s : s + fill]
        with self._lock:
            self.stats.cow_copies += 1
            if self.obs.enabled:
                self._obs_cow.inc()

    def encoded_block_rows(self, block: int, fill: int) -> EncodedChunk:
        """One block's first ``fill`` rows as stored (views, storage dtype)."""
        start = block * self.block_size
        stop = start + fill
        if self._k_scale is None:
            return EncodedChunk(
                k=self._keys[..., start:stop, :], v=self._values[..., start:stop, :]
            )
        return EncodedChunk(
            k=self._keys[..., start:stop, :],
            v=self._values[..., start:stop, :],
            k_scale=self._k_scale[..., start:stop],
            k_zero=self._k_zero[..., start:stop],
            v_scale=self._v_scale[..., start:stop],
            v_zero=self._v_zero[..., start:stop],
        )

    def block_rows(self, block: int, fill: int) -> Tuple[np.ndarray, np.ndarray]:
        """One block's first ``fill`` K/V rows decoded to the compute dtype."""
        return decode_chunk(self.encoded_block_rows(block, fill), self._dtype)

    def encoded_rows(self, physical: np.ndarray) -> EncodedChunk:
        """Copies of arbitrary physical rows as stored (the swap-out payload)."""
        if self._k_scale is None:
            return EncodedChunk(
                k=self._keys[..., physical, :], v=self._values[..., physical, :]
            )
        return EncodedChunk(
            k=self._keys[..., physical, :],
            v=self._values[..., physical, :],
            k_scale=self._k_scale[..., physical],
            k_zero=self._k_zero[..., physical],
            v_scale=self._v_scale[..., physical],
            v_zero=self._v_zero[..., physical],
        )

    def chunk_fingerprint(self, parent: str, chunk: EncodedChunk, fill: int) -> str:
        """Chained content hash of an encoded chunk (storage bytes + params)."""
        return _fingerprint(
            parent,
            np.ascontiguousarray(chunk.k).tobytes(),
            np.ascontiguousarray(chunk.v).tobytes(),
            fill,
            chunk.param_bytes(),
        )

    def _decode_gather(
        self,
        arena: np.ndarray,
        scale: Optional[np.ndarray],
        zero: Optional[np.ndarray],
        physical: np.ndarray,
    ) -> np.ndarray:
        """Gather physical rows and decode them to the compute dtype."""
        if self._identity:
            # storage == compute: the fp32 hot path stays one fancy-index
            return arena[..., physical, :]
        started = time.perf_counter() if self.obs.enabled else 0.0
        if scale is None:
            out = arena[..., physical, :].astype(self._dtype)
        else:
            out = compiled.gather_dequant_int8(arena, scale, zero, physical)
            if self._dtype != out.dtype:
                out = out.astype(self._dtype)
        if self.obs.enabled:
            self._obs_dequant.inc(time.perf_counter() - started)
        return out

    def decode_key_rows(self, physical: np.ndarray) -> np.ndarray:
        """Key rows at ``physical`` arena indices, decoded to the compute dtype."""
        return self._decode_gather(self._keys, self._k_scale, self._k_zero, physical)

    def decode_value_rows(self, physical: np.ndarray) -> np.ndarray:
        """Value rows at ``physical`` arena indices, decoded to the compute dtype."""
        return self._decode_gather(self._values, self._v_scale, self._v_zero, physical)

    def physical_rows(
        self, caches: Sequence["PagedKVCache"], positions: np.ndarray, counts: Sequence[int]
    ) -> np.ndarray:
        """Arena rows of logical token ``positions`` of caches on this pool.

        ``positions`` holds ``counts[s]`` positions of cache ``s``, cache
        after cache.  One vectorised lookup through the caches' block tables
        laid end to end, after one check that every position lies in its own
        cache's ``[0, length)``.
        """
        positions = np.asarray(positions, dtype=np.int64)
        tables = [cache._table() for cache in caches]
        blocks = np.array([table.size for table in tables], dtype=np.int64)
        table = np.concatenate(tables)
        limits = np.repeat([cache.length for cache in caches], counts)
        shifts = np.repeat((np.cumsum(blocks) - blocks) * self.block_size, counts)
        if positions.size:
            require(int(positions.min()) >= 0, "gather with negative positions")
            require(bool(np.all(positions < limits)), "gather past the live token range")
        logical = positions + shifts
        return table[logical // self.block_size] * self.block_size + logical % self.block_size

    def attention_operands(
        self, caches: Sequence["PagedKVCache"], positions: np.ndarray, counts: np.ndarray
    ) -> Tuple[compiled.Arena, np.ndarray]:
        """``(arena, rows)`` the attention kernel reads the caches' positions through.

        ``positions`` and ``counts`` as in :meth:`physical_rows`.  The pool's
        own arenas and the positions' physical rows (O(E) integers), so the
        kernel reads K/V in place.  Storage the kernel cannot read (fp16, or
        int8 under a non-fp32 compute dtype) decodes all the rows in one
        gather and hands over the copy as the arena.
        """
        physical = self.physical_rows(caches, positions, counts)
        if self._kernel_arena is not None:
            return self._kernel_arena, physical
        arena = compiled.Arena(self.decode_key_rows(physical), self.decode_value_rows(physical))
        return arena, np.arange(physical.size, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def check_consistency(self) -> None:
        """Assert pool invariants (test hook): no leaks, no double mapping."""
        with self._lock:
            free = set(self._free)
            evictable = set(self._evictable)
            require(len(free) == len(self._free), "free list holds duplicates")
            require(not (free & evictable), "block is both free and evictable")
            referenced = {int(b) for b in np.flatnonzero(self._refcounts)}
            require(
                not (referenced & free) and not (referenced & evictable),
                "referenced block sits on the free/evictable lists",
            )
            require(
                self._in_use == len(referenced),
                "in-use counter diverged from the refcount array",
            )
            require(
                len(free) + len(evictable) + len(referenced) == self.num_blocks,
                "blocks leaked: free + evictable + referenced != num_blocks",
            )
            for fingerprint, block in self._fingerprint_to_block.items():
                require(
                    self._block_to_fingerprint.get(block) == fingerprint,
                    "fingerprint maps are out of sync",
                )


# --------------------------------------------------------------------------- #
# Paged cache
# --------------------------------------------------------------------------- #
class PagedKVCache:
    """Block-table KV cache over a shared :class:`BlockPool`.

    The one KV cache a :class:`~repro.serve.decode.DecodeSession` holds —
    ``extend``/``append``, ``length``, ``gather_keys``/``gather_values``,
    ``keys``/``values`` — stored as a list of physical block ids.  A session
    without a shared pool pages through a pool of its own.

    Prefill chunks are fingerprinted block-by-block with a chained content
    hash; a fingerprint already published in the pool maps the existing
    physical block instead of writing a copy (prefix sharing, including a
    partially-filled tail).  Appending into a block referenced by another
    session copies it first (copy-on-write), so divergence after a shared
    prefix never corrupts a sibling stream.  :meth:`release` returns every
    block reference; released caches refuse further writes, which is what
    makes double-free structurally impossible.  A serving pass appends to
    all its caches in one write; :meth:`extend` is that write for one cache.
    """

    def __init__(self, pool: BlockPool, *, max_length: Optional[int] = None) -> None:
        self.pool = pool
        self.batch_shape = pool.batch_shape
        self.key_dim = pool.key_dim
        self.value_dim = pool.value_dim
        self.max_length = int(max_length) if max_length is not None else None
        require(
            self.max_length is None or self.max_length >= 1,
            "max_length must be >= 1 when given",
        )
        self._blocks: List[int] = []
        self._blocks_set: set = set()  # mirrors _blocks for O(1) membership
        self._table_cache = np.zeros(0, dtype=np.int64)  # _blocks as ndarray
        self._table_dirty = False
        self._length = 0
        self._chain = "root"  # fingerprint of the full-block prefix
        self._fill = 0  # tokens in the partial tail block; 0 = block-aligned
        #: admission-reserved blocks, consumed before any pool allocation
        self._prereserved: List[int] = []
        self.released = False
        self.share_hits = 0
        self.cow_copies = 0

    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        return self.pool.dtype

    @property
    def length(self) -> int:
        """Number of live tokens."""
        return self._length

    @property
    def capacity(self) -> int:
        """Token slots the current block table holds without a new allocation."""
        return len(self._blocks) * self.pool.block_size

    @property
    def blocks_used(self) -> int:
        return len(self._blocks)

    @property
    def block_table(self) -> Tuple[int, ...]:
        """Physical block ids backing logical positions, in order."""
        return tuple(self._blocks)

    @property
    def nbytes(self) -> int:
        """Physical bytes this cache maps (shared blocks count fully here)."""
        return len(self._blocks) * self.pool.block_bytes

    @property
    def prereserved_blocks(self) -> int:
        """Admission-reserved blocks not yet holding tokens."""
        return len(self._prereserved)

    def prereserve(self, blocks: int) -> None:
        """Hold ``blocks`` pool blocks for this cache ahead of any append.

        This is what makes server admission *real* rather than advisory: the
        blocks are refcounted to this cache immediately (atomically, or
        :exc:`PoolExhausted` with no side effects), so a stream admitted for
        N tokens cannot lose them to a racing stream between admission and
        prefill.  Appends consume the reservation before touching the pool;
        whatever prefix sharing leaves unused returns at :meth:`release`.
        """
        require(not self.released, "cache was released back to the pool")
        self._prereserved.extend(self.pool.reserve(blocks))

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def _table(self) -> np.ndarray:
        """The block table as an int64 array (rebuilt after it changed)."""
        if self._table_dirty:
            self._table_cache = np.asarray(self._blocks, dtype=np.int64)
            self._table_dirty = False
        return self._table_cache

    def _physical(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        return self.pool.physical_rows([self], positions, [positions.size])

    def gather_keys(self, positions: np.ndarray) -> np.ndarray:
        """Key rows of logical token ``positions``, ``batch_shape + (E, d_k)``.

        Rows come back in the pool's *compute* dtype: identity storage is the
        same single fancy-index as before, quantized storage dequantizes
        through the compiled gather path.  The attention paths read rows in
        place instead (:meth:`BlockPool.attention_operands`).
        """
        return self.pool.decode_key_rows(self._physical(positions))

    def gather_values(self, positions: np.ndarray) -> np.ndarray:
        """Value rows of logical token ``positions``, ``batch_shape + (E, d_v)``."""
        return self.pool.decode_value_rows(self._physical(positions))

    def keys(self) -> np.ndarray:
        """All live key rows gathered contiguously (copy, for inspection/tests)."""
        return self.gather_keys(np.arange(self._length, dtype=INDEX_DTYPE))

    def values(self) -> np.ndarray:
        """All live value rows gathered contiguously (copy, for inspection/tests)."""
        return self.gather_values(np.arange(self._length, dtype=INDEX_DTYPE))

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #
    def extend(self, k_block: np.ndarray, v_block: np.ndarray) -> int:
        """Append a block of tokens; returns the first appended position.

        The one-cache call of the pass writer: a probe fingerprints every
        chunk and takes share references first (reviving parked prefixes —
        lookup strictly precedes allocation), then the exact fresh-block
        shortfall is reserved all-or-nothing before any write.  A
        :exc:`PoolExhausted` therefore leaves the cache (and the pool)
        exactly as they were — a failed multi-block prefill neither writes a
        row nor cascade-evicts the warm prefix LRU.
        """
        k_block, v_block = np.asarray(k_block), np.asarray(v_block)
        self._check_block(k_block, v_block)
        start = self._length
        _write_blocks([self], [k_block], [v_block])
        return start

    def append(self, k_row: np.ndarray, v_row: np.ndarray) -> int:
        """Append one token (rows shaped ``batch_shape + (d,)``); returns its position."""
        return self.extend(
            np.asarray(k_row)[..., None, :], np.asarray(v_row)[..., None, :]
        )

    def _check_block(self, k_block: np.ndarray, v_block: np.ndarray) -> None:
        """Refuse a block whose layout this cache cannot take."""
        require(k_block.ndim >= 2, "key block must be batch_shape + (T, d_k)")
        count = int(k_block.shape[-2])
        require(
            k_block.shape == self.batch_shape + (count, self.key_dim),
            "key block shape does not match the pool layout",
        )
        require(
            v_block.shape == self.batch_shape + (count, self.value_dim),
            "value block shape does not match the pool layout",
        )

    def _map(self, block: int) -> None:
        """Append ``block`` to the table."""
        self._blocks.append(block)
        self._blocks_set.add(block)
        self._table_dirty = True

    def _retail(self, block: int) -> None:
        """Replace the tail block with ``block`` (its copy on write)."""
        self._blocks_set.discard(self._blocks[-1])
        self._blocks[-1] = block
        self._blocks_set.add(block)
        self._table_dirty = True

    def _snapshot(self) -> tuple:
        return (list(self._blocks), self._length, self._chain, self._fill, self.share_hits, self.cow_copies)

    def _roll_back(self, snapshot: tuple) -> None:
        self._blocks, self._length, self._chain, self._fill, self.share_hits, self.cow_copies = snapshot
        self._blocks_set = set(self._blocks)
        self._table_dirty = True

    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Return every block reference to the pool; idempotent.

        Blocks still fingerprint-registered park in the pool's evictable LRU
        (a finished session's prompt stays warm); the rest free immediately.
        """
        if self.released:
            return
        self.released = True
        blocks = self._blocks + self._prereserved
        self._blocks, self._prereserved = [], []
        self._blocks_set = set()
        self._table_dirty = True
        self._length = 0
        self._fill = 0
        self.pool.release(blocks)

    def swap_out(self) -> "SwapHandle":
        """Serialize the live rows *as stored* and release every block.

        The returned :class:`SwapHandle` carries the encoded payload —
        quantized bytes plus their per-row parameters for int8 pools, never
        an fp32 inflation — so parking a quantized stream costs the pool's
        per-token storage footprint, and a :meth:`restore` maps exactly the
        bytes that left.  Because fingerprint-registered blocks park in the
        pool's evictable LRU at release, a prompt whose blocks survive until
        the resume is *re-shared* by the restore's probe instead of
        rewritten — the swap-in usually costs refcount bumps, not copies,
        while the host copy guarantees bit-exact resume even after the LRU
        was reclaimed.
        """
        require(not self.released, "cache was released back to the pool")
        physical = self._physical(np.arange(self._length, dtype=np.int64))
        handle = SwapHandle(
            payload=self.pool.encoded_rows(physical),
            storage=self.pool.storage,
            dtype=self.pool.dtype,
            length=self._length,
        )
        self.release()
        return handle

    def restore(self, handle: "SwapHandle") -> None:
        """Map a swap handle's encoded payload into this (empty) cache.

        The payload re-enters through the same probe/commit machinery as
        :meth:`extend` (a one-cache pass write of rows already encoded);
        identical stored bytes regenerate identical chain fingerprints, so
        blocks still parked in the pool's evictable LRU are re-shared instead
        of rewritten.  The rows are never decoded to the
        compute dtype on the way — a quantized stream resumes with exactly
        the bytes it swapped out, with zero added quantization error.
        """
        require(not self.released, "cache was released back to the pool")
        require(self._length == 0, "restore requires an empty cache")
        require(
            handle.storage == self.pool.storage,
            f"swap handle holds {handle.storage} payload, pool stores "
            f"{self.pool.storage}",
        )
        require(
            handle.payload.k.shape
            == self.batch_shape + (handle.length, self.key_dim)
            and handle.payload.v.shape
            == self.batch_shape + (handle.length, self.value_dim),
            "swap handle layout does not match the pool",
        )
        _commit_writes([_PoolWrite(self.pool, [self], handle.payload, [handle.length])])


# --------------------------------------------------------------------------- #
# Pass writes
# --------------------------------------------------------------------------- #
def _write_blocks(
    caches: Sequence[PagedKVCache],
    k_blocks: Sequence[np.ndarray],
    v_blocks: Sequence[np.ndarray],
) -> None:
    """Append each cache's own ``batch_shape + (T, d)`` token block, all or nothing.

    The KV write of one serving pass, on blocks already checked against
    their caches' layouts.  Per pool, the new rows of all its caches are
    encoded in one call (per-row coding, so the stored bytes equal per-cache
    encodes); probed cache by cache in pass order — partial tails claimed
    under one lock hold, chunks looked up in the pool and in the map of
    chunks earlier caches of this pass write; covered by one all-or-nothing
    :meth:`BlockPool.reserve` of only the blocks the probe left unmet, net
    of admission prereserves; and scattered into the arenas at once.
    Fingerprints are published after every pool committed.  Any failure —
    :exc:`PoolExhausted` included — rolls every cache and pool back, so a
    failed pass advances nothing.

    The result equals the caches' one-cache :meth:`PagedKVCache.extend`
    calls in pass order, with two exceptions.  The reservation follows every
    probe, so a block a later cache shares is never evicted or reserved
    first.  And caches of one pass that all append into one shared partial
    tail each copy it on write, where sequential calls can copy one time
    fewer (the last finds the tail its own unless another cache maps it by
    then).
    """
    require(len({id(cache) for cache in caches}) == len(caches), "a cache may appear at most once per write")
    members: Dict[int, List[int]] = {}
    for index, cache in enumerate(caches):
        members.setdefault(id(cache.pool), []).append(index)
    writes = []
    for indices in members.values():
        pool = caches[indices[0]].pool
        k = np.concatenate([k_blocks[i] for i in indices], axis=-2, dtype=pool.dtype, casting="unsafe")
        v = np.concatenate([v_blocks[i] for i in indices], axis=-2, dtype=pool.dtype, casting="unsafe")
        counts = [k_blocks[i].shape[-2] for i in indices]
        writes.append(_PoolWrite(pool, [caches[i] for i in indices], pool.encode(k, v), counts))
    _commit_writes(writes)


def _commit_writes(writes: Sequence["_PoolWrite"]) -> None:
    """Probe, reserve and commit every pool's write, then publish; all or nothing."""
    try:
        for write in writes:
            write.probe()
        for write in writes:
            write.reserve()
        for write in writes:
            write.commit()
    except BaseException:
        for write in writes:
            write.roll_back()
        raise
    for write in writes:
        write.publish()


class _Step(NamedTuple):
    """One probed chunk of a cache's append, executed verbatim by the commit."""

    #: "tail" (into the partial tail in place), "cow" (into a copy of the
    #: shared partial tail), "fresh" (a new block), "share" (a published
    #: block) or "pending" (a block an earlier cache of the pass writes)
    kind: str
    take: int  # tokens this chunk covers
    fingerprint: Optional[str]  # published after the commit; None for a partial tail
    row: int = 0  # tail/cow/fresh: the chunk's first row in the encoded payload
    block: int = -1  # share: the physical block to map
    source: Tuple[int, int] = (-1, -1)  # pending: (plan, step) of the writing chunk


class _PoolWrite:
    """One pool's part of :func:`_write_blocks`: probe, reserve, commit, publish."""

    def __init__(
        self,
        pool: BlockPool,
        caches: Sequence[PagedKVCache],
        payload: EncodedChunk,
        counts: Sequence[int],
    ) -> None:
        for cache, count in zip(caches, counts):
            require(not cache.released, "cache was released back to the pool")
            if cache.max_length is not None and cache.length + count > cache.max_length:
                raise ValueError(
                    f"KV cache full: {cache.length + count} tokens exceed the decode horizon {cache.max_length}"
                )
        self.pool = pool
        self.caches = caches
        self.payload = payload
        self.counts = counts
        #: per cache: ``(cache, steps, chain after, blocks acquired)``
        self.plans: List[Tuple[PagedKVCache, List[_Step], str, int]] = []
        self.refs: List[int] = []  # references taken: share hits and the reservation
        self.credit = [0, 0]  # share hits and shared tokens credited to the pool
        self.reserved: List[int] = []
        self.held: List[Tuple[PagedKVCache, int]] = []  # blocks drawn from prereserves
        self.snapshots: List[tuple] = []  # of the planned caches, as committed
        self.deferred: List[int] = []  # copied-on-write tails, released on success
        self.published: List[Tuple[str, int]] = []

    def probe(self) -> None:
        """Fingerprint every chunk and take share references; write nothing.

        Share hits are increfed *here*, before any reservation, so a prefix
        parked in the evictable LRU is revived rather than evicted to make
        room for its own copy.  Fingerprints hash the *encoded* payload
        (quantized bytes plus their per-row parameters), so two caches share
        a block exactly when its stored content matches — and a swap restore
        of the same payload regenerates the same chain.
        """
        pool, payload = self.pool, self.payload
        size, refcounts = pool.block_size, pool._refcounts
        written: Dict[str, Tuple[int, int]] = {}  # chunks this pass writes: (plan, step)
        row = 0
        with pool._lock:
            for cache, count in zip(self.caches, self.counts):
                steps: List[_Step] = []
                chain, fill, pos, acquires = cache._chain, cache._fill, 0, 0
                if fill and count:
                    # the leading rows land in the partial tail.  Held by this
                    # cache alone, it is claimed for an in-place write (its
                    # fingerprint withdrawn, so no new sharer can map it; under
                    # the lock a concurrent lookup shares it before or misses
                    # after, never in between); mapped by others too, it is
                    # copied on write
                    tail = cache._blocks[-1]
                    claimed = refcounts[tail] == 1
                    if claimed and tail in pool._block_to_fingerprint:
                        pool.invalidate(tail)
                    take = min(size - fill, count)
                    fingerprint = None
                    if fill + take == size:
                        full = pool.encoded_block_rows(tail, fill).concat(payload.slice(row, row + take))
                        fingerprint = chain = pool.chunk_fingerprint(chain, full, size)
                        written.setdefault(fingerprint, (len(self.plans), 0))
                    steps.append(_Step("tail" if claimed else "cow", take, fingerprint, row))
                    acquires += not claimed
                    pos = take
                while pos < count:
                    take = min(size, count - pos)
                    chunk = payload.slice(row + pos, row + pos + take)
                    fingerprint = pool.chunk_fingerprint(chain, chunk, take)
                    source = written.get(fingerprint)
                    shared = None if source is not None else pool.lookup(fingerprint, tokens=take)
                    if source is not None:
                        # an earlier cache of this pass writes this very chunk:
                        # map its block, as sequential extends would
                        steps.append(_Step("pending", take, fingerprint, source=source))
                    elif shared is not None:
                        self.refs.append(shared)
                        self.credit[0] += 1
                        self.credit[1] += take
                        steps.append(_Step("share", take, fingerprint, block=shared))
                    else:
                        written[fingerprint] = (len(self.plans), len(steps))
                        steps.append(_Step("fresh", take, fingerprint, row + pos))
                        acquires += 1
                    if take == size:
                        chain = fingerprint
                    pos += take
                self.plans.append((cache, steps, chain, acquires))
                row += count

    def reserve(self) -> None:
        """Reserve, all or nothing, the blocks prereserves do not cover."""
        shortfall = sum(max(0, acquires - len(cache._prereserved)) for cache, _, _, acquires in self.plans)
        if shortfall:
            self.reserved = self.pool.reserve(shortfall)
            self.refs.extend(self.reserved)

    def _acquire(self, cache: PagedKVCache) -> int:
        if cache._prereserved:
            block = cache._prereserved.pop()
            self.held.append((cache, block))
        else:
            block = self.reserved.pop()
        # a write target must be private to this call: a block already in the
        # table would be silently overwritten by the coming scatter
        require(
            block not in cache._blocks_set,
            f"pool handed out block {block} already mapped by this cache",
        )
        return block

    def commit(self) -> None:
        """Map every chunk's block, copy shared tails, scatter the rows at once."""
        pool = self.pool
        size = pool.block_size
        blocks: Dict[Tuple[int, int], int] = {}  # block of every (plan, step)
        chunks: List[Tuple[int, int, int]] = []  # (payload row, arena row, rows) the scatter writes
        for number, (cache, steps, chain, _) in enumerate(self.plans):
            self.snapshots.append(cache._snapshot())
            for index, step in enumerate(steps):
                take, kind = step.take, step.kind
                if kind == "tail" or kind == "cow":
                    block, offset = cache._blocks[-1], cache._fill
                    if kind == "cow":
                        # divergence after a shared partial prefix: the old
                        # tail is released only once the whole pass landed
                        copy = self._acquire(cache)
                        pool.copy_block(block, copy, offset)
                        self.deferred.append(block)
                        cache._retail(copy)
                        cache.cow_copies += 1
                        block = copy
                    cache._fill = (offset + take) % size
                else:
                    if kind == "fresh":
                        block = self._acquire(cache)
                    elif kind == "share":
                        block = step.block
                    else:
                        block = blocks[step.source]
                        with pool._lock:
                            pool._share_locked(block, take)
                        self.refs.append(block)
                        self.credit[0] += 1
                        self.credit[1] += take
                    if kind != "fresh":
                        cache.share_hits += 1
                    cache._map(block)
                    offset = 0
                    cache._fill = take % size
                if kind != "share" and kind != "pending":
                    chunks.append((step.row, block * size + offset, take))
                    if step.fingerprint is not None:
                        self.published.append((step.fingerprint, block))
                blocks[(number, index)] = block
                cache._length += take
            cache._chain = chain
        if chunks:
            rows, targets, takes = zip(*chunks)
            source, physical = concatenated_ranges(rows, takes), concatenated_ranges(targets, takes)
            pool.write_rows(physical, self.payload.take(source))

    def roll_back(self) -> None:
        """Undo everything: tables, references, prereserves and share credit.

        Evictions and tail claims that already happened are harmless
        metadata loss.  Nothing was published yet — a failed write must
        never leave a fingerprint pointing at a block it just rolled back
        into the free pool or an admission prereserve, or a retry could
        share that block while it is handed out again.
        """
        for (cache, _, _, _), snapshot in zip(self.plans, self.snapshots):
            cache._roll_back(snapshot)
        for cache, block in self.held:
            cache._prereserved.append(block)
        if self.refs:
            self.pool.release(self.refs)
        if self.credit[0]:
            self.pool.retract_shares(*self.credit)

    def publish(self) -> None:
        """Register the written chunks' fingerprints; release copied tails."""
        for fingerprint, block in self.published:
            self.pool.register(fingerprint, block)
        if self.deferred:
            self.pool.release(self.deferred)


# --------------------------------------------------------------------------- #
# Host-side swap parking
# --------------------------------------------------------------------------- #
@dataclass
class SwapHandle:
    """Host-side copy of one preempted stream's live K/V rows, as stored.

    ``payload`` is the pool's encoded representation (storage dtype plus
    int8 quantization parameters); ``keys``/``values`` decode it to the
    compute dtype on demand for inspection and compatibility — restoring
    through :meth:`PagedKVCache.restore` never decodes.
    """

    payload: EncodedChunk
    storage: str
    dtype: np.dtype
    length: int

    @property
    def keys(self) -> np.ndarray:
        """Decoded key rows, ``batch_shape + (length, d_k)`` compute dtype."""
        return decode_chunk(self.payload, self.dtype)[0]

    @property
    def values(self) -> np.ndarray:
        """Decoded value rows, ``batch_shape + (length, d_v)`` compute dtype."""
        return decode_chunk(self.payload, self.dtype)[1]

    @property
    def nbytes(self) -> int:
        """Host bytes parked: the encoded payload, not its fp32 inflation."""
        return self.payload.nbytes


@dataclass
class SwapStoreStats:
    """Lifetime counters of one :class:`SwapStore`."""

    swap_outs: int = 0
    swap_ins: int = 0
    bytes_out: int = 0
    bytes_in: int = 0


class SwapStore:
    """Keyed parking lot for preempted sessions' serialized KV caches.

    The continuous-batching scheduler parks a victim's :class:`SwapHandle`
    here under the stream's request id at swap-out and pops it back at
    resume.  :meth:`peek` exposes the handle without consuming it so a
    restore that fails admission (the pool is still full) leaves the swap
    intact for the next attempt; only the successful :meth:`pop` counts a
    swap-in.
    """

    def __init__(self) -> None:
        self._slots: Dict[object, SwapHandle] = {}
        self.stats = SwapStoreStats()

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: object) -> bool:
        return key in self._slots

    @property
    def resident_bytes(self) -> int:
        """Host bytes currently parked across all swapped streams."""
        return sum(handle.nbytes for handle in self._slots.values())

    def put(self, key: object, handle: SwapHandle) -> None:
        require(key not in self._slots, f"stream {key!r} is already swapped out")
        self._slots[key] = handle
        self.stats.swap_outs += 1
        self.stats.bytes_out += handle.nbytes

    def peek(self, key: object) -> SwapHandle:
        require(key in self._slots, f"no swapped stream under {key!r}")
        return self._slots[key]

    def pop(self, key: object) -> SwapHandle:
        handle = self.peek(key)
        del self._slots[key]
        self.stats.swap_ins += 1
        self.stats.bytes_in += handle.nbytes
        return handle


__all__ = [
    "BlockPool",
    "BlockPoolStats",
    "DEFAULT_BLOCK_SIZE",
    "PagedKVCache",
    "PoolExhausted",
    "SwapHandle",
    "SwapStore",
    "SwapStoreStats",
]
