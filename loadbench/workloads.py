"""Seeded request generators for the ``chat``, ``rag`` and ``longctx`` workloads.

A request's *shape* (lengths, mask, priority, document) is a pure function of
its index, and its *tensors* a pure function of ``(seed, index)``: every seed
sends the same schedule of shapes, and seeds differ only in the data served.
A request's tensors are made only when its caller sends it.  The serving stack
never sees the seed, only the generated tensors.

Shapes are *stratified*: each block of consecutive requests takes a fixed
permutation of evenly spaced values, so any whole number of blocks offers the
same length distribution.  The permutations come from ``SCHEDULE_SEED``, not
the run's seed, because the schedule decides which prefills coincide in one
step: with seeded orders, rag's peak RSS was 236 MB for most seeds and near
300 MB for the few whose order made two same-horizon prefills stack, and the
seeds' TTFTs differed by 4-16% before any timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

CHAT = "chat"
RAG = "rag"
LONGCTX = "longctx"
WORKLOADS = (CHAT, RAG, LONGCTX)

#: attention heads and head dimension of the two streaming workloads
HEADS = 4
HEAD_DIM = 64

CHAT_PROMPT = (16, 127)
CHAT_GEN = (32, 159)
CHAT_MASKS = ("local", "dilated", "longformer")
CHAT_PRIORITIES = (0.5, 1.0, 2.0)

RAG_DOCUMENTS = 8
RAG_DOC_TOKENS = 1024
RAG_QUESTION = (32, 95)
RAG_GEN = (8, 31)

LONGCTX_LENGTH = 16384
LONGCTX_MASKS = ("longctx_longformer", "longctx_longformer_dilated", "longctx_bigbird")

#: seeds the permutations of the shape schedule, which no run's seed changes
SCHEDULE_SEED = 0

#: requests per stratification block: lengths, masks, priorities and
#: documents repeat their exact multiset over this many requests
CHAT_BLOCK = 48
RAG_BLOCK = 8

# generator stream tags, so no two draws share a random stream
_TAG_PROMPT, _TAG_GEN, _TAG_MASK, _TAG_PRIORITY = 1, 2, 3, 4
_TAG_DOC, _TAG_QUESTION, _TAG_RAG_GEN = 5, 6, 7
_TAG_CHAT_TENSORS, _TAG_DOC_TENSORS, _TAG_RAG_TENSORS, _TAG_LONG_TENSORS = 8, 9, 10, 11


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one streaming request: prompt rows, generated rows, mask."""

    index: int
    prompt_tokens: int
    gen_tokens: int
    mask: str
    priority: float = 1.0
    #: rag: the document the prompt starts with (-1 for chat)
    document: int = -1

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.gen_tokens


def spread(lo: int, hi: int, count: int) -> Tuple[int, ...]:
    """``count`` evenly spaced integers covering ``[lo, hi]`` (bin midpoints)."""
    width = hi - lo + 1
    return tuple(lo + ((2 * j + 1) * width) // (2 * count) for j in range(count))


def stratified(tag: int, index: int, values) -> object:
    """The ``index``-th draw of a sequence that permutes ``values`` per block."""
    block, position = divmod(index, len(values))
    order = np.random.default_rng([SCHEDULE_SEED, tag, block]).permutation(len(values))
    return values[int(order[position])]


def chat_spec(index: int) -> StreamSpec:
    return StreamSpec(
        index=index,
        prompt_tokens=stratified(_TAG_PROMPT, index, spread(*CHAT_PROMPT, 16)),
        gen_tokens=stratified(_TAG_GEN, index, spread(*CHAT_GEN, 16)),
        mask=stratified(_TAG_MASK, index, CHAT_MASKS),
        priority=stratified(_TAG_PRIORITY, index, CHAT_PRIORITIES),
    )


def rag_spec(index: int) -> StreamSpec:
    question = stratified(_TAG_QUESTION, index, spread(*RAG_QUESTION, 8))
    return StreamSpec(
        index=index,
        prompt_tokens=RAG_DOC_TOKENS + question,
        gen_tokens=stratified(_TAG_RAG_GEN, index, spread(*RAG_GEN, 8)),
        mask="rag_longformer",
        document=stratified(_TAG_DOC, index, tuple(range(RAG_DOCUMENTS))),
    )


def _normal(seed: int, tag: int, key: int, shape) -> np.ndarray:
    return np.random.default_rng([seed, tag, key]).standard_normal(shape, dtype=np.float32)


def chat_tensors(seed: int, spec: StreamSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(HEADS, T, HEAD_DIM)`` q/k/v of one chat stream; no row is shared."""
    qkv = _normal(seed, _TAG_CHAT_TENSORS, spec.index, (3, HEADS, spec.total_tokens, HEAD_DIM))
    return qkv[0], qkv[1], qkv[2]


def rag_tensors(seed: int, spec: StreamSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q/k/v of one rag stream: its document verbatim, then question and answer."""
    doc = _normal(seed, _TAG_DOC_TENSORS, spec.document, (3, HEADS, RAG_DOC_TOKENS, HEAD_DIM))
    tail_rows = spec.total_tokens - RAG_DOC_TOKENS
    tail = _normal(seed, _TAG_RAG_TENSORS, spec.index, (3, HEADS, tail_rows, HEAD_DIM))
    qkv = np.concatenate([doc, tail], axis=-2)
    return qkv[0], qkv[1], qkv[2]


def longctx_mask_name(index: int) -> str:
    return LONGCTX_MASKS[index % len(LONGCTX_MASKS)]


def longctx_tensors(seed: int, index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(L, HEAD_DIM)`` single-head q/k/v of one long document."""
    qkv = _normal(seed, _TAG_LONG_TENSORS, index, (3, LONGCTX_LENGTH, HEAD_DIM))
    return qkv[0], qkv[1], qkv[2]


def build_mask(name: str):
    """The mask object a workload's requests carry (imports ``repro`` lazily)."""
    from repro.masks.presets import (
        bigbird_mask,
        default_global_tokens,
        longformer_dilated_mask,
        longformer_mask,
    )
    from repro.masks.windowed import Dilated1DMask, LocalMask

    global_tokens = default_global_tokens(LONGCTX_LENGTH, 3)
    factories = {
        "local": lambda: LocalMask(64),
        "dilated": lambda: Dilated1DMask(32, 2),
        "longformer": lambda: longformer_mask(reach=32, global_tokens=(0,)),
        "rag_longformer": lambda: longformer_mask(reach=64, global_tokens=(0,)),
        "longctx_longformer": lambda: longformer_mask(reach=64, global_tokens=global_tokens),
        "longctx_longformer_dilated": lambda: longformer_dilated_mask(
            reach=64, global_tokens=global_tokens, dilation=2
        ),
        "longctx_bigbird": lambda: bigbird_mask(
            reach=64, global_tokens=global_tokens, random_sparsity=5e-4
        ),
    }
    return factories[name]()
