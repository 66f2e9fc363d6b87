"""Preset attention patterns used by well-known sparse transformers.

Fig. 2 and the Section V-F experiments use three named patterns:

* **Longformer (local + global)** — sliding window plus a few global tokens.
* **Longformer (dilated local + global)** — dilated sliding window plus globals.
* **BigBird (local + global + random)** — sliding window, globals and uniform
  random connections.

Each preset returns a :class:`~repro.masks.composite.UnionMask` whose
components are kept separate so they can run as a sequence of kernels (the
"Loc + Glo" / "Loc + Glo + CSR" curves of Fig. 6, or a plan's window kernel
plus one CSR call on the rest) or collapse into a single CSR mask (the "CSR"
curves).

The LongNet helpers expose the geometric segment/dilation schedule the paper
uses to justify its sparsity-factor analysis (Section II-D) and the Table III
long-context configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.masks.composite import UnionMask
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.masks.random_ import RandomMask
from repro.masks.windowed import Dilated1DMask, LocalMask
from repro.utils.validation import require


def default_global_tokens(length: int, count: int = 3) -> Tuple[int, ...]:
    """Evenly spaced global token indices (first token always included)."""
    require(count >= 1, "need at least one global token")
    require(length >= count, "context length must be at least the global token count")
    step = max(1, length // count)
    return tuple(min(i * step, length - 1) for i in range(count))


def longformer_mask(
    reach: int = 50,
    global_tokens: Sequence[int] = (0,),
    *,
    dilation: int = 0,
) -> UnionMask:
    """Longformer pattern: (possibly dilated) sliding window plus global tokens.

    ``reach`` is the number of tokens visible in each direction, matching the
    Fig. 6 setup ("the local size was set to 50 in each direction").  The
    global component excludes edges already covered by the window so a
    sequential local+global kernel execution touches each edge exactly once.
    """
    window = reach + 1
    if dilation > 0:
        local = Dilated1DMask(window=reach * dilation + reach + 1, dilation=dilation)
        # with dilation d and reach n, Longformer keeps n attended positions per
        # side spaced (d+1) apart, widening the effective view to n*(d+1)
    else:
        local = LocalMask(window=window)
    global_part = GlobalNonLocalMask(global_tokens, window=window)
    return UnionMask([local, global_part], name="longformer")


def longformer_dilated_mask(
    reach: int = 50,
    global_tokens: Sequence[int] = (0,),
    *,
    dilation: int = 2,
) -> UnionMask:
    """Longformer with a dilated sliding window (the central mask of Fig. 2).

    The Fig. 6 middle panel uses "a dilation factor of two giving an effective
    local size of 100": each side keeps ``reach`` attended tokens spaced
    ``dilation`` apart, doubling the span covered.
    """
    require(dilation >= 1, "dilated Longformer needs dilation >= 1")
    return longformer_mask(reach=reach, global_tokens=global_tokens, dilation=dilation)


def bigbird_mask(
    reach: int = 50,
    global_tokens: Sequence[int] = (0,),
    *,
    random_sparsity: float = 0.001,
    seed: int = 0,
) -> UnionMask:
    """BigBird pattern: sliding window + global tokens + uniform random edges."""
    window = reach + 1
    local = LocalMask(window=window)
    global_part = GlobalNonLocalMask(global_tokens, window=window)
    random_part = RandomMask(sparsity=random_sparsity, seed=seed)
    return UnionMask([local, global_part, random_part], name="bigbird")


def bigbird_block_mask(
    block_size: int = 64,
    global_tokens: Sequence[int] = (0,),
    *,
    random_sparsity: float = 0.001,
    seed: int = 0,
    dilation: int = 1,
) -> UnionMask:
    """Block-structured BigBird variant built on the 2-D dilated component."""
    blocks = Dilated2DMask(block_size=block_size, dilation=dilation)
    global_part = GlobalMask(global_tokens)
    random_part = RandomMask(sparsity=random_sparsity, seed=seed)
    return UnionMask([blocks, global_part, random_part], name="bigbird-block")


# --------------------------------------------------------------------------- #
# LongNet schedule (Section II-D)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LongNetSchedule:
    """Geometric segment-length / dilation schedule from LongNet.

    Segment lengths are ``w0 * alpha^k`` and dilations ``alpha^k`` for
    ``k = 0 .. levels-1``; the paper plugs ``alpha = 2`` and ``w0 = 2048`` into
    this schedule to derive the ``2730 L`` dot-product budget of Section II-D.
    """

    w0: int = 2048
    alpha: float = 2.0
    levels: int = 4

    def __post_init__(self) -> None:
        require(self.w0 >= 1, "w0 must be >= 1")
        require(self.alpha > 1.0, "alpha must exceed 1")
        require(self.levels >= 1, "levels must be >= 1")

    def segment_lengths(self) -> List[int]:
        return [int(self.w0 * self.alpha**k) for k in range(self.levels)]

    def dilations(self) -> List[int]:
        return [int(self.alpha**k) for k in range(self.levels)]

    def dot_product_budget(self, length: int) -> float:
        """Dot products LongNet needs at context length ``L`` (paper Section II-D).

        Evaluates to the paper's ``2730 L`` for ``alpha = 2``, ``w0 = 2048``
        (see :func:`repro.masks.solvers.longnet_sparsity_factor` for the note
        on the paper's formula-vs-value discrepancy).
        """
        return self.alpha**2 / (self.alpha**2 - 1.0) * self.w0 * length

    def sparsity_factor(self, length: int) -> float:
        """Dot-product budget expressed as a sparsity factor, clamped to 1."""
        return min(1.0, self.dot_product_budget(length) / float(length * length))

    def masks(self, length: int) -> UnionMask:
        """Union of the per-level dilated segment masks at context length ``L``."""
        components = []
        for segment, dilation in zip(self.segment_lengths(), self.dilations()):
            block = min(segment, length)
            components.append(Dilated2DMask(block_size=block, dilation=max(dilation - 1, 0)))
        return UnionMask(components, name="longnet")
