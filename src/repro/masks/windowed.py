"""Local (windowed) and 1-D dilated windowed attention masks.

These are the first two "ordered sparsity" patterns of the paper (Fig. 2,
Section II-C).  The membership predicate follows the paper's pseudo-code
exactly:

* **Local**:   ``abs(i - j) < w``
* **1-D dilated**: ``abs(i - j) < w  and  abs(i - j) % (r + 1) == 0``

so ``w`` counts the token itself plus ``w - 1`` tokens in each direction.  The
Fig. 6 experiments describe the window as a *reach* ("local size was set to 50
in each direction"); :meth:`LocalMask.from_reach` converts that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.masks.base import TranslationInvariantMask
from repro.utils.validation import require


@dataclass(frozen=True, repr=False)
class LocalMask(TranslationInvariantMask):
    """Sliding-window (local) attention: query ``i`` attends keys with ``|i-j| < window``."""

    window: int

    kernel_hint = "local"

    def __post_init__(self) -> None:
        require(self.window >= 1, "window must be >= 1 (1 attends only to self)")

    @classmethod
    def from_reach(cls, reach: int) -> "LocalMask":
        """Build from a per-direction reach ``n`` (``|i-j| <= n``), as used in Fig. 6."""
        require(reach >= 0, "reach must be >= 0")
        return cls(window=reach + 1)

    @property
    def reach(self) -> int:
        """Tokens visible in each direction (excluding self)."""
        return self.window - 1

    def offsets(self) -> np.ndarray:
        return np.arange(-(self.window - 1), self.window, dtype=np.int64)

    def nnz(self, length: int) -> int:
        """Closed form: ``L*(2w-1) - (w-1)w`` when ``L >= w`` (exact, with clipping)."""
        self.validate_length(length)
        w = min(self.window, length)
        return int(length * (2 * w - 1) - (w - 1) * w)

    def describe(self) -> str:
        return f"window={self.window} (reach {self.reach})"


@dataclass(frozen=True, repr=False)
class Dilated1DMask(TranslationInvariantMask):
    """1-D dilated window: ``|i-j| < window`` and ``|i-j| % (dilation+1) == 0``.

    ``dilation = 0`` degenerates to :class:`LocalMask`.  A dilation of ``r``
    leaves uniform gaps of ``r`` tokens between attended positions, widening
    the effective view distance for the same number of edges (Longformer's
    dilated sliding window).
    """

    window: int
    dilation: int = 1

    kernel_hint = "dilated1d"

    def __post_init__(self) -> None:
        require(self.window >= 1, "window must be >= 1")
        require(self.dilation >= 0, "dilation must be >= 0")

    @property
    def stride(self) -> int:
        """Spacing between attended offsets (``dilation + 1``)."""
        return self.dilation + 1

    @property
    def effective_reach(self) -> int:
        """Farthest attended offset."""
        return ((self.window - 1) // self.stride) * self.stride

    def offsets(self) -> np.ndarray:
        max_step = (self.window - 1) // self.stride
        steps = np.arange(-max_step, max_step + 1, dtype=np.int64)
        return steps * self.stride

    def nnz(self, length: int) -> int:
        self.validate_length(length)
        offsets = np.abs(self.offsets())
        return int(np.maximum(length - offsets, 0).sum())

    def describe(self) -> str:
        return f"window={self.window}, dilation={self.dilation}"
