"""Compiled per-row extraction programs for incremental decoding.

A :class:`RowProgram` is the decode-time counterpart of an execution plan's
kernel steps: given a mask spec and a fixed *horizon* (the pattern length the
mask is evaluated at), it precomputes whatever makes per-row neighbour
extraction O(row edges) — the stencil offset vector for translation-invariant
windows, the token set for global patterns, the block geometry for 2-D
dilation — so that a decode step at position ``i`` can ask for the new
token's neighbour set without ever materialising the full attention graph.

Rows come in two flavours, mirroring :meth:`repro.masks.base.MaskSpec.row`:

* :meth:`RowProgram.row` — row ``i`` of the mask materialised at the horizon
  (equal to row ``i`` of ``spec.to_csr(horizon)``).
* :meth:`RowProgram.causal_row` — the same row clipped to keys ``j <= i``,
  the set an autoregressive decode step actually attends (only tokens
  ``0..i`` exist in the KV cache when token ``i`` is generated).
* :func:`causal_layout` — the causal rows of many ``(program, start,
  count)`` segments as one CSR layout ``(indptr, cols)``, the shape a ragged
  serving pass hands the attention kernel (a decode step is a one-row
  segment, a prefill chunk a segment of its length).  Stencil, global and
  union programs build all their segments vectorised in one go, whatever
  mix of programs a pass holds; :meth:`RowProgram.causal_rows` is its
  one-segment form.

Composites union their component programs at extraction time; masks with no
specialised shape fall back to calling ``spec.row`` directly, which is still
O(row edges) for every spec in the library.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.masks.base import MaskSpec, TranslationInvariantMask, merge_neighbor_sets
from repro.masks.composite import UnionMask
from repro.masks.dilated2d import Dilated2DMask
from repro.masks.explicit import ExplicitMask
from repro.masks.global_ import GlobalMask, GlobalNonLocalMask
from repro.sparse.csr import CSRMatrix, concatenated_ranges
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.validation import require


class RowProgram(abc.ABC):
    """Precompiled O(row edges) neighbour extractor for one mask at one horizon."""

    def __init__(self, horizon: int):
        require(horizon > 0, "horizon must be positive")
        self.horizon = int(horizon)
        self._causal_nnz: int = -1  # computed lazily; -1 = not yet derived
        #: programs with one key have the same causal rows at every position
        #: (stencil, global and union rows do not depend on the horizon), so
        #: :func:`causal_layout` builds their rows together; None keys a
        #: program by itself
        self._rows_key: Optional[Hashable] = None
        #: the last position whose causal row may span a whole prefix (a
        #: global token's row), or None: :func:`causal_layout` builds such
        #: rows one by one through :meth:`causal_row`, so they never widen
        #: the padded matrix of the others, and :meth:`_row_matrix` never
        #: sees one
        self._last_token: Optional[int] = None

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def row(self, i: int) -> np.ndarray:
        """Sorted columns of row ``i`` of the mask materialised at the horizon."""

    @abc.abstractmethod
    def causal_degrees(self) -> np.ndarray:
        """Per-row causal neighbour counts (edges a full decode loop processes)."""

    def causal_row(self, i: int) -> np.ndarray:
        """Columns of row ``i`` clipped to the decoded prefix (``j <= i``)."""
        cols = self.row(i)
        return cols[cols <= i]

    def causal_rows(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Causal rows ``start..stop-1`` as one CSR layout ``(indptr, cols)``.

        ``cols`` is the concatenation of the :meth:`causal_row` outputs and
        ``indptr`` (int64, ``stop - start + 1`` entries) delimits them: the
        one-segment form of :func:`causal_layout`.
        """
        return causal_layout([(self, start, stop - start)])

    def _row_matrix(self, rows: np.ndarray) -> np.ndarray:
        """The causal rows at positions ``rows`` as one ``(R, W)`` int64 matrix.

        Row ``r`` holds :meth:`causal_row` of ``rows[r]`` in that method's
        order, its negative entries standing for no column (padding, or a
        candidate clipped at 0).  The base class loops over
        :meth:`causal_row`; stencil, global and union programs override it
        with one vectorised construction.
        """
        cols = [self.causal_row(i) for i in rows.tolist()]
        matrix = np.full((len(cols), max((c.size for c in cols), default=0)), -1, dtype=np.int64)
        for row, c in zip(matrix, cols):
            row[: c.size] = c
        return matrix

    # ------------------------------------------------------------------ #
    def _check_row(self, i: int) -> int:
        require(0 <= i < self.horizon, "row index out of range for the decode horizon")
        return int(i)

    def _check_range(self, start: int, stop: int) -> None:
        require(
            0 <= start <= stop <= self.horizon,
            "row range out of bounds for the decode horizon",
        )

    def causal_nnz(self) -> int:
        """Total causal edges over the horizon (sum of :meth:`causal_degrees`)."""
        if self._causal_nnz < 0:
            self._causal_nnz = int(np.sum(self.causal_degrees()))
        return self._causal_nnz


#: ``count`` causal rows of ``program`` from row ``start`` on: one decode
#: step (``count == 1``) or one prefill chunk of a ragged serving pass.
Segment = Tuple[RowProgram, int, int]


def _indptr(degrees: np.ndarray) -> np.ndarray:
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr


def causal_layout(segments: Sequence[Segment]) -> Tuple[np.ndarray, np.ndarray]:
    """The causal rows of ``(program, start, count)`` segments as one CSR layout.

    The segments' rows lie end to end in segment order: ``cols`` is the
    concatenation of every row's :meth:`RowProgram.causal_row` output, in
    exactly that method's column order (offset order for stencils, sorted for
    unions), and ``indptr`` (int64, one entry per row plus one) delimits
    them.  Segments may mix programs of every class and horizon: the rows of
    programs with one row key are built together as one padded matrix
    (:meth:`RowProgram._row_matrix`), each matrix drops its padding, and the
    groups' columns are merged back into segment order.
    """
    if not segments:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=INDEX_DTYPE)
    groups: Dict[Hashable, List] = {}  # key -> [program, segment indices]
    for index, (program, start, count) in enumerate(segments):
        program._check_range(start, start + count)
        key = program._rows_key
        group = groups.setdefault(program if key is None else key, [program, []])
        if program.horizon > group[0].horizon:
            group[0] = program  # the widest range holds every row of the group
        group[1].append(index)
    counts = np.array([count for _, _, count in segments], dtype=np.int64)
    firsts = np.cumsum(counts) - counts
    rows = concatenated_ranges([start for _, start, _ in segments], counts)
    blocks = []  # (the rows' places in segment order, matrix)
    for program, members in groups.values():
        index = concatenated_ranges(firsts[members], counts[members])
        group_rows = rows[index]
        last = program._last_token
        if last is not None and min(segments[i][1] for i in members) <= last:
            wide = program._wide_rows(group_rows)
            if wide.any():
                blocks.append((index[wide], RowProgram._row_matrix(program, group_rows[wide])))
                index, group_rows = index[~wide], group_rows[~wide]
        blocks.append((index, program._row_matrix(group_rows)))
    if len(blocks) == 1:
        matrix = blocks[0][1]
        keep = matrix >= 0
        return _indptr(keep.sum(axis=1)), matrix[keep].astype(INDEX_DTYPE)
    # each block's columns with the row each belongs to, then every column
    # moved to its row's place in segment order (a stable sort keeps each
    # row's own order)
    edge_rows, cols = [], []
    for index, matrix in blocks:
        keep = matrix >= 0
        edge_rows.append(np.broadcast_to(index[:, None], matrix.shape)[keep])
        cols.append(matrix[keep])
    edge_rows = np.concatenate(edge_rows)
    order = np.argsort(edge_rows, kind="stable")
    return _indptr(np.bincount(edge_rows, minlength=rows.size)), np.concatenate(cols)[order].astype(INDEX_DTYPE)


@dataclass(frozen=True)
class _StencilSpec:
    """Offsets split once into the past/future halves a stencil row needs."""

    offsets: np.ndarray
    past: np.ndarray  # non-positive offsets, the only ones a causal row keeps


class StencilRowProgram(RowProgram):
    """Translation-invariant window: row ``i`` is ``i + offsets`` clipped to range."""

    def __init__(self, spec: TranslationInvariantMask, horizon: int):
        super().__init__(horizon)
        offsets = np.asarray(spec.offsets(), dtype=np.int64)
        self.stencil = _StencilSpec(offsets=offsets, past=offsets[offsets <= 0])
        self._rows_key = ("stencil", self.stencil.past.tobytes())

    def row(self, i: int) -> np.ndarray:
        i = self._check_row(i)
        cols = i + self.stencil.offsets
        return cols[(cols >= 0) & (cols < self.horizon)].astype(INDEX_DTYPE)

    def causal_row(self, i: int) -> np.ndarray:
        i = self._check_row(i)
        cols = i + self.stencil.past
        return cols[cols >= 0].astype(INDEX_DTYPE)

    def _row_matrix(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, None] + self.stencil.past

    def causal_degrees(self) -> np.ndarray:
        # offset -o (o >= 0) contributes to every row i >= o
        reach = np.sort(-self.stencil.past)
        return np.searchsorted(reach, np.arange(self.horizon), side="right")


class GlobalRowProgram(RowProgram):
    """Global tokens pattern, optionally minus a local window (``window=0`` keeps all)."""

    def __init__(self, tokens: Tuple[int, ...], window: int, horizon: int):
        super().__init__(horizon)
        require(window >= 0, "window exclusion must be >= 0")
        self.tokens = np.unique(np.asarray(tokens, dtype=np.int64))
        require(self.tokens.size > 0, "need at least one global token")
        require(
            0 <= int(self.tokens[0]) and int(self.tokens[-1]) < horizon,
            "global token index out of range for the decode horizon",
        )
        self.window = int(window)
        self._token_set = frozenset(int(t) for t in self.tokens)
        self._last_token = int(self.tokens[-1])
        self._rows_key = ("global", self.tokens.tobytes(), self.window)

    def row(self, i: int) -> np.ndarray:
        i = self._check_row(i)
        if i in self._token_set:
            cols = np.arange(self.horizon, dtype=np.int64)
        else:
            cols = self.tokens
        if self.window:
            cols = cols[np.abs(cols - i) >= self.window]
        return cols.astype(INDEX_DTYPE)

    def causal_row(self, i: int) -> np.ndarray:
        i = self._check_row(i)
        # causal clip of |j - i| >= window is simply j <= i - window (j <= i if window=0)
        upper = i - self.window if self.window else i
        if i in self._token_set:
            return np.arange(max(upper + 1, 0), dtype=INDEX_DTYPE)
        cols = self.tokens[self.tokens <= upper]
        return cols.astype(INDEX_DTYPE)

    def _row_matrix(self, rows: np.ndarray) -> np.ndarray:
        # a row that is no global token attends the tokens up to upper
        return np.where(self.tokens <= (rows - self.window)[:, None], self.tokens, -1)

    def _wide_rows(self, rows: np.ndarray) -> np.ndarray:
        """Which of the positions ``rows`` are token rows (each attends the
        whole prefix ``0..upper``)."""
        return (rows[:, None] == self.tokens).any(axis=1)

    def causal_degrees(self) -> np.ndarray:
        rows = np.arange(self.horizon, dtype=np.int64)
        upper = rows - self.window if self.window else rows
        degrees = np.searchsorted(self.tokens, upper, side="right")
        degrees[self.tokens] = np.maximum(upper[self.tokens] + 1, 0)
        return degrees


class Dilated2DRowProgram(RowProgram):
    """Blocked 2-D dilation: on-grid rows attend their block's grid prefix."""

    def __init__(self, spec: Dilated2DMask, horizon: int):
        super().__init__(horizon)
        self.block_size = spec.block_size
        self.stride = spec.stride

    def _block_start(self, i: int) -> int:
        return (i // self.block_size) * self.block_size

    def row(self, i: int) -> np.ndarray:
        i = self._check_row(i)
        start = self._block_start(i)
        if (i - start) % self.stride:
            return np.empty(0, dtype=INDEX_DTYPE)
        stop = min(start + self.block_size, self.horizon)
        return np.arange(start, stop, self.stride, dtype=INDEX_DTYPE)

    def causal_row(self, i: int) -> np.ndarray:
        i = self._check_row(i)
        start = self._block_start(i)
        if (i - start) % self.stride:
            return np.empty(0, dtype=INDEX_DTYPE)
        return np.arange(start, i + 1, self.stride, dtype=INDEX_DTYPE)

    def causal_degrees(self) -> np.ndarray:
        rows = np.arange(self.horizon, dtype=np.int64)
        start = (rows // self.block_size) * self.block_size
        intra = rows - start
        on_grid = intra % self.stride == 0
        return np.where(on_grid, intra // self.stride + 1, 0)


class CSRRowProgram(RowProgram):
    """Already-materialised mask: rows are O(1) slices of the CSR index vector."""

    def __init__(self, matrix: CSRMatrix, horizon: int):
        super().__init__(horizon)
        require(
            matrix.shape == (horizon, horizon),
            f"explicit mask shape {matrix.shape} != decode horizon ({horizon}, {horizon})",
        )
        self.matrix = matrix

    def row(self, i: int) -> np.ndarray:
        i = self._check_row(i)
        return self.matrix.row_neighbors(i)

    def causal_degrees(self) -> np.ndarray:
        edge_rows = self.matrix.expanded_rows()
        causal = self.matrix.indices <= edge_rows
        return np.bincount(edge_rows[causal], minlength=self.horizon).astype(np.int64)


class UnionRowProgram(RowProgram):
    """Union mask: merge the component programs' rows at extraction time."""

    def __init__(self, programs: Tuple[RowProgram, ...], horizon: int):
        super().__init__(horizon)
        require(len(programs) >= 1, "union program needs at least one component")
        self.programs = tuple(programs)
        keys = tuple(program._rows_key for program in self.programs)
        if None not in keys:
            self._rows_key = ("union",) + keys
        lasts = [program._last_token for program in self.programs if program._last_token is not None]
        self._last_token = max(lasts) if lasts else None

    def row(self, i: int) -> np.ndarray:
        return merge_neighbor_sets(p.row(i) for p in self.programs)

    def causal_row(self, i: int) -> np.ndarray:
        return merge_neighbor_sets(p.causal_row(i) for p in self.programs)

    def _wide_rows(self, rows: np.ndarray) -> np.ndarray:
        """Which of the positions ``rows`` are wide rows of some component."""
        wide = [program._wide_rows(rows) for program in self.programs if program._last_token is not None]
        return np.logical_or.reduce(wide)

    def _row_matrix(self, rows: np.ndarray) -> np.ndarray:
        # each row's sorted union: the components' columns sorted, every
        # repeat of a column dropped
        parts = [program._row_matrix(rows) for program in self.programs]
        matrix = np.sort(np.concatenate(parts, axis=1), axis=1, kind="stable")
        later = matrix[:, 1:]
        later[later == matrix[:, :-1]] = -1
        return matrix

    def causal_degrees(self) -> np.ndarray:
        # upper bound: overlapping component edges are deduplicated at
        # extraction time, but a sequential multi-kernel execution (and the
        # perf model's per-step cost) processes each component's edges
        degrees = np.zeros(self.horizon, dtype=np.int64)
        for program in self.programs:
            degrees = degrees + program.causal_degrees()
        return degrees


class SpecRowProgram(RowProgram):
    """Fallback: defer to ``spec.row`` (O(row edges) for every library spec)."""

    def __init__(self, spec: MaskSpec, horizon: int):
        super().__init__(horizon)
        spec.validate_length(horizon)
        self.spec = spec

    def row(self, i: int) -> np.ndarray:
        return self.spec.row(self._check_row(i), self.horizon)

    def causal_degrees(self) -> np.ndarray:
        return np.array(
            [self.causal_row(i).size for i in range(self.horizon)], dtype=np.int64
        )


def compile_row_program(spec: MaskSpec, horizon: int) -> RowProgram:
    """Compile ``spec`` at ``horizon`` into the most specialised row program.

    Translation-invariant windows get their stencil offsets hoisted, global
    patterns their token vector, 2-D dilation its block geometry, explicit
    masks an O(1) CSR row slice, and unions a component-wise merge; everything
    else falls back to calling ``spec.row`` per step.
    """
    require(isinstance(spec, MaskSpec), "row programs compile MaskSpec patterns")
    if isinstance(spec, TranslationInvariantMask):
        return StencilRowProgram(spec, horizon)
    if isinstance(spec, GlobalNonLocalMask):
        return GlobalRowProgram(spec.global_tokens, spec.window, horizon)
    if isinstance(spec, GlobalMask):
        return GlobalRowProgram(spec.global_tokens, 0, horizon)
    if isinstance(spec, Dilated2DMask):
        return Dilated2DRowProgram(spec, horizon)
    if isinstance(spec, ExplicitMask):
        spec.validate_length(horizon)
        return CSRRowProgram(spec.matrix, horizon)
    if isinstance(spec, UnionMask):
        return UnionRowProgram(
            tuple(compile_row_program(c, horizon) for c in spec.components), horizon
        )
    return SpecRowProgram(spec, horizon)
