"""In-memory spans around the calls into each layer, recorded from outside ``src/``.

:class:`SpanRecorder` patches class attributes (and module attributes, for
functions a caller imported by name) with wrappers that record one span per
call: its name, start, end, parent span, the loop iteration, the run phase and
an optional measure taken from the arguments or result (edges attended, bytes
gathered, request ids).  :meth:`SpanRecorder.restore` puts every original back.

A layer's *time* sums its outermost spans (a span nested inside another span
of the same layer is not counted twice); its *self time* sums each span's
duration minus the durations of its direct children, so every child span is
subtracted exactly once.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: run phases a span can fall in
SETUP, WINDOW, AFTER = 0, 1, 2


class SpanRecorder:
    """Records spans of wrapped callables while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iteration = array("i")
        self.phase = array("b")
        #: span index -> measure (edges, bytes, nnz) for spans that carry one
        self.measure: Dict[int, float] = {}
        #: span index -> request ids the call's arguments or result identify
        self.request_ids: Dict[int, Tuple[int, ...]] = {}
        self.current_iteration = 0
        self.current_phase = SETUP
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _code_for(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(
        self,
        owner,
        attr: str,
        name,
        *,
        measure: Optional[Callable] = None,
        ids: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is a span name or a callable of the call's arguments (so a
        plan step can be named after its kernel).  ``measure(args, result)``
        and ``ids(args, result)`` attach a number and request ids to the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed = None if callable(name) else self._code_for(name)
        recorder = self

        def wrapper(*args, **kwargs):
            code = fixed if fixed is not None else recorder._code_for(name(args))
            index = len(recorder.code)
            recorder.code.append(code)
            recorder.parent.append(recorder._stack[-1] if recorder._stack else -1)
            recorder.iteration.append(recorder.current_iteration)
            recorder.phase.append(recorder.current_phase)
            recorder.start.append(0.0)
            recorder.end.append(0.0)
            recorder._stack.append(index)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end[index] = time.perf_counter()
                recorder.start[index] = started
                recorder._stack.pop()
            if measure is not None:
                recorder.measure[index] = measure(args, result)
            if ids is not None:
                recorder.request_ids[index] = tuple(ids(args, result))
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.code)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "iteration": np.frombuffer(self.iteration, dtype=np.int32),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
        }

    def write(self, path) -> None:
        """Write every span as one JSON object per line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self.code)):
                record = {
                    "name": self.names[self.code[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "iteration": self.iteration[i],
                    "phase": self.phase[i],
                }
                if i in self.measure:
                    record["measure"] = self.measure[i]
                if i in self.request_ids:
                    record["request_ids"] = list(self.request_ids[i])
                out.write(json.dumps(record) + "\n")


def matches(name: str, patterns: Iterable[str]) -> bool:
    """``name`` equals a pattern, or starts with a pattern ending in ``:``."""
    return any(name == p or (p.endswith(":") and name.startswith(p)) for p in patterns)


class SpanTable:
    """Vectorized queries over a recorder's spans.

    ``layers`` maps each layer to the span names (or ``prefix:`` patterns)
    that belong to it; a span of a layer nested inside another span of the
    same layer is not counted again by :meth:`time`.
    """

    def __init__(self, recorder: SpanRecorder, layers: Dict[str, Sequence[str]]) -> None:
        arrays = recorder.arrays()
        self.names = list(recorder.names)
        self.code = arrays["code"]
        self.parent = arrays["parent"]
        self.phase = arrays["phase"]
        self.duration = arrays["end"] - arrays["start"]
        n = len(self.code)
        self.measure = np.zeros(n)
        for index, value in recorder.measure.items():
            self.measure[index] = value
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        #: duration minus the direct children's durations
        self.self_time = self.duration - child_time
        self._bits = {layer: 1 << bit for bit, layer in enumerate(layers)}
        own = np.zeros(n, dtype=np.int64)
        for layer, members in layers.items():
            codes = [c for c, name in enumerate(self.names) if matches(name, members)]
            own[np.isin(self.code, codes)] |= self._bits[layer]
        #: layers of every ancestor of each span
        self._inside = np.zeros(n, dtype=np.int64)
        cursor = self.parent.astype(np.int64)
        live = cursor >= 0
        while live.any():
            self._inside[live] |= own[cursor[live]]
            cursor[live] = self.parent[cursor[live]]
            live = cursor >= 0

    def select(self, patterns: Iterable[str], phases: Iterable[int] = (WINDOW,)) -> np.ndarray:
        patterns = tuple(patterns)
        codes = [c for c, name in enumerate(self.names) if matches(name, patterns)]
        return np.isin(self.code, codes) & np.isin(self.phase, list(phases))

    def outermost(self, selected: np.ndarray, layer: str) -> np.ndarray:
        """The selected spans not nested inside another span of ``layer``."""
        return selected & ((self._inside & self._bits[layer]) == 0)

    def time(self, patterns, layer: str, phases=(WINDOW,)) -> float:
        return float(self.duration[self.outermost(self.select(patterns, phases), layer)].sum())

    def count(self, patterns, layer: str, phases=(WINDOW,)) -> int:
        return int(self.outermost(self.select(patterns, phases), layer).sum())

    def measured(self, patterns, layer: str, phases=(WINDOW,)) -> float:
        return float(self.measure[self.outermost(self.select(patterns, phases), layer)].sum())

    def self_time_of(self, patterns, phases=(WINDOW,)) -> float:
        return float(self.self_time[self.select(patterns, phases)].sum())
