import math
import types

import pytest

from loadbench import spans
from loadbench.spans import AFTER, SETUP, WINDOW, SpanRecorder, SpanTable


class Layered:
    """A toy stack: outer -> (inner, inner -> leaf), plus a recursive call."""

    def outer(self):
        self.inner(False)
        self.inner(True)

    def inner(self, deep):
        if deep:
            self.leaf()

    def leaf(self):
        pass

    def recursive(self, depth):
        if depth:
            self.recursive(depth - 1)


def _fixed_clock(monkeypatch, ticks):
    """The recorder's perf_counter returns the next tick on every call."""
    values = iter(ticks)
    monkeypatch.setattr(spans, "time", types.SimpleNamespace(perf_counter=lambda: next(values)))


def _recorder():
    recorder = SpanRecorder()
    recorder.current_phase = WINDOW
    recorder.wrap(Layered, "outer", "a.outer")
    recorder.wrap(Layered, "inner", "b.inner")
    recorder.wrap(Layered, "leaf", "c.leaf")
    recorder.wrap(Layered, "recursive", "a.recursive")
    return recorder


LAYERS = {"a": ("a.outer", "a.recursive"), "b": ("b.inner",), "c": ("c.leaf",)}


def test_self_time_subtracts_each_child_exactly_once(monkeypatch):
    recorder = _recorder()
    try:
        # outer [0, 100]; inner#1 [10, 20]; inner#2 [30, 90] with leaf [40, 70]
        _fixed_clock(monkeypatch, [0.0, 10.0, 20.0, 30.0, 40.0, 70.0, 90.0, 100.0])
        Layered().outer()
    finally:
        recorder.restore()
    table = SpanTable(recorder, LAYERS)
    assert table.self_time_of(["a.outer"]) == pytest.approx(100 - 10 - 60)
    assert table.self_time_of(["b.inner"]) == pytest.approx(10 + (60 - 30))
    assert table.self_time_of(["c.leaf"]) == pytest.approx(30)
    # the self times of every span partition the outermost span exactly
    assert sum(table.self_time_of([name]) for name in ("a.outer", "b.inner", "c.leaf")) == pytest.approx(100)
    assert table.time(["b.inner"], "b") == pytest.approx(70)
    assert table.count(["b.inner"], "b") == 2


def test_nested_spans_of_one_layer_count_once(monkeypatch):
    recorder = _recorder()
    try:
        _fixed_clock(monkeypatch, [0.0, 1.0, 2.0, 8.0, 9.0, 10.0])
        Layered().recursive(2)
    finally:
        recorder.restore()
    table = SpanTable(recorder, LAYERS)
    assert len(recorder) == 3
    assert table.time(["a.recursive"], "a") == pytest.approx(10)
    assert table.count(["a.recursive"], "a") == 1
    assert table.self_time_of(["a.recursive"]) == pytest.approx(10)


def test_phase_measure_ids_and_restore():
    recorder = SpanRecorder()
    module = types.SimpleNamespace(work=lambda n: list(range(n)))
    recorder.wrap(module, "work", lambda args: f"k:{args[0]}", measure=lambda args, r: len(r),
                  ids=lambda args, r: r[:2])
    for phase, n in ((SETUP, 3), (WINDOW, 5), (AFTER, 7)):
        recorder.current_phase = phase
        recorder.current_iteration = n
        module.work(n)
    recorder.restore()
    assert module.work(2) == [0, 1] and not hasattr(module.work, "__wrapped__")
    table = SpanTable(recorder, {"k": ("k:",)})
    assert table.measured(["k:"], "k") == 5
    assert table.measured(["k:"], "k", phases=(SETUP, WINDOW)) == 8
    assert recorder.request_ids[1] == (0, 1)
    assert list(recorder.arrays()["iteration"]) == [3, 5, 7]
    assert recorder.names == ["k:3", "k:5", "k:7"]


def test_a_raising_call_still_closes_its_span():
    recorder = SpanRecorder()

    class Failing:
        def boom(self):
            raise KeyError("x")

    recorder.wrap(Failing, "boom", "f.boom")
    with pytest.raises(KeyError):
        Failing().boom()
    recorder.restore()
    arrays = recorder.arrays()
    assert len(recorder) == 1 and not recorder._stack
    assert math.isfinite(arrays["end"][0] - arrays["start"][0])
