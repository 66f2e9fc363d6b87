import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List

import numpy as np
import pytest

from loadbench import closedloop, run, runner
from loadbench.closedloop import ProgramClock, drive_oneshot, drive_streams
from loadbench.spans import SpanRecorder


@dataclass
class _Report:
    tokens: int = 0
    finished: List[int] = field(default_factory=list)


class FakeEngine:
    """Emits every prompt row in one step, then one generated row per step."""

    def __init__(self, refuse=()):
        self.telemetry: Dict[int, SimpleNamespace] = {}
        self.results: Dict[int, np.ndarray] = {}
        self._requests = {}
        self._next = 0
        self._refuse = set(refuse)

    def submit(self, request):
        if request["index"] in self._refuse:
            raise ValueError("refused")
        rid = self._next
        self._next += 1
        self._requests[rid] = request
        self.telemetry[rid] = SimpleNamespace(tokens_emitted=0, queue_seconds=0.0)
        return rid

    def step(self):
        report = _Report()
        for rid, request in list(self._requests.items()):
            telemetry = self.telemetry[rid]
            rows = request["prompt"] if telemetry.tokens_emitted == 0 else 1
            telemetry.tokens_emitted += rows
            report.tokens += rows
            if telemetry.tokens_emitted == request["total"]:
                report.finished.append(rid)
                self.results[rid] = np.zeros((request["total"], 2))
                del self._requests[rid]
        return report


def _make(index):
    prompt, gen = 2 + index % 3, 1 + (7 * index) % 5
    spec = SimpleNamespace(prompt_tokens=prompt, total_tokens=prompt + gen)
    return {"index": index, "prompt": prompt, "total": prompt + gen}, spec


def _drive(engine, **kwargs):
    return drive_streams(engine, engine.submit, _make, clock=ProgramClock(), **kwargs)


@pytest.mark.parametrize("callers", [1, 3, 8])
def test_exactly_c_requests_in_flight_until_the_last_send(callers):
    window = _drive(FakeEngine(), callers=callers, warmup=2 * callers, measured=20)
    # callers keep sending until the last measured request finishes, so every
    # step, the last one included, starts with exactly C requests in flight
    assert len(window.in_flight) > 3
    assert window.in_flight == [callers] * len(window.in_flight)
    assert window.attempted == 20 and window.failed == 0
    assert len(window.latency) == len(window.ttft) == 20


def test_samples_come_from_measured_requests_only():
    window = _drive(FakeEngine(), callers=4, warmup=8, measured=12, keep=lambda index: True)
    assert sorted(window.outputs) == list(range(8, 20))
    generated = sum(_make(i)[0]["total"] - _make(i)[0]["prompt"] for i in range(8, 20))
    # one gap per generated row after the first
    assert len(window.itl) == generated - 12
    assert window.rows > 0 and window.seconds > 0


def test_a_refused_request_fails_and_its_caller_sends_on():
    engine = FakeEngine(refuse={9})
    window = _drive(engine, callers=3, warmup=6, measured=10)
    assert window.attempted == 10 and window.failed == 1
    assert len(window.latency) == 9
    assert window.errors == ["request 9: ValueError('refused')"]
    assert all(n == 3 for n in window.in_flight)


def test_stop_at_window_returns_at_the_first_measured_send():
    engine = FakeEngine()
    sent = []
    window = drive_streams(
        engine,
        lambda request: sent.append(request["index"]) or engine.submit(request),
        _make,
        clock=ProgramClock(),
        callers=2,
        warmup=4,
        measured=10,
        stop_at_window=True,
    )
    assert sent == [0, 1, 2, 3] and window.attempted == 0 and math.isfinite(window.start)


def test_oneshot_driver_times_each_call():
    served = []
    window = drive_oneshot(
        lambda request: served.append(request) or np.ones(3),
        lambda index: (index, 3),
        warmup=2,
        measured=5,
        clock=ProgramClock(),
        keep=lambda index: index == 2,
    )
    assert served == list(range(7))
    assert window.rows == 15 and window.ttft == window.latency and len(window.latency) == 5
    assert list(window.outputs) == [2]


def test_program_clock_excludes_input_generation(monkeypatch):
    ticks = iter([0.0, 1.0, 5.0, 6.0])
    monkeypatch.setattr(closedloop, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    clock = ProgramClock()
    start = clock.now()  # 0
    with clock.excluded():  # 1 .. 5
        pass
    assert clock.now() - start == 2.0  # 6 - 4 excluded


def test_refusals_that_starve_a_percentile_still_leave_a_result():
    def serve(index):
        if index % 3 == 0:
            raise ValueError("refused")
        return np.ones(3)

    window = drive_oneshot(serve, lambda index: (index, 3), warmup=3, measured=21, clock=ProgramClock())
    outcome = runner.Outcome(setup_s=1.0, window=window, peak_rss_mb=50.0)
    metrics, unsupported = runner.end_to_end("longctx", outcome, [1.0])
    # 14 latencies leave the median 7 samples beyond it, not 10
    assert "ttft_p50_ms" in unsupported
    result = run.result(window, metrics, run.END_TO_END, problems=window.errors)
    assert (result["attempted"], result["failed"], result["correct"]) == (21, 7, False)
    assert sorted(result["metrics"]) == ["peak_rss_mb", "setup_s", "tokens_per_s"]


def test_a_queue_wait_median_without_support_is_refused_not_raised():
    window = _drive(FakeEngine(refuse={10, 11}), callers=4, warmup=8, measured=21)
    outcome = runner.Outcome(setup_s=1.0, window=window)
    metrics, unsupported = runner.per_layer(outcome, SpanRecorder(), untraced_seconds=window.seconds)
    assert len(window.queue_wait) == 19
    assert "loop.queue_wait_ms_p50" in unsupported and "loop.queue_wait_ms_p50" not in metrics
    result = run.result(window, metrics, tuple(runner.PER_LAYER), problems=window.errors)
    assert (result["attempted"], result["failed"], result["correct"]) == (21, 2, False)
    assert len(result["metrics"]) == len(runner.PER_LAYER) - 1
