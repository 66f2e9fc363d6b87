"""Closed-loop drivers: each caller sends its next request when the last returns.

One driver thread runs every caller.  A caller whose request finished sends its
next one before the engine's next step, and callers keep sending until every
measured request has finished, so exactly ``callers`` requests are in flight
at every step and the drain is never measured.

Requests are numbered in send order.  The first ``warmup`` requests warm the
stack up; the measured window opens when request ``warmup`` is sent and
closes at the step that finishes the last measured request.  Every latency
sample comes from a measured request; throughput counts every row delivered
inside the window.

All times come from a :class:`ProgramClock`, which stops while the benchmark
generates inputs, so input generation is never charged to the program.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np


class ProgramClock:
    """``perf_counter`` minus the time spent inside :meth:`excluded` blocks."""

    def __init__(self) -> None:
        self._excluded = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    @contextmanager
    def excluded(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - started


@dataclass
class Window:
    """What one measured window delivered, in program-clock seconds."""

    start: float = math.nan
    end: float = math.nan
    #: attention output rows delivered inside the window, by any request
    rows: int = 0
    #: engine steps (or one-shot calls) inside the window
    steps: int = 0
    #: prompt rows of the requests sent inside the window
    prompt_rows_sent: int = 0
    ttft: List[float] = field(default_factory=list)
    itl: List[float] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)
    queue_wait: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: request index -> output, for the requests ``keep`` selected
    outputs: Dict[int, np.ndarray] = field(default_factory=dict)
    #: requests in flight when each step started
    in_flight: List[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class _Flight:
    index: int
    caller: int
    sent: float
    prompt_rows: int
    total_rows: int
    measured: bool
    emitted: int = 0
    last_token: Optional[float] = None


def _never(index: int) -> bool:
    return False


def drive_streams(
    engine,
    submit: Callable,
    make_request: Callable,
    *,
    callers: int,
    warmup: int,
    measured: int,
    clock: ProgramClock,
    keep: Callable[[int], bool] = _never,
    window_started: Optional[Callable[[], None]] = None,
    before_step: Optional[Callable[[int], None]] = None,
    stop_at_window: bool = False,
) -> Window:
    """Drive ``callers`` closed-loop streams through ``engine`` until the
    ``measured`` requests after the first ``warmup`` have all finished.

    ``engine`` is a scheduler or router: ``step()`` returns a report with
    ``tokens`` and ``finished`` ids, ``telemetry[id].tokens_emitted`` counts a
    stream's delivered rows and ``results.pop(id)`` hands over its output.
    ``submit(request)`` queues a request and returns its id; ``make_request
    (index)`` returns ``(request, spec)`` with ``spec.prompt_tokens`` and
    ``spec.total_tokens``.  A submit that raises counts as a failed request.
    ``stop_at_window`` returns as soon as the first measured request is sent
    (the end of set-up).
    """
    window = Window()
    flights: Dict[int, _Flight] = {}
    idle: List[int] = list(range(callers))
    next_index = 0
    last_measured = warmup + measured
    open_measured = measured
    step = 0
    stalled = 0
    while True:
        while idle and open_measured > 0:
            caller = idle.pop(0)
            index = next_index
            next_index += 1
            with clock.excluded():
                request, spec = make_request(index)
            is_measured = warmup <= index < last_measured
            if index == warmup:
                window.start = clock.now()
                if stop_at_window:
                    return window
                if window_started is not None:
                    window_started()
            if index >= warmup:
                window.prompt_rows_sent += spec.prompt_tokens
            window.attempted += int(is_measured)
            sent = clock.now()
            try:
                rid = submit(request)
            except Exception as exc:  # a refused request fails; its caller sends on
                window.failed += int(is_measured)
                window.errors.append(f"request {index}: {exc!r}")
                open_measured -= int(is_measured)
                idle.append(caller)
                continue
            flights[rid] = _Flight(
                index=index,
                caller=caller,
                sent=sent,
                prompt_rows=spec.prompt_tokens,
                total_rows=spec.total_tokens,
                measured=is_measured,
            )
        if open_measured == 0:
            window.end = clock.now() if math.isnan(window.end) else window.end
            return window

        step += 1
        window.in_flight.append(len(flights))
        if before_step is not None:
            before_step(step)
        report = engine.step()
        now = clock.now()
        if not math.isnan(window.start):
            window.rows += report.tokens
            window.steps += 1

        delivered = False
        for rid, flight in flights.items():
            emitted = engine.telemetry[rid].tokens_emitted
            if emitted == flight.emitted:
                continue
            delivered = True
            if emitted > flight.prompt_rows and flight.measured:
                if flight.last_token is None:
                    window.ttft.append(now - flight.sent)
                else:
                    window.itl.append(now - flight.last_token)
            if emitted > flight.prompt_rows:
                flight.last_token = now
            flight.emitted = emitted

        for rid in report.finished:
            flight = flights.pop(rid)
            output = engine.results.pop(rid)
            idle.append(flight.caller)
            if not flight.measured:
                continue
            open_measured -= 1
            if output.shape[-2] != flight.total_rows:
                window.failed += 1
                window.errors.append(
                    f"request {flight.index}: {output.shape[-2]} rows, expected {flight.total_rows}"
                )
                continue
            window.latency.append(now - flight.sent)
            window.queue_wait.append(engine.telemetry[rid].queue_seconds)
            if keep(flight.index):
                window.outputs[flight.index] = output
        if open_measured == 0:
            window.end = now

        stalled = 0 if (delivered or report.finished) else stalled + 1
        if stalled >= 3:
            raise RuntimeError(f"serving stalled at step {step} with {len(flights)} requests in flight")


def drive_oneshot(
    serve: Callable,
    make_request: Callable,
    *,
    warmup: int,
    measured: int,
    clock: ProgramClock,
    keep: Callable[[int], bool] = _never,
    window_started: Optional[Callable[[], None]] = None,
    before_step: Optional[Callable[[int], None]] = None,
    stop_at_window: bool = False,
) -> Window:
    """One caller sending one-shot requests back to back.

    ``serve(request)`` returns the output rows; ``make_request(index)``
    returns ``(request, rows)``.  Each request's time to its first output row
    is its whole latency, because a one-shot call returns every row at once.
    """
    window = Window()
    for index in range(warmup + measured):
        with clock.excluded():
            request, rows = make_request(index)
        is_measured = index >= warmup
        if index == warmup:
            window.start = clock.now()
            if stop_at_window:
                return window
            if window_started is not None:
                window_started()
        window.attempted += int(is_measured)
        window.in_flight.append(1)
        if before_step is not None:
            before_step(index + 1)
        sent = clock.now()
        try:
            output = serve(request)
        except Exception as exc:  # a refused request fails; the caller sends on
            window.failed += int(is_measured)
            window.errors.append(f"request {index}: {exc!r}")
            continue
        done = clock.now()
        if not is_measured:
            continue
        window.rows += rows
        window.steps += 1
        window.prompt_rows_sent += rows
        window.latency.append(done - sent)
        window.ttft.append(done - sent)
        if keep(index):
            window.outputs[index] = output
    window.end = clock.now()
    return window
