"""Each workload's serving stack, its set-up and measured window, and the traced run.

A run of one workload in one process:

1. *Set-up*: from before ``import repro`` to the send of the first measured
   request.  It builds the stack (and the compiled backend, on first use),
   compiles plans and sends the fixed warm-up traffic.
2. *Window*: the closed loop keeps running; the measured requests are the next
   ``measured`` ones sent.  The scheduling policy is seeded with a constant
   and never reads the clock, and every seed sends the same request shapes,
   so the sequence of iterations, batches and placements depends only on the
   code.
3. *Check*: sampled outputs are compared with their oracle (:mod:`check`).

The traced run repeats set-up and window on a fresh stack with every layer's
entry points wrapped by a :class:`~loadbench.spans.SpanRecorder`, after one
untraced set-up and window that its overhead is measured against.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from loadbench import workloads as wl
from loadbench.check import oneshot_mismatches, replay_stream, sample_rows
from loadbench.closedloop import ProgramClock, Window, drive_oneshot, drive_streams
from loadbench.spans import AFTER, SETUP, WINDOW, SpanRecorder, SpanTable
from loadbench.stats import UnsupportedPercentile, percentile


@dataclass(frozen=True)
class Shape:
    callers: int
    #: requests sent before the window opens
    warmup: int
    #: the measured requests come in whole blocks of this many
    block: int
    #: measured requests per second of ``--seconds`` (sized on the hardware
    #: the benchmark was defined on, so a run measures a fixed amount of work)
    rate: float
    #: fewest measured requests (enough samples for every reported percentile)
    minimum: int
    #: measured outputs compared with their oracle
    checks: int


SHAPES = {
    wl.CHAT: Shape(callers=32, warmup=48, block=wl.CHAT_BLOCK, rate=14.4, minimum=48, checks=8),
    wl.RAG: Shape(callers=16, warmup=16, block=wl.RAG_BLOCK, rate=1.9, minimum=24, checks=4),
    wl.LONGCTX: Shape(callers=1, warmup=3, block=3, rate=1.45, minimum=21, checks=3),
}

CHAT_POOL_BLOCKS = 640
RAG_POOL_BLOCKS = 640
PREFILL_CHUNK = 128
BLOCK_SIZE = 16
STORAGE = {wl.CHAT: "fp32", wl.RAG: "int8"}
ROWS_CHECKED = 16


def measured_requests(workload: str, seconds: int) -> int:
    shape = SHAPES[workload]
    wanted = max(shape.minimum, seconds * shape.rate)
    return shape.block * math.ceil(wanted / shape.block)


# --------------------------------------------------------------------------- #
# Stacks
# --------------------------------------------------------------------------- #
class StreamStack:
    """``ServingClient`` for ``chat`` (one replica) or ``rag`` (two, routed)."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.obs import Observability
        from repro.serve import LoopRequest, ServingClient

        self.workload = workload
        self.seed = seed
        self._request_type = LoopRequest
        if workload == wl.CHAT:
            self.client = ServingClient(
                key_dim=wl.HEAD_DIM,
                num_blocks=CHAT_POOL_BLOCKS,
                block_size=BLOCK_SIZE,
                batch_shape=(wl.HEADS,),
                storage=STORAGE[workload],
                max_streams=32,
                prefill_chunk=PREFILL_CHUNK,
                policy="weighted",
                obs=Observability(tracing=False),
            )
            self.engine = self.client.scheduler
            self.schedulers = [self.engine]
            self.router = None
            self.masks = {name: wl.build_mask(name) for name in wl.CHAT_MASKS}
            self._spec, self._tensors = wl.chat_spec, wl.chat_tensors
        else:
            self.client = ServingClient(
                key_dim=wl.HEAD_DIM,
                num_blocks=RAG_POOL_BLOCKS,
                block_size=BLOCK_SIZE,
                batch_shape=(wl.HEADS,),
                storage=STORAGE[workload],
                max_streams=8,
                prefill_chunk=PREFILL_CHUNK,
                policy="fcfs",
                replicas=2,
                router_policy="affinity",
            )
            self.router = self.engine = self.client.router
            self.schedulers = [replica.scheduler for replica in self.router.replicas]
            self.masks = {"rag_longformer": wl.build_mask("rag_longformer")}
            self._spec, self._tensors = wl.rag_spec, wl.rag_tensors
        self.servers = [scheduler.server for scheduler in self.schedulers]
        self.pools = [server.block_pool for server in self.servers]

    def make_request(self, index: int):
        spec = self._spec(index)
        q, k, v = self._tensors(self.seed, spec)
        request = self._request_type(
            q=q,
            k=k,
            v=v,
            mask=self.masks[spec.mask],
            prompt_tokens=spec.prompt_tokens,
            priority=spec.priority,
        )
        return request, spec

    def drive(self, measured: int, clock: ProgramClock, **hooks) -> Window:
        shape = SHAPES[self.workload]
        stride = max(1, measured // shape.checks)
        return drive_streams(
            self.engine,
            self.client.submit,
            self.make_request,
            callers=shape.callers,
            warmup=shape.warmup,
            measured=measured,
            clock=clock,
            keep=lambda index: (index - shape.warmup) % stride == 0,
            **hooks,
        )

    def counters(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}

        def add(name: str, value) -> None:
            totals[name] = totals.get(name, 0) + int(value)

        for scheduler in self.schedulers:
            loop = scheduler.stats.snapshot()
            for name in ("iterations", "prefill_tokens", "decode_tokens", "preemptions", "admission_blocked"):
                add(f"loop.{name}", getattr(loop, name))
        for server in self.servers:
            add_server_counters(add, server)
        for pool in self.pools:
            add("pool.shared_tokens_saved", pool.stats.shared_tokens_saved)
            add("pool.failed_reservations", pool.stats.failed_reservations)
        if self.router is not None:
            add("router.route_hits", self.router.stats.route_hits)
            add("router.route_misses", self.router.stats.route_misses)
        return totals

    def occupancy(self) -> float:
        return max(pool.stats.blocks_in_use / pool.num_blocks for pool in self.pools)

    def check(self, window: Window) -> List[str]:
        problems = []
        for index, output in sorted(window.outputs.items()):
            request, _ = self.make_request(index)
            expected = replay_stream(
                request,
                storage=STORAGE[self.workload],
                block_size=BLOCK_SIZE,
                prefill_chunk=PREFILL_CHUNK,
            )
            if not np.array_equal(output, expected):
                problems.append(f"request {index}: stream differs from its DecodeSession replay")
        return problems

    def close(self) -> None:
        self.client.close()


class OneShotStack:
    """``AttentionServer.serve`` over one long document per request."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.serve import AttentionRequest, AttentionServer

        self.workload = workload
        self.seed = seed
        self._request_type = AttentionRequest
        self.server = AttentionServer()
        self.servers = [self.server]
        self.masks = {name: wl.build_mask(name) for name in wl.LONGCTX_MASKS}
        for mask in self.masks.values():
            self.server.plan_for(mask, wl.LONGCTX_LENGTH)

    def make_request(self, index: int):
        q, k, v = wl.longctx_tensors(self.seed, index)
        mask = self.masks[wl.longctx_mask_name(index)]
        return self._request_type(q=q, k=k, v=v, mask=mask), wl.LONGCTX_LENGTH

    def serve(self, request) -> np.ndarray:
        return self.server.serve([request])[0].output

    def drive(self, measured: int, clock: ProgramClock, **hooks) -> Window:
        shape = SHAPES[self.workload]
        return drive_oneshot(
            self.serve,
            self.make_request,
            warmup=shape.warmup,
            measured=measured,
            clock=clock,
            keep=lambda index: index - shape.warmup < shape.checks,
            **hooks,
        )

    def counters(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}

        def add(name: str, value) -> None:
            totals[name] = totals.get(name, 0) + int(value)

        add_server_counters(add, self.server)
        return totals

    def occupancy(self) -> float:
        return 0.0

    def check(self, window: Window) -> List[str]:
        from repro.masks.presets import default_global_tokens

        problems = []
        global_tokens = default_global_tokens(wl.LONGCTX_LENGTH, 3)
        for index, output in sorted(window.outputs.items()):
            q, k, v = wl.longctx_tensors(self.seed, index)
            name = wl.longctx_mask_name(index)
            sampled = sample_rows(wl.LONGCTX_LENGTH, global_tokens, ROWS_CHECKED, self.seed + index)
            rows = np.union1d(sampled, global_tokens)
            for problem in oneshot_mismatches(output, q, k, v, self.masks[name], rows):
                problems.append(f"request {index} ({name}): {problem}")
        return problems

    def close(self) -> None:
        self.server.close()


def add_server_counters(add: Callable, server) -> None:
    stats = server.stats.snapshot()
    for name in (
        "requests",
        "coalesced_requests",
        "stacked_executions",
        "plans_compiled",
        "decode_steps",
        "decode_coalesced_steps",
        "decode_stacked_executions",
        "prefill_chunks",
        "prefill_coalesced_chunks",
        "prefill_stacked_executions",
    ):
        add(f"server.{name}", getattr(stats, name))
    add("plan.hits", server.cache.stats.hits)
    add("plan.misses", server.cache.stats.misses)


def build_stack(workload: str, seed: int):
    return OneShotStack(workload, seed) if workload == wl.LONGCTX else StreamStack(workload, seed)


# --------------------------------------------------------------------------- #
# One set-up + window
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    setup_s: float
    window: Window
    #: counter deltas over the window
    delta: Dict[str, int] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    occupancy_peak: float = 0.0
    problems: List[str] = field(default_factory=list)


def run_once(
    workload: str,
    seed: int,
    measured: int,
    *,
    setup_only: bool = False,
    recorder: Optional[SpanRecorder] = None,
    check: bool = True,
) -> Outcome:
    """Set up, drive the window, and check outputs; ``setup_only`` stops at the window."""
    clock = ProgramClock()
    started = clock.now()
    stack = build_stack(workload, seed)
    before: Dict[str, int] = {}
    peak = [0.0]

    def window_started() -> None:
        before.update(stack.counters())
        if recorder is not None:
            recorder.current_phase = WINDOW

    def before_step(step: int) -> None:
        recorder.current_iteration = step
        if recorder.current_phase == WINDOW:
            peak[0] = max(peak[0], stack.occupancy())

    hooks = {"window_started": window_started}
    if recorder is not None:
        recorder.current_phase = SETUP
        hooks["before_step"] = before_step
    try:
        window = stack.drive(measured, clock, stop_at_window=setup_only, **hooks)
        outcome = Outcome(setup_s=window.start - started, window=window)
        if setup_only:
            return outcome
        if recorder is not None:
            recorder.current_phase = AFTER
            peak[0] = max(peak[0], stack.occupancy())
        outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = stack.counters()
        outcome.delta = {name: after[name] - before.get(name, 0) for name in after}
        outcome.occupancy_peak = peak[0]
        outcome.problems = list(window.errors)
        if check:
            outcome.problems += stack.check(window)
        return outcome
    finally:
        stack.close()


def kernel_passes(delta: Dict[str, int], kind: str) -> int:
    """Kernel passes the server ran for ``kind`` work: singleton plus stacked groups.

    ``kind`` is ``""`` (one-shot requests), ``"decode_"`` or ``"prefill_"``.
    """
    work = {"": "requests", "decode_": "decode_steps", "prefill_": "prefill_chunks"}[kind]
    coalesced = {"": "coalesced_requests", "decode_": "decode_coalesced_steps", "prefill_": "prefill_coalesced_chunks"}
    return (
        delta.get(f"server.{work}", 0)
        - delta.get(f"server.{coalesced[kind]}", 0)
        + delta.get(f"server.{kind}stacked_executions", 0)
    )


def composition(outcome: Outcome) -> Dict[str, int]:
    """Counts that must repeat exactly across runs of one code and seed."""
    d = outcome.delta
    return {
        "iterations": d.get("loop.iterations", outcome.window.steps),
        "rows_emitted": outcome.window.rows,
        "kernel_passes": sum(kernel_passes(d, kind) for kind in ("", "decode_", "prefill_")),
        "plan_compiles": d.get("server.plans_compiled", 0),
        "route_hits": d.get("router.route_hits", 0),
        "prefix_shared_tokens": d.get("pool.shared_tokens_saved", 0),
    }


# --------------------------------------------------------------------------- #
# End-to-end metrics
# --------------------------------------------------------------------------- #
def end_to_end(workload: str, outcome: Outcome, setups: List[float]):
    """Every end-to-end metric with its unit and sample count, and the
    percentiles this run has too few samples to report."""
    window = outcome.window
    metrics = {
        "setup_s": {"value": float(np.median(setups)), "unit": "s", "n": len(setups)},
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB", "n": 1},
        "tokens_per_s": {"value": window.rows / window.seconds, "unit": "1/s", "n": window.rows},
    }

    def pct(name: str, samples, p: float) -> None:
        try:
            result = percentile(samples, p)
        except UnsupportedPercentile as refused:
            unsupported[name] = str(refused)
            return
        metrics[name] = {"value": result.value * 1e3, "unit": "ms", "n": result.n}

    unsupported: Dict[str, str] = {}
    pct("ttft_p50_ms", window.ttft, 50)
    pct("latency_p50_ms", window.latency, 50)
    if workload != wl.LONGCTX:
        pct("ttft_p90_ms", window.ttft, 90)
        pct("itl_p50_ms", window.itl, 50)
        pct("itl_p90_ms", window.itl, 90)
    return metrics, unsupported


# --------------------------------------------------------------------------- #
# Per-layer metrics (traced run)
# --------------------------------------------------------------------------- #
LAYERS = {
    "loop": ("loop.step",),
    "policy": ("policy.rank",),
    "router": ("router.submit", "router.step"),
    "server": ("server.decode_steps", "server.prefill_chunks", "server.serve"),
    "plan": ("plan.compile",),
    "decode": ("decode.step", "decode.stacked_step", "decode.prefill", "decode.stacked_prefill"),
    "rows": ("rows.causal_row",),
    "paging": ("paging.gather", "paging.extend"),
    "kernel": ("kernel:",),
    "merge": ("plan.execute",),
    "obs": ("obs.call", "obs.labels"),
}
KERNELS = ("local", "dilated1d", "global", "csr")


def _results_edges(args, result) -> float:
    results = result if isinstance(result, list) else [result]
    return float(sum(r.meta["edges"] for r in results))


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap the entry points of every layer the workloads load."""
    import repro.serve.scheduler as scheduler_module
    from repro.masks.rows import RowProgram
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricFamily
    from repro.serve import (
        AttentionServer,
        ContinuousBatchingScheduler,
        DecodeSession,
        ExecutionPlan,
        FCFSPolicy,
        PagedKVCache,
        PlanStep,
        ReplicaRouter,
        WeightedFairPolicy,
    )

    wrap = recorder.wrap
    wrap(ContinuousBatchingScheduler, "step", "loop.step")
    wrap(WeightedFairPolicy, "rank", "policy.rank")
    wrap(FCFSPolicy, "rank", "policy.rank")
    wrap(ReplicaRouter, "submit", "router.submit", ids=lambda args, rid: (rid,))
    wrap(ReplicaRouter, "step", "router.step")
    session_ids = lambda args, result: [entry[0].session_id for entry in args[1]]  # noqa: E731
    wrap(AttentionServer, "decode_steps", "server.decode_steps", ids=session_ids)
    wrap(AttentionServer, "prefill_chunks", "server.prefill_chunks", ids=session_ids)
    wrap(AttentionServer, "serve", "server.serve", ids=lambda args, result: [r.request_id for r in result])
    wrap(scheduler_module, "compile_plan", "plan.compile")
    wrap(scheduler_module, "stacked_decode_step", "decode.stacked_step", measure=_results_edges)
    wrap(scheduler_module, "stacked_prefill", "decode.stacked_prefill", measure=_results_edges)
    wrap(DecodeSession, "step", "decode.step", measure=_results_edges)
    wrap(DecodeSession, "prefill", "decode.prefill", measure=_results_edges)
    programs, pending = [], [RowProgram]
    while pending:
        cls = pending.pop()
        programs.append(cls)
        pending.extend(cls.__subclasses__())
    for cls in programs:
        if "causal_row" in cls.__dict__:
            wrap(cls, "causal_row", "rows.causal_row")
    gathered = lambda args, result: float(result.nbytes)  # noqa: E731
    wrap(PagedKVCache, "gather_keys", "paging.gather", measure=gathered)
    wrap(PagedKVCache, "gather_values", "paging.gather", measure=gathered)
    wrap(PagedKVCache, "extend", "paging.extend")
    wrap(PlanStep, "execute", lambda args: "kernel:" + args[0].kernel, measure=lambda args, result: args[0].nnz)
    wrap(ExecutionPlan, "execute", "plan.execute")
    for cls, methods in (
        (Counter, ("inc",)),
        (Gauge, ("set", "inc", "dec")),
        (Histogram, ("observe",)),
        (MetricFamily, ("inc", "set", "dec", "observe")),
    ):
        for method in methods:
            wrap(cls, method, "obs.call")
    wrap(MetricFamily, "labels", "obs.labels")


#: every per-layer metric: unit and which direction is better
PER_LAYER = {
    "loop.step_s": ("s", "lower"),
    "loop.self_s": ("s", "lower"),
    "loop.iterations": ("count", "lower"),
    "loop.tokens_per_iteration": ("rows/iter", "higher"),
    "loop.queue_wait_ms_p50": ("ms", "lower"),
    "loop.preemptions": ("count", "lower"),
    "loop.admission_blocked": ("count", "lower"),
    "policy.rank_s": ("s", "lower"),
    "router.submit_s": ("s", "lower"),
    "router.self_s": ("s", "lower"),
    "router.route_hit_ratio": ("ratio", "higher"),
    "server.decode_s": ("s", "lower"),
    "server.prefill_s": ("s", "lower"),
    "server.oneshot_s": ("s", "lower"),
    "server.self_s": ("s", "lower"),
    "server.streams_per_pass": ("streams/pass", "higher"),
    "plan.compile_s": ("s", "lower"),
    "plan.hit_ratio": ("ratio", "higher"),
    "decode.step_s": ("s", "lower"),
    "decode.prefill_s": ("s", "lower"),
    "decode.self_s": ("s", "lower"),
    "decode.edges_per_s": ("1/s", "higher"),
    "rows.causal_row_s": ("s", "lower"),
    "paging.gather_s": ("s", "lower"),
    "paging.gather_mb": ("MB", "lower"),
    "paging.extend_s": ("s", "lower"),
    "paging.prefix_hit_ratio": ("ratio", "higher"),
    "paging.occupancy_peak": ("ratio", "lower"),
    "paging.failed_reservations": ("count", "lower"),
    **{f"kernel.{kernel}_s": ("s", "lower") for kernel in KERNELS},
    **{f"kernel.{kernel}_edges_per_s": ("1/s", "higher") for kernel in KERNELS},
    "kernel.merge_s": ("s", "lower"),
    "obs.s": ("s", "lower"),
    "obs.calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: Outcome, recorder: SpanRecorder, untraced_seconds: float):
    """Every per-layer metric, from the traced window's spans and counters,
    and the percentiles this run has too few samples to report.

    A layer the workload never calls reports 0 time and 0 counts; a ratio
    whose base is 0 reports 0 with ``n=0``.
    """
    table = SpanTable(recorder, LAYERS)
    d = traced.delta
    window = traced.window
    out: Dict[str, dict] = {}

    def put(name: str, value: float, n: int = 1) -> None:
        out[name] = {"value": float(value), "unit": PER_LAYER[name][0], "n": int(n)}

    def timed(name: str, patterns, layer: str, **kw) -> float:
        seconds = table.time(patterns, layer, **kw)
        put(name, seconds, table.count(patterns, layer, **kw))
        return seconds

    def self_timed(name: str, patterns, layer: str) -> None:
        put(name, table.self_time_of(patterns), table.count(patterns, layer))

    timed("loop.step_s", ["loop.step"], "loop")
    self_timed("loop.self_s", ["loop.step"], "loop")
    iterations = d.get("loop.iterations", 0)
    tokens = d.get("loop.prefill_tokens", 0) + d.get("loop.decode_tokens", 0)
    put("loop.iterations", iterations)
    put("loop.tokens_per_iteration", _ratio(tokens, iterations), iterations)
    unsupported: Dict[str, str] = {}
    waits = window.queue_wait
    try:
        put("loop.queue_wait_ms_p50", percentile(waits, 50).value * 1e3 if waits else 0.0, len(waits))
    except UnsupportedPercentile as refused:
        unsupported["loop.queue_wait_ms_p50"] = str(refused)
    put("loop.preemptions", d.get("loop.preemptions", 0))
    put("loop.admission_blocked", d.get("loop.admission_blocked", 0))
    timed("policy.rank_s", ["policy.rank"], "policy")
    timed("router.submit_s", ["router.submit"], "router")
    self_timed("router.self_s", ["router.step"], "router")
    decisions = d.get("router.route_hits", 0) + d.get("router.route_misses", 0)
    put("router.route_hit_ratio", _ratio(d.get("router.route_hits", 0), decisions), decisions)
    timed("server.decode_s", ["server.decode_steps"], "server")
    timed("server.prefill_s", ["server.prefill_chunks"], "server")
    timed("server.oneshot_s", ["server.serve"], "server")
    self_timed("server.self_s", LAYERS["server"], "server")
    streams = d.get("server.decode_steps", 0) + d.get("server.prefill_chunks", 0)
    passes = kernel_passes(d, "decode_") + kernel_passes(d, "prefill_")
    put("server.streams_per_pass", _ratio(streams, passes), passes)
    timed("plan.compile_s", ["plan.compile"], "plan", phases=(SETUP, WINDOW))
    lookups = d.get("plan.hits", 0) + d.get("plan.misses", 0)
    put("plan.hit_ratio", _ratio(d.get("plan.hits", 0), lookups), lookups)
    step_s = timed("decode.step_s", ["decode.step", "decode.stacked_step"], "decode")
    prefill_s = timed("decode.prefill_s", ["decode.prefill", "decode.stacked_prefill"], "decode")
    self_timed("decode.self_s", LAYERS["decode"], "decode")
    decode_spans = table.count(LAYERS["decode"], "decode")
    put("decode.edges_per_s", _ratio(table.measured(LAYERS["decode"], "decode"), step_s + prefill_s), decode_spans)
    timed("rows.causal_row_s", ["rows.causal_row"], "rows")
    timed("paging.gather_s", ["paging.gather"], "paging")
    put("paging.gather_mb", table.measured(["paging.gather"], "paging") / 1e6, table.count(["paging.gather"], "paging"))
    timed("paging.extend_s", ["paging.extend"], "paging")
    shared = d.get("pool.shared_tokens_saved", 0)
    put("paging.prefix_hit_ratio", _ratio(shared, window.prompt_rows_sent), window.prompt_rows_sent)
    put("paging.occupancy_peak", traced.occupancy_peak)
    put("paging.failed_reservations", d.get("pool.failed_reservations", 0))
    for kernel in KERNELS:
        patterns = [f"kernel:{kernel}"]
        seconds = timed(f"kernel.{kernel}_s", patterns, "kernel")
        edges = table.measured(patterns, "kernel")
        put(f"kernel.{kernel}_edges_per_s", _ratio(edges, seconds), table.count(patterns, "kernel"))
    self_timed("kernel.merge_s", ["plan.execute"], "merge")
    timed("obs.s", LAYERS["obs"], "obs")
    put("obs.calls", table.count(["obs.call"], "obs"))
    put("trace.overhead_ratio", window.seconds / untraced_seconds - 1.0)
    return out, unsupported
