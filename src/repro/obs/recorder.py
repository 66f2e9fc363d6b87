"""The `Observability` facade and the allocation-free disabled path.

Every instrumented layer holds a reference to one :class:`Observability`
object and guards each hook with ``if obs.enabled:``.  The disabled
singleton :data:`NULL_OBS` keeps ``enabled = False`` so the hot path costs a
single attribute check and branch — no allocation, no lock.  A disabled
recorder declares no metric families, so a hook left unguarded raises
``AttributeError`` in every test that runs on the default recorder.

Metric families used by the serving stack are pre-declared here (names,
kinds, labels, buckets) so the registry's schema is uniform across layers
and the README reference table has a single source of truth.

Environment toggles (read once by :func:`default_observability`):

* ``REPRO_OBS=1`` — enable metrics (and tracing) for code paths that
  otherwise default to the null recorder;
* ``REPRO_OBS_TRACE=0`` — keep metrics but disable the trace buffer;
* ``REPRO_OBS_TRACE_CAPACITY=N`` — ring-buffer size (default 65 536).
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from repro.obs.metrics import (
    KERNEL_SECONDS_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    SERVING_SECONDS_BUCKETS,
    SLACK_SECONDS_BUCKETS,
    TOKEN_BUCKETS,
)
from repro.obs.tracing import DEFAULT_TRACE_CAPACITY, TraceBuffer


class Observability:
    """One registry + one trace buffer, shared by every instrumented layer.

    ``enabled`` is the hot-path guard; ``trace`` is ``None`` when tracing is
    off so span hooks can additionally guard with ``if obs.trace:``.
    Construction declares every serving metric family up front — recording
    sites then use the cached family attributes directly, keeping the
    enabled path at one dict lookup per label set.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        tracing: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry()
        self.trace: Optional[TraceBuffer] = (
            TraceBuffer(trace_capacity) if (enabled and tracing) else None
        )
        if not self.enabled:
            return
        reg = self.registry
        # -- loop / lifecycle -------------------------------------------- #
        self.requests_submitted = reg.counter(
            "loop_requests_submitted_total", "Requests submitted to the scheduler"
        )
        self.requests_finished = reg.counter(
            "loop_requests_finished_total", "Requests fully drained"
        )
        self.requests_cancelled = reg.counter(
            "loop_requests_cancelled_total", "Requests abandoned before finishing"
        )
        self.iterations = reg.counter("loop_iterations_total", "Scheduler iterations run")
        self.preemptions = reg.counter(
            "loop_preemptions_total", "Preemptions by mode", labels=("mode",)
        )
        self.swap_ins = reg.counter("loop_swap_ins_total", "Swapped-out streams restored")
        self.prefill_tokens = reg.counter(
            "loop_prefill_tokens_total", "Prompt tokens prefilled"
        )
        self.decode_tokens = reg.counter("loop_decode_tokens_total", "Tokens decoded")
        self.active_streams = reg.gauge(
            "loop_active_streams", "Streams currently admitted to the running set"
        )
        self.queued_streams = reg.gauge(
            "loop_queued_streams", "Streams waiting in the admission queue"
        )
        self.ttft_seconds = reg.histogram(
            "serving_ttft_seconds",
            "Submit-to-first-token latency",
            buckets=SERVING_SECONDS_BUCKETS,
        )
        self.queue_seconds = reg.histogram(
            "serving_queue_seconds",
            "Time between submit and first scheduling",
            buckets=SERVING_SECONDS_BUCKETS,
        )
        self.per_token_seconds = reg.histogram(
            "serving_per_token_seconds",
            "Mean inter-token latency during decode, per request",
            buckets=SERVING_SECONDS_BUCKETS,
        )
        self.preemption_stall_seconds = reg.histogram(
            "serving_preemption_stall_seconds",
            "Preempt-to-restore stall per preemption round-trip",
            buckets=SERVING_SECONDS_BUCKETS,
        )
        self.iteration_batch_tokens = reg.histogram(
            "loop_iteration_batch_tokens",
            "Tokens scheduled per iteration",
            buckets=TOKEN_BUCKETS,
        )
        # -- serving edge / tenants --------------------------------------- #
        self.edge_requests = reg.counter(
            "edge_requests_total",
            "Edge admission decisions by tenant and outcome",
            labels=("tenant", "outcome"),
        )
        self.edge_throttles = reg.counter(
            "edge_throttled_total",
            "Edge rejections by tenant and reason (rate/quota/budget)",
            labels=("tenant", "reason"),
        )
        self.edge_active_streams = reg.gauge(
            "edge_active_streams",
            "Streams currently live on the serving edge",
            labels=("tenant",),
        )
        self.edge_backpressure = reg.counter(
            "edge_backpressure_events_total",
            "Consumer-stall hold transitions applied by the edge",
            labels=("tenant",),
        )
        self.tenant_slo = reg.counter(
            "tenant_slo_total",
            "Finished SLO-carrying requests by tenant and outcome",
            labels=("tenant", "outcome"),
        )
        self.slo_slack_seconds = reg.histogram(
            "serving_slo_slack_seconds",
            "SLO budget left at finish (negative = missed by that much)",
            buckets=SLACK_SECONDS_BUCKETS,
        )
        # -- server / kernel dispatch ------------------------------------ #
        self.kernel_seconds = reg.histogram(
            "server_kernel_seconds",
            "Per-request kernel wall time by plan key and phase",
            labels=("plan", "phase"),
            buckets=KERNEL_SECONDS_BUCKETS,
        )
        self.server_requests = reg.counter(
            "server_requests_total", "Requests executed by the server", labels=("phase",)
        )
        self.server_rejections = reg.counter(
            "server_rejections_total", "Admission-control rejections"
        )
        self.engine_dispatches = reg.counter(
            "engine_dispatches_total", "Engine kernel dispatches", labels=("kind",)
        )
        # -- plan cache --------------------------------------------------- #
        self.plan_cache_events = reg.counter(
            "plan_cache_events_total", "Plan cache hits/misses/evictions", labels=("event",)
        )
        # -- block pool ---------------------------------------------------- #
        self.pool_events = reg.counter(
            "pool_events_total",
            "Block pool lifecycle events",
            labels=("pool", "event"),
        )
        self.pool_blocks = reg.gauge(
            "pool_blocks", "Block pool occupancy", labels=("pool", "state")
        )
        self.pool_shared_tokens = reg.counter(
            "pool_shared_tokens_total",
            "Prefix tokens served from shared blocks",
            labels=("pool",),
        )
        self.pool_kv_bytes = reg.gauge(
            "pool_kv_bytes_in_use",
            "Physical KV bytes of blocks mapped by live caches",
            labels=("pool", "storage"),
        )
        self.pool_dequant_seconds = reg.counter(
            "pool_dequant_seconds_total",
            "Wall seconds spent decoding storage-encoded rows on gather",
            labels=("pool", "storage"),
        )
        # -- replica router ----------------------------------------------- #
        self.router_routes = reg.counter(
            "router_routes_total",
            "Placement decisions by outcome (hit = prefix affinity, miss = "
            "load-based fallback, or any placement on a router of one)",
            labels=("outcome",),
        )
        self.router_replica_streams = reg.gauge(
            "router_replica_streams",
            "Streams (waiting + running) currently placed on each replica",
            labels=("replica",),
        )
        self.router_replica_tokens = reg.gauge(
            "router_replica_pending_tokens",
            "Tokens still to emit on each replica (the rebalance load signal)",
            labels=("replica",),
        )
        self.router_rebalances = reg.counter(
            "router_rebalance_passes_total",
            "Rebalance passes that examined the replica loads",
        )
        self.router_moved_streams = reg.counter(
            "router_moved_streams_total",
            "Waiting streams withdrawn and resubmitted to another replica",
        )

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()

    def trace_jsonl(self) -> str:
        return self.trace.to_jsonl() if self.trace is not None else ""


class _NullObservability(Observability):
    """The shared disabled recorder: ``enabled`` is False, nothing records.

    It still carries an (empty) registry so ``snapshot()`` stays callable,
    but no hook behind an ``if obs.enabled:`` guard ever runs.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)


#: Shared no-op recorder; the default for every layer's ``obs`` parameter.
NULL_OBS = _NullObservability()

_default_lock = threading.Lock()
_default: Optional[Observability] = None


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in {"", "0", "false", "no", "off"}


def default_observability() -> Observability:
    """Process-wide recorder honouring the ``REPRO_OBS*`` env toggles.

    Returns :data:`NULL_OBS` unless ``REPRO_OBS`` is set truthy; the enabled
    instance is created once and shared (so CLI, benchmarks, and library
    code all export from the same registry).
    """
    global _default
    with _default_lock:
        if _default is None:
            if not _env_flag("REPRO_OBS", False):
                _default = NULL_OBS
            else:
                _default = Observability(
                    tracing=_env_flag("REPRO_OBS_TRACE", True),
                    trace_capacity=int(
                        os.environ.get("REPRO_OBS_TRACE_CAPACITY", DEFAULT_TRACE_CAPACITY)
                    ),
                )
        return _default


def reset_default_observability() -> None:
    """Forget the cached default (tests re-read the environment after this)."""
    global _default
    with _default_lock:
        _default = None


__all__ = [
    "NULL_OBS",
    "Observability",
    "default_observability",
    "reset_default_observability",
]
