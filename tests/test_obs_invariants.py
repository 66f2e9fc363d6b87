"""Cross-layer observability invariants on real serving runs.

The registry, the trace buffer, the loop's own counters, and per-request
telemetry are four views of the same execution; these tests pin the
conservation laws tying them together:

* token conservation — ``LoopStats.prefill_tokens + decode_tokens`` equals
  the sum of per-request telemetry token counts (and the workload's total);
* well-formed span nesting — every exported trace passes
  :func:`repro.obs.validate_trace` and no span stays open after drain;
* monotone counters — counter samples never decrease across iterations;
* tear-free snapshots — ``LoopStats``/``ServerStats`` snapshots are frozen
  and internally consistent under concurrent readers.
"""

import dataclasses
import threading

import pytest
from harness.simulation import build_workload, run_simulation, sample_workload, sim_seeds

from repro.obs import Observability, validate_trace
from repro.obs.scenarios import run_scenario

STORM = [
    {"mask": 0, "prompt": 8, "decode": 6, "gap": 0.0, "seed": 11},
    {"mask": 1, "prompt": 6, "decode": 6, "gap": 0.0, "seed": 12},
    {"mask": 2, "prompt": 4, "decode": 8, "gap": 1.0, "seed": 13},
]


@pytest.mark.parametrize("seed", sim_seeds(3))
def test_token_conservation_matches_telemetry(seed):
    obs = Observability()
    report = run_simulation(sample_workload(seed), obs=obs)
    stats = report.loop_stats
    emitted = sum(t.tokens_emitted for t in report.telemetry.values())
    prompts = sum(t.prompt_tokens for t in report.telemetry.values())
    assert stats.prefill_tokens + stats.decode_tokens == emitted
    assert stats.prefill_tokens == prompts
    assert emitted == report.workload.total_tokens
    # the registry mirrors the loop's counters exactly
    snap = obs.snapshot()
    assert snap.get("loop_prefill_tokens_total").value == stats.prefill_tokens
    assert snap.get("loop_decode_tokens_total").value == stats.decode_tokens


@pytest.mark.parametrize("seed", sim_seeds(3))
def test_trace_spans_are_well_formed_and_closed(seed):
    obs = Observability()
    report = run_simulation(sample_workload(seed), obs=obs)
    records = obs.trace.drain()
    validate_trace(records)
    assert obs.trace.open_spans() == [], "spans left open after drain"
    # one root request span per request, plus one per rebalance move: the
    # move closes the stream's span on its old replica with tokens=0 and
    # opens one on the new replica under the same request id
    roots = [r for r in records if r.get("kind") == "span" and r["name"] == "request"]
    assert len(roots) == len(report.telemetry) + report.router_stats.moved_streams
    finished = [root for root in roots if root["attrs"]["tokens"] > 0]
    assert sorted(root["request"] for root in finished) == sorted(report.telemetry)
    for root in finished:
        telemetry = report.telemetry[root["request"]]
        assert root["attrs"]["tokens"] == telemetry.tokens_emitted
        assert root["start"] == telemetry.arrival_time
        assert root["end"] == telemetry.finish_time


def test_counters_are_monotone_across_iterations():
    snapshots = []
    run_scenario("burst", seed=0, on_iteration=lambda i, obs: snapshots.append(obs.snapshot()))
    assert len(snapshots) > 10
    for before, after in zip(snapshots, snapshots[1:]):
        for sample in before.samples:
            if sample.kind == "gauge":
                continue
            later = after.get(sample.name, **dict(sample.labels))
            assert later is not None, f"{sample.name} vanished between iterations"
            assert later.value >= sample.value, f"{sample.name} decreased"
            if sample.kind == "histogram":
                assert later.count >= sample.count, f"{sample.name} lost observations"


def test_ttft_and_queue_histograms_cover_every_request():
    obs = Observability()
    workload = build_workload(STORM, extra_blocks=0, max_streams=2, prefill_chunk=4)
    report = run_simulation(workload, obs=obs)
    snap = obs.snapshot()
    n = len(report.telemetry)
    assert snap.get("serving_ttft_seconds").count == n
    assert snap.get("serving_queue_seconds").count == n
    # every TTFT in telemetry is non-negative and consistent with endpoints
    for telemetry in report.telemetry.values():
        assert telemetry.ttft_seconds is not None and telemetry.ttft_seconds >= 0.0
        assert telemetry.decode_seconds == telemetry.finish_time - telemetry.first_token_time
    # a storm-tight pool preempts: stalls must be recorded when they happen
    stats = report.loop_stats
    stalls = snap.get("serving_preemption_stall_seconds")
    if stats.preemptions:
        assert stalls.count > 0


def test_pool_gauges_return_to_baseline_after_drain():
    obs = Observability()
    workload = build_workload(STORM, extra_blocks=2, max_streams=2)
    run_simulation(workload, obs=obs)
    snap = obs.snapshot()
    pool = "sim-replica0"  # the one replica of the harness's router named "sim"
    assert snap.get("pool_blocks", pool=pool, state="in_use").value == 0.0
    free = snap.get("pool_blocks", pool=pool, state="free").value
    evictable = snap.get("pool_blocks", pool=pool, state="evictable").value
    assert free + evictable == workload.num_blocks


def test_loop_stats_snapshot_is_frozen_and_consistent():
    report = run_simulation(sample_workload(1))
    snapshots = [stats.snapshot() for stats in report.replica_loop_stats]
    assert len(snapshots) == report.workload.replicas
    for snapshot in snapshots:
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot.iterations = 0
        # a replica steps only in router steps that find it busy
        assert snapshot.iterations <= report.iterations
        if snapshot.iterations:
            assert snapshot.tokens_per_iteration == pytest.approx(
                snapshot.tokens_total / snapshot.iterations
            )
    if len(snapshots) == 1:
        assert snapshots[0].iterations == report.iterations
    assert sum(s.tokens_total for s in snapshots) == report.workload.total_tokens


def test_server_stats_snapshot_is_tear_free_under_concurrent_steps():
    """Readers snapshotting mid-run must always see whole iterations."""
    import numpy as np
    from harness.simulation import DIM

    from repro.serve import (
        AttentionServer,
        ContinuousBatchingScheduler,
        LoopRequest,
        VirtualClock,
    )
    from repro.utils.rng import random_qkv

    workload = sample_workload(2)
    obs = Observability(tracing=False)
    errors = []
    server = AttentionServer(cache_capacity=32, obs=obs)
    server.create_block_pool(
        key_dim=workload.dim, num_blocks=workload.num_blocks, block_size=workload.block_size
    )
    scheduler = ContinuousBatchingScheduler(
        server, clock=VirtualClock(), max_streams=workload.max_streams
    )
    for spec in workload.specs:
        q, k, v = random_qkv(spec.total, DIM, dtype=np.float32, seed=spec.seed)
        scheduler.submit(
            LoopRequest(q=q, k=k, v=v, mask=spec.mask, prompt_tokens=spec.prompt)
        )

    stop = threading.Event()

    def reader():
        while not stop.is_set():
            loop_snap = scheduler.stats.snapshot()
            server.stats_snapshot()  # must never raise or deadlock mid-step
            if loop_snap.decode_tokens + loop_snap.prefill_tokens > workload.total_tokens:
                errors.append("loop counters overshot the workload")
            if loop_snap.finished > len(workload.specs):
                errors.append("finished more requests than were submitted (torn read)")
            if loop_snap.finished > loop_snap.admitted:
                errors.append("finished > admitted (torn read)")

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    try:
        while scheduler.active or scheduler.waiting:
            scheduler.step()
    finally:
        stop.set()
        for t in threads:
            t.join()
        server.close()
    assert errors == []
    assert scheduler.stats.snapshot().tokens_total == workload.total_tokens


def test_repro_obs_env_toggle_instruments_the_server(monkeypatch):
    """``REPRO_OBS=1`` wires a live recorder into servers built with no
    explicit ``obs`` argument; unset, the fallback stays the no-op."""
    from repro.obs.recorder import NULL_OBS, reset_default_observability
    from repro.serve.scheduler import AttentionServer

    monkeypatch.delenv("REPRO_OBS", raising=False)
    reset_default_observability()
    try:
        server = AttentionServer(cache_capacity=4)
        assert server.obs is NULL_OBS
        server.close()

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_TRACE", "0")
        reset_default_observability()
        server = AttentionServer(cache_capacity=4)
        assert server.obs.enabled
        assert server.obs.trace is None  # REPRO_OBS_TRACE=0 drops tracing
        server.plan_for(None, 4)
        sample = server.obs.snapshot().get("plan_cache_events_total", event="miss")
        assert sample is not None and sample.value == 1.0
        server.close()
    finally:
        reset_default_observability()
