"""Scenario runner + ``repro-ops`` CLI tests, including trace determinism."""

import json

import pytest
from click.testing import CliRunner

from repro.obs import validate_trace
from repro.obs.cli import main
from repro.obs.scenarios import SCENARIOS, build_scenario, run_scenario


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_drains_and_reports(name):
    result = run_scenario(name, seed=0)
    assert result.iterations > 0
    assert len(result.telemetry) == len(result.scenario.requests)
    for telemetry in result.telemetry.values():
        assert telemetry.finish_time is not None
        assert telemetry.ttft_seconds is not None
    summary = result.summary()
    assert summary["total_tokens"] == result.scenario.total_tokens
    assert summary["ttft_seconds"]["count"] == len(result.scenario.requests)
    assert result.loop_stats.tokens_total == result.scenario.total_tokens
    validate_trace(result.obs.trace.drain())
    assert result.obs.trace.open_spans() == []


def test_scenario_families_have_distinct_shapes():
    storm = build_scenario("storm", seed=0)
    quick = build_scenario("quick", seed=0)
    assert storm.extra_blocks == 0 and quick.extra_blocks > 0
    # storm actually preempts; quick does not
    assert run_scenario("storm", seed=0).loop_stats.preemptions > 0
    assert run_scenario("quick", seed=0).loop_stats.preemptions == 0


def test_slack_meets_the_slo_burst_deadlines_fcfs_misses():
    # one workload, two orders: reordering alone closes the gap
    attainment = {
        policy: run_scenario("slo-burst", seed=0, policy=policy).slo_attainment()
        for policy in ("fcfs", "slack")
    }
    assert attainment["slack"]["attainment"] >= 0.9
    assert attainment["fcfs"]["attainment"] < 0.6
    assert attainment["slack"]["requests"] == attainment["fcfs"]["requests"]


def test_unknown_scenario_raises():
    with pytest.raises(ValueError):
        build_scenario("nope")


def test_seed_changes_sampled_scenarios():
    a = build_scenario("steady", seed=0)
    b = build_scenario("steady", seed=1)
    assert a.requests != b.requests
    # hand-written families ignore the workload shape but reseed tensors
    assert build_scenario("quick", seed=0).requests != build_scenario("quick", seed=1).requests


def test_trace_replay_is_bit_identical():
    for name in ("quick", "storm"):
        first = run_scenario(name, seed=3).obs.trace_jsonl()
        second = run_scenario(name, seed=3).obs.trace_jsonl()
        assert first and first == second, f"{name} trace not deterministic"


def test_metrics_snapshot_deterministic_for_clock_derived_series():
    """Virtual-clock histograms replay exactly; host-time ones only count."""
    snaps = [run_scenario("burst", seed=2).obs.snapshot() for _ in range(2)]
    for name in (
        "serving_ttft_seconds",
        "serving_queue_seconds",
        "serving_per_token_seconds",
        "serving_preemption_stall_seconds",
        "loop_iteration_batch_tokens",
    ):
        a, b = snaps[0].get(name), snaps[1].get(name)
        assert a.counts == b.counts and a.value == b.value, name
    kernel_a = snaps[0].with_name("server_kernel_seconds")
    kernel_b = snaps[1].with_name("server_kernel_seconds")
    assert {s.labels: s.count for s in kernel_a} == {s.labels: s.count for s in kernel_b}


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_lists_scenarios():
    result = CliRunner().invoke(main, ["scenarios"])
    assert result.exit_code == 0, result.output
    for name in SCENARIOS:
        assert name in result.output


def test_cli_json_reports_percentiles_and_kernel_histograms():
    result = CliRunner().invoke(main, ["run", "--scenario", "quick", "--format", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    summary = payload["summary"]
    for key in ("ttft_seconds", "queue_seconds", "per_token_seconds"):
        assert {"count", "p50", "p95", "p99"} <= set(summary[key])
    assert summary["ttft_seconds"]["count"] == summary["requests"]
    kernels = [m for m in payload["metrics"] if m["name"] == "server_kernel_seconds"]
    assert kernels, "per-plan kernel histograms missing from the JSON payload"
    assert all({"plan", "phase"} <= set(m["labels"]) for m in kernels)


def test_cli_table_and_csv_render_without_rich():
    table = CliRunner().invoke(
        main, ["run", "--scenario", "quick", "--format", "table", "--metric", "serving_*"]
    )
    assert table.exit_code == 0, table.output
    assert "serving_ttft_seconds" in table.output
    assert "loop_iterations_total" not in table.output  # filtered out
    csv_out = CliRunner().invoke(main, ["run", "--scenario", "quick", "--format", "csv"])
    assert csv_out.exit_code == 0, csv_out.output
    header = csv_out.output.splitlines()[0]
    assert header == "metric,type,labels,value,count,p50,p95,p99"


def test_cli_writes_artifacts(tmp_path):
    out = tmp_path / "snap.json"
    trace = tmp_path / "trace.jsonl"
    prom = tmp_path / "metrics.prom"
    result = CliRunner().invoke(
        main,
        [
            "run", "--scenario", "quick", "--format", "json",
            "--out", str(out), "--trace-out", str(trace), "--prometheus-out", str(prom),
        ],  # fmt: skip
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert "summary" in payload and "metrics" in payload
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    validate_trace(records)
    assert "# TYPE serving_ttft_seconds histogram" in prom.read_text()
    assert 'server_kernel_seconds_bucket{plan="' in prom.read_text()


def test_cli_rejects_unknown_scenario():
    result = CliRunner().invoke(main, ["run", "--scenario", "bogus"])
    assert result.exit_code != 0
