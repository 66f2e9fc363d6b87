"""``repro-ops`` — the operator CLI over the observability layer.

Runs a named serving scenario (see :mod:`repro.obs.scenarios`) on the
virtual clock with metrics + tracing enabled and renders the resulting
registry snapshot as a table, CSV, or JSON.  ``rich`` is optional: when it
is importable the table view gets panels and live per-iteration refresh,
otherwise everything falls back to plain aligned text — the CLI must work
in the bare CI container, where only ``click`` is installed.

Usage::

    repro-ops scenarios                         # list the zoo
    repro-ops run --scenario quick --format json
    repro-ops run --scenario storm --format table --trace-out trace.jsonl
    repro-ops run --scenario steady --format csv --metric 'serving_*'

Installed as a console script by ``setup.py``; in a bare checkout run it as
``PYTHONPATH=src python -m repro.obs.cli ...``.
"""

from __future__ import annotations

import fnmatch
import io
import json
import sys
from typing import List, Optional, Sequence

import click

from repro.obs.metrics import MetricsSnapshot
from repro.obs.scenarios import SCENARIOS, ScenarioResult, build_scenario, run_scenario

try:  # pragma: no cover - exercised only where rich is installed
    from rich.console import Console as _RichConsole
    from rich.table import Table as _RichTable

    _HAVE_RICH = True
except ImportError:  # pragma: no cover - the CI container path
    _RichConsole = None
    _RichTable = None
    _HAVE_RICH = False


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #
_TABLE_COLUMNS = ("metric", "type", "labels", "value", "count", "p50", "p95", "p99")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _metric_rows(snapshot: MetricsSnapshot, patterns: Sequence[str]) -> List[tuple]:
    rows = []
    for sample in snapshot.samples:
        if patterns and not any(fnmatch.fnmatch(sample.name, p) for p in patterns):
            continue
        labels = ",".join(f"{k}={v}" for k, v in sorted(sample.labels))
        if sample.kind == "histogram":
            rows.append(
                (
                    sample.name,
                    sample.kind,
                    labels,
                    _fmt(sample.value),
                    _fmt(sample.count),
                    _fmt(sample.quantile(0.50)),
                    _fmt(sample.quantile(0.95)),
                    _fmt(sample.quantile(0.99)),
                )
            )
        else:
            rows.append((sample.name, sample.kind, labels, _fmt(sample.value), "", "", "", ""))
    return rows


def _plain_table(headers: Sequence[str], rows: Sequence[tuple]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _render_summary_lines(summary: dict) -> List[str]:
    lines = [
        f"scenario={summary['scenario']} seed={summary['seed']} "
        f"requests={summary['requests']} tokens={summary['total_tokens']} "
        f"iterations={summary['iterations']} preemptions={summary['preemptions']} "
        f"swap_ins={summary['swap_ins']}"
    ]
    for key in ("ttft_seconds", "queue_seconds", "per_token_seconds", "preemption_stall_seconds"):
        q = summary[key]
        lines.append(
            f"  {key}: count={q['count']} p50={_fmt(q['p50'])} "
            f"p95={_fmt(q['p95'])} p99={_fmt(q['p99'])}"
        )
    router = summary["router"]
    lines.append(
        f"  router: replicas={router['replicas']} routed={router['routed']} "
        f"hit_rate={_fmt(router['route_hit_rate'])} "
        f"rebalances={router['rebalance_passes']} moved={router['moved_streams']}"
    )
    slo = summary.get("slo")
    if slo is not None:
        per_tenant = " ".join(
            f"{tenant}={bucket['attained']}/{bucket['attained'] + bucket['missed']}"
            for tenant, bucket in sorted(slo["tenants"].items())
        )
        lines.append(
            f"  slo: requests={slo['requests']} attained={slo['attained']} "
            f"attainment={_fmt(slo['attainment'])} {per_tenant}".rstrip()
        )
    return lines


def _render_table(result: ScenarioResult, patterns: Sequence[str]) -> None:
    summary = result.summary()
    rows = _metric_rows(result.obs.snapshot(), patterns)
    if _HAVE_RICH:  # pragma: no cover - rich-only path
        console = _RichConsole()
        for line in _render_summary_lines(summary):
            console.print(line, highlight=False)
        table = _RichTable(title=f"metrics — {summary['scenario']}")
        for header in _TABLE_COLUMNS:
            table.add_column(header)
        for row in rows:
            table.add_row(*[str(cell) for cell in row])
        console.print(table)
        return
    for line in _render_summary_lines(summary):
        click.echo(line)
    click.echo("")
    click.echo(_plain_table(_TABLE_COLUMNS, rows))


def _render_csv(result: ScenarioResult, patterns: Sequence[str]) -> None:
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(_TABLE_COLUMNS)
    writer.writerows(_metric_rows(result.obs.snapshot(), patterns))
    click.echo(out.getvalue().rstrip("\n"))


def _render_json(result: ScenarioResult, patterns: Sequence[str]) -> None:
    payload = result.to_dict()
    if patterns:
        payload["metrics"] = [
            m
            for m in payload["metrics"]
            if any(fnmatch.fnmatch(m["name"], p) for p in patterns)
        ]
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
@click.group()
def main() -> None:
    """Operations console for the sparse-attention serving stack."""


@main.command()
def scenarios() -> None:
    """List the named scenarios and their shapes."""
    rows = []
    for name in sorted(SCENARIOS):
        scenario = build_scenario(name, seed=0)
        rows.append(
            (
                name,
                str(len(scenario.requests)),
                str(scenario.total_tokens),
                scenario.policy,
                scenario.preemption,
                scenario.description,
            )
        )
    click.echo(
        _plain_table(
            ("scenario", "requests", "tokens", "policy", "preemption", "description"), rows
        )
    )


@main.command()
@click.option(
    "--scenario",
    "scenario_name",
    default="quick",
    show_default=True,
    type=click.Choice(sorted(SCENARIOS)),
    help="Named workload to drive through the serving loop.",
)
@click.option("--seed", default=0, show_default=True, type=int, help="Workload seed.")
@click.option(
    "--policy",
    default=None,
    show_default="scenario default",
    type=click.Choice(("fcfs", "priority", "weighted", "slack")),
    help="Override the scenario's scheduling policy (compare SLO attainment).",
)
@click.option(
    "--storage",
    default="fp32",
    show_default=True,
    type=click.Choice(("fp32", "fp16", "int8")),
    help="KV block-pool storage dtype (compare snapshots across formats).",
)
@click.option(
    "--replicas",
    default=1,
    show_default=True,
    type=click.IntRange(min=1),
    help="Replicas of the prefix-affinity router the scenario runs through "
    "(1: a router of one, which is one loop).",
)
@click.option(
    "--router-policy",
    default="affinity",
    show_default=True,
    type=click.Choice(("affinity", "weighted", "round_robin")),
    help="Placement policy when --replicas > 1.",
)
@click.option(
    "--format",
    "fmt",
    default="table",
    show_default=True,
    type=click.Choice(("table", "csv", "json")),
    help="How to render the metrics snapshot.",
)
@click.option(
    "--metric",
    "metric_patterns",
    multiple=True,
    help="Glob filter on metric names (repeatable); default: all.",
)
@click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Also write the full JSON payload (summary + snapshot) to this file.",
)
@click.option(
    "--trace-out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the request-lifecycle trace as JSONL to this file.",
)
@click.option(
    "--prometheus-out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the snapshot in Prometheus text exposition format to this file.",
)
def run(
    scenario_name: str,
    seed: int,
    policy: Optional[str],
    storage: str,
    replicas: int,
    router_policy: str,
    fmt: str,
    metric_patterns: tuple,
    out: Optional[str],
    trace_out: Optional[str],
    prometheus_out: Optional[str],
) -> None:
    """Run SCENARIO on the virtual clock and render its metrics."""
    result = run_scenario(
        scenario_name,
        seed=seed,
        storage=storage,
        policy=policy,
        replicas=replicas,
        router_policy=router_policy,
    )
    if fmt == "json":
        _render_json(result, metric_patterns)
    elif fmt == "csv":
        _render_csv(result, metric_patterns)
    else:
        _render_table(result, metric_patterns)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        click.echo(f"wrote {out}", err=True)
    if trace_out is not None:
        with open(trace_out, "w", encoding="utf-8") as handle:
            handle.write(result.obs.trace_jsonl())
        click.echo(f"wrote {trace_out}", err=True)
    if prometheus_out is not None:
        with open(prometheus_out, "w", encoding="utf-8") as handle:
            handle.write(result.obs.snapshot().to_prometheus())
        click.echo(f"wrote {prometheus_out}", err=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
