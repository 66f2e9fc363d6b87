"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

The serving stack grew three disjoint telemetry surfaces (``ServerStats``,
``LoopStats``, the pool gauges) that cannot answer distributional questions —
p95 time-to-first-token, per-plan kernel time — because plain counters erase
shape.  :class:`MetricsRegistry` is the single export point: every layer
records into one registry through three Prometheus-shaped instrument kinds:

* :class:`Counter` — monotone float, ``inc()`` only;
* :class:`Gauge` — settable level (pool occupancy, queue depth);
* :class:`Histogram` — fixed upper-bound buckets with an O(log buckets)
  ``observe`` and bucket-interpolated ``quantile``/``p50``/``p95``/``p99``
  accessors, so latency percentiles come straight out of the registry.

Instruments are grouped into label *families* (``family.labels(plan=key)``
returns the per-label-value child, created on first use), mirroring the
Prometheus client data model so :meth:`MetricsSnapshot.to_prometheus` is a
faithful text-format render and :meth:`MetricsSnapshot.to_dict` gives the
JSON schema the ``repro-ops`` CLI writes.

Everything mutating takes a lock (one per family, one for the registry), so
kernels on the server's thread pool and the pool's own locked sections can
record concurrently; :meth:`MetricsRegistry.snapshot` takes every family lock
and returns an immutable copy, never a live view.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.utils.validation import require

#: Log-spaced bounds covering host kernel latencies (10 µs .. 10 s).
KERNEL_SECONDS_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)  # fmt: skip

#: Power-of-two bounds wide enough for both host seconds and virtual-clock
#: seconds (a virtual iteration defaults to 1 s, so queue/TTFT times land in
#: the 1..4096 range; host wall times land below 1).
SERVING_SECONDS_BUCKETS = tuple(float(2.0**e) for e in range(-10, 13))

#: Token-count bounds (prefill chunks, batch sizes).
TOKEN_BUCKETS = tuple(float(2.0**e) for e in range(0, 15))

#: Signed power-of-two bounds for SLO slack at finish: negative slack means
#: the deadline was missed by that much, so the histogram must resolve both
#: sides of zero.
SLACK_SECONDS_BUCKETS = (
    tuple(-float(2.0**e) for e in range(12, -3, -1))
    + (0.0,)
    + tuple(float(2.0**e) for e in range(-2, 13))
)


def _label_values(label_names: Tuple[str, ...], labels: Mapping[str, object]) -> Tuple[str, ...]:
    require(
        set(labels) == set(label_names),
        f"expected labels {label_names}, got {tuple(sorted(labels))}",
    )
    return tuple(str(labels[name]) for name in label_names)


class Counter:
    """Monotone counter; ``inc`` is O(1) under the family lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        require(amount >= 0, "counters are monotone; inc amount must be >= 0")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Settable level; also supports inc/dec for maintained counts."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram: O(log buckets) record, interpolated quantiles.

    ``bounds`` are strictly increasing upper bucket bounds; an implicit
    ``+Inf`` bucket catches everything beyond the last bound.  Quantiles are
    estimated by linear interpolation inside the selected bucket (the
    Prometheus ``histogram_quantile`` rule), so they are exact at bucket
    edges and monotone everywhere.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]) -> None:
        require(len(bounds) >= 1, "a histogram needs at least one bucket bound")
        require(
            all(lo < hi for lo, hi in zip(bounds, bounds[1:])),
            "histogram bounds must be strictly increasing",
        )
        self._lock = lock
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(bounds) + 1)  # last entry: +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    # -- accessors ------------------------------------------------------- #
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts (last entry is the +Inf bucket)."""
        with self._lock:
            return tuple(self._counts)

    def quantile(self, q: float) -> float:
        require(0.0 <= q <= 1.0, "quantile must lie in [0, 1]")
        with self._lock:
            counts, total = list(self._counts), self._count
        return _bucket_quantile(self.bounds, counts, total, q)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


def _bucket_quantile(
    bounds: Tuple[float, ...], counts: List[int], total: int, q: float
) -> float:
    """Interpolated quantile of a bucketed distribution (0.0 when empty)."""
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count > 0:
            if index == len(bounds):  # +Inf bucket: clamp to the last bound
                return bounds[-1]
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            within = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * min(max(within, 0.0), 1.0)
    return bounds[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, keyed by label values.

    ``labels(**kv)`` returns the child for those label values, creating it on
    first use; a family declared without labels owns a single default child
    and forwards ``inc``/``set``/``observe``/value accessors to it so
    unlabelled metrics read naturally (``registry.counter("x").inc()``).
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: "Dict[Tuple[str, ...], object]" = {}
        if not self.label_names:
            self._make_child(())

    def _make_child(self, values: Tuple[str, ...]):
        if self.kind == "histogram":
            child = Histogram(self._lock, self.buckets)
        else:
            child = _KINDS[self.kind](self._lock)
        self._children[values] = child
        return child

    def labels(self, **labels):
        values = _label_values(self.label_names, labels)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child(values)
        return child

    @property
    def _default(self):
        require(not self.label_names, f"metric {self.name} has labels; use .labels(...)")
        return self._children[()]

    # unlabelled convenience forwarding
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    def quantile(self, q: float) -> float:
        return self._default.quantile(q)

    @property
    def value(self) -> float:
        return self._default.value

    @property
    def count(self) -> int:
        return self._default.count

    @property
    def sum(self) -> float:
        return self._default.sum

    @property
    def mean(self) -> float:
        return self._default.mean

    def _samples(self) -> List["MetricSample"]:
        with self._lock:
            items = list(self._children.items())
            samples = []
            for values, child in items:
                labels = tuple(zip(self.label_names, values))
                if self.kind == "histogram":
                    samples.append(
                        MetricSample(
                            name=self.name,
                            kind=self.kind,
                            labels=labels,
                            value=child._sum,
                            count=child._count,
                            bounds=child.bounds,
                            counts=tuple(child._counts),
                        )
                    )
                else:
                    samples.append(
                        MetricSample(
                            name=self.name, kind=self.kind, labels=labels, value=child._value
                        )
                    )
        return samples


@dataclass(frozen=True)
class MetricSample:
    """One child's frozen state inside a :class:`MetricsSnapshot`."""

    name: str
    kind: str
    labels: Tuple[Tuple[str, str], ...]
    #: counter/gauge value; for histograms the sum of observations
    value: float
    count: Optional[int] = None
    bounds: Optional[Tuple[float, ...]] = None
    counts: Optional[Tuple[int, ...]] = None

    def quantile(self, q: float) -> float:
        require(self.kind == "histogram", "quantiles exist only for histograms")
        return _bucket_quantile(self.bounds, list(self.counts), self.count, q)

    @property
    def mean(self) -> float:
        require(self.kind == "histogram", "mean exists only for histograms")
        return self.value / self.count if self.count else 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time copy of a registry (safe to read forever)."""

    samples: Tuple[MetricSample, ...]
    helps: Tuple[Tuple[str, str], ...] = field(default=())

    def get(self, name: str, **labels) -> Optional[MetricSample]:
        wanted = tuple(sorted((k, str(v)) for k, v in labels.items()))
        for sample in self.samples:
            if sample.name == name and tuple(sorted(sample.labels)) == wanted:
                return sample
        return None

    def with_name(self, name: str) -> List[MetricSample]:
        return [sample for sample in self.samples if sample.name == name]

    def to_dict(self) -> dict:
        """JSON-ready schema the repro-ops CLI writes."""
        metrics = []
        for sample in self.samples:
            entry: dict = {
                "name": sample.name,
                "type": sample.kind,
                "labels": dict(sample.labels),
            }
            if sample.kind == "histogram":
                entry.update(
                    {
                        "count": sample.count,
                        "sum": sample.value,
                        "buckets": [
                            [bound, count]
                            for bound, count in zip(
                                list(sample.bounds) + ["+Inf"], sample.counts
                            )
                        ],
                        "p50": sample.quantile(0.50),
                        "p95": sample.quantile(0.95),
                        "p99": sample.quantile(0.99),
                    }
                )
            else:
                entry["value"] = sample.value
            metrics.append(entry)
        return {"metrics": metrics}

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one HELP/TYPE header per name)."""
        helps = dict(self.helps)
        lines: List[str] = []
        seen: set = set()
        for sample in self.samples:
            if sample.name not in seen:
                seen.add(sample.name)
                if helps.get(sample.name):
                    lines.append(f"# HELP {sample.name} {helps[sample.name]}")
                lines.append(f"# TYPE {sample.name} {sample.kind}")
            if sample.kind == "histogram":
                cumulative = 0
                bounds = [repr(float(b)) for b in sample.bounds] + ["+Inf"]
                for bound, count in zip(bounds, sample.counts):
                    cumulative += count
                    labels = sample.labels + (("le", bound),)
                    lines.append(f"{sample.name}_bucket{_fmt_labels(labels)} {cumulative}")
                lines.append(f"{sample.name}_sum{_fmt_labels(sample.labels)} {sample.value}")
                lines.append(f"{sample.name}_count{_fmt_labels(sample.labels)} {sample.count}")
            else:
                lines.append(f"{sample.name}{_fmt_labels(sample.labels)} {sample.value}")
        return "\n".join(lines) + "\n"


def _fmt_labels(labels: Iterable[Tuple[str, str]]) -> str:
    labels = tuple(labels)
    if not labels:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in labels)
    return "{" + inner + "}"


class MetricsRegistry:
    """Get-or-create home of every metric family; snapshot/export point.

    Families are created idempotently: asking for an existing name returns
    the existing family after checking that kind, label names and (for
    histograms) bucket bounds agree — a mismatch is a programming error and
    raises immediately rather than silently splitting a metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> MetricFamily:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, labels, buckets)
                self._families[name] = family
                return family
        require(family.kind == kind, f"metric {name} already registered as {family.kind}")
        require(
            family.label_names == labels,
            f"metric {name} registered with labels {family.label_names}, got {labels}",
        )
        if kind == "histogram":
            require(
                family.buckets == tuple(buckets),
                f"metric {name} registered with different buckets",
            )
        return family

    def counter(self, name: str, help: str = "", *, labels: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", *, labels: Tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        labels: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = SERVING_SECONDS_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labels, tuple(buckets))

    def names(self) -> List[str]:
        with self._lock:
            return list(self._families)

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of every family (each family copied under its lock)."""
        with self._lock:
            families = list(self._families.values())
        samples: List[MetricSample] = []
        helps: List[Tuple[str, str]] = []
        for family in families:
            helps.append((family.name, family.help))
            samples.extend(family._samples())
        return MetricsSnapshot(samples=tuple(samples), helps=tuple(helps))


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "KERNEL_SECONDS_BUCKETS",
    "MetricFamily",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SERVING_SECONDS_BUCKETS",
    "SLACK_SECONDS_BUCKETS",
    "TOKEN_BUCKETS",
]
