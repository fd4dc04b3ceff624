"""A small metrics registry: counters, gauges, fixed-bucket histograms.

Modeled after the Prometheus client data model but synchronous and
allocation-light: one dict lookup per update, label sets normalized to
sorted tuples. Values are exported with
:func:`repro.telemetry.export.to_prometheus_text`.

Bucket semantics follow Prometheus exactly: a histogram bucket with
upper bound ``le`` counts every observation ``value <= le``, buckets
are cumulative in the text exposition, and ``+Inf`` equals ``_count``.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets in simulated seconds: wide enough for both
#: sub-second DHT RPCs and multi-hour averaging stalls.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 300.0, 600.0, 1800.0, 3600.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    if len(labels) == 1:  # the common hot-path shapes; skip the sort
        ((k, v),) = labels.items()
        return ((k, str(v)),)
    if len(labels) == 2:
        (k1, v1), (k2, v2) = labels.items()
        first, second = (k1, str(v1)), (k2, str(v2))
        return (first, second) if k1 <= k2 else (second, first)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def label_keys(self) -> list[LabelKey]:
        raise NotImplementedError


class _CounterChild:
    """A counter bound to one label set; skips label-key computation.

    The Prometheus-client ``labels()`` idiom: hot call sites resolve
    their label values once and keep the child. The child accumulates
    into its own float cell (a single attribute add per ``inc``); the
    parent folds child cells in at read time.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Counter(_Metric):
    """Monotonically increasing value, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}
        self._children: dict[LabelKey, _CounterChild] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def labels(self, **labels: object) -> _CounterChild:
        """Bind a label set once; the child's ``inc`` is label-free.

        Children are shared per label set, so two call sites binding
        the same labels accumulate into the same cell.
        """
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _CounterChild()
        return child

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        child = self._children.get(key)
        base = self._values.get(key, 0.0)
        return base + child.value if child is not None else base

    @property
    def total(self) -> float:
        return (sum(self._values.values())
                + sum(child.value for child in self._children.values()))

    def label_keys(self) -> list[LabelKey]:
        return sorted(set(self._values) | set(self._children))

    def samples(self) -> list[tuple[LabelKey, float]]:
        """(label key, merged value) pairs in exposition order."""
        out = []
        for key in self.label_keys():
            child = self._children.get(key)
            value = self._values.get(key, 0.0)
            if child is not None:
                value += child.value
            out.append((key, value))
        return out


class Gauge(_Metric):
    """A value that can go up and down (or track a high-water mark)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels: object) -> None:
        """Keep the maximum of the current and the new value."""
        key = _label_key(labels)
        current = self._values.get(key)
        if current is None or value > current:
            self._values[key] = float(value)

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def label_keys(self) -> list[LabelKey]:
        return sorted(self._values)

    def samples(self) -> list[tuple[LabelKey, float]]:
        """(label key, value) pairs in exposition order."""
        return [(key, self._values[key]) for key in self.label_keys()]


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0


class _HistogramChild:
    """A histogram series bound to one label set (see ``_CounterChild``)."""

    __slots__ = ("_series", "_buckets")

    def __init__(self, series: _HistogramSeries, buckets: tuple[float, ...]):
        self._series = series
        self._buckets = buckets

    def observe(self, value: float) -> None:
        series = self._series
        series.bucket_counts[bisect.bisect_left(self._buckets, value)] += 1
        series.sum += value
        series.count += 1


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus ``le`` semantics."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate bucket bounds")
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        # First bound >= value; bisect_left puts a value equal to a bound
        # *into* that bound's bucket (le is inclusive).
        series.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def labels(self, **labels: object) -> _HistogramChild:
        """Bind a label set once; the child's ``observe`` is label-free."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        return _HistogramChild(series, self.buckets)

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def series(self, **labels: object) -> Optional[_HistogramSeries]:
        return self._series.get(_label_key(labels))

    def label_keys(self) -> list[LabelKey]:
        return sorted(self._series)


class MetricsRegistry:
    """Get-or-create home for every metric of one telemetry session."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def collect(self) -> list[_Metric]:
        """All metrics sorted by name (the exposition order)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)
