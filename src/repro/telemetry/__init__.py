"""Simulation-wide telemetry: span tracing, metrics, exportable timelines.

The measurement substrate for every performance question the paper
asks: where does a hivemind epoch spend its time (calculation vs
matchmaking vs transfer), per peer, per epoch, on a real timeline —
not just as end-of-run aggregates.

* :mod:`repro.telemetry.tracer` — sim-time :class:`Span` tracing,
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms,
* :mod:`repro.telemetry.sink` — the :class:`Telemetry` facade, the
  kernel-hook protocol and the zero-overhead :data:`NULL_TELEMETRY`,
* :mod:`repro.telemetry.export` — Chrome ``trace_event`` JSON (open in
  Perfetto), JSONL event logs, Prometheus text dumps.

Everything is timestamped with simulated seconds only, so traces are
byte-identical across identically-seeded runs.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    export=(
        "chrome_trace_events",
        "read_jsonl",
        "to_chrome_trace",
        "to_jsonl",
        "to_prometheus_text",
        "validate_chrome_trace",
        "write_chrome_trace",
        "write_jsonl",
        "write_prometheus",
    ),
    metrics=("DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    sink=(
        "NULL_TELEMETRY",
        "NullTelemetry",
        "Telemetry",
        "current_telemetry",
        "resolve_telemetry",
        "use_telemetry",
    ),
    tracer=("Span", "Tracer"),
)
