"""Unit tests for the telemetry core: tracer, metrics, exporters."""

import json

import pytest

from repro.simulation import Environment, Interrupt
from repro.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_TELEMETRY,
    Telemetry,
    Tracer,
    current_telemetry,
    read_jsonl,
    resolve_telemetry,
    to_chrome_trace,
    to_jsonl,
    to_prometheus_text,
    use_telemetry,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


# -- tracer ----------------------------------------------------------------


def test_span_context_manager_records_sim_time():
    tel = Telemetry()
    env = Environment(telemetry=tel)

    def proc():
        yield env.timeout(3.0)
        with tel.span("work", category="calc", track="peer"):
            yield env.timeout(7.0)

    env.run(env.process(proc()))
    (span,) = tel.tracer.by_category("calc")
    assert span.start_s == 3.0
    assert span.end_s == 10.0
    assert span.duration_s == 7.0


def test_span_nesting_survives_yields():
    tel = Telemetry()
    env = Environment(telemetry=tel)

    def proc():
        with tel.span("outer", category="c", track="t"):
            yield env.timeout(1.0)
            with tel.span("inner", category="c", track="t"):
                yield env.timeout(2.0)
            yield env.timeout(4.0)

    env.run(env.process(proc()))
    outer, inner = tel.tracer.by_category("c")
    assert (outer.name, inner.name) == ("outer", "inner")
    assert outer.start_s == 0.0 and outer.end_s == 7.0
    # Inner fully contained in outer.
    assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s
    assert (inner.start_s, inner.end_s) == (1.0, 3.0)


def test_span_closed_at_interrupt_time():
    tel = Telemetry(capture_processes=True)
    env = Environment(telemetry=tel)

    def victim():
        try:
            with tel.span("long", category="c", track="t"):
                yield env.timeout(100.0)
        except Interrupt:
            yield env.timeout(1.0)

    def attacker(process):
        yield env.timeout(5.0)
        process.interrupt("stop")

    process = env.process(victim())
    env.process(attacker(process))
    env.run(process)
    (span,) = tel.tracer.by_category("c")
    # Interrupt unwinding closes the span at the interrupt time, not at
    # the timeout it was waiting for.
    assert span.end_s == 5.0
    assert tel.processes_interrupted == 1
    instants = [i for i in tel.tracer.instants if i.name == "interrupt"]
    assert len(instants) == 1 and instants[0].time_s == 5.0


def test_retrospective_add_span_and_tracks_order():
    tracer = Tracer()
    tracer.add_span("b", "cat", "track2", 1.0, 2.0)
    tracer.add_span("a", "cat", "track1", 0.0, 3.0, epoch=4)
    assert [t for __, t in tracer.tracks()] == ["track2", "track1"]
    assert [s for s in tracer.spans if s.track == "track1"][0].attrs == {"epoch": 4}


def test_stale_span_closes_at_its_runs_final_time():
    """Spans from an abandoned run must not leak into the next clock."""
    tracer = Tracer()
    clock_a = [0.0]
    tracer.bind_clock(lambda: clock_a[0])
    clock_a[0] = 50.0
    span = tracer.begin("orphan", "c", "t")
    clock_a[0] = 80.0
    # New environment binds; old run ended at t=80.
    clock_b = [0.0]
    tracer.bind_clock(lambda: clock_b[0])
    clock_b[0] = 2.0
    tracer.finish(span)
    assert span.end_s == 80.0
    assert span.run == 1


def test_seal_closes_open_spans_idempotently():
    tracer = Tracer()
    clock = [10.0]
    tracer.bind_clock(lambda: clock[0])
    span = tracer.begin("open", "c", "t")
    clock[0] = 25.0
    assert tracer.seal() == 1
    assert span.end_s == 25.0
    assert tracer.seal() == 0


# -- kernel hooks ----------------------------------------------------------


def test_environment_kernel_hooks_count_processes():
    tel = Telemetry(capture_processes=True)
    env = Environment(telemetry=tel)

    def ok():
        yield env.timeout(1.0)

    def boom():
        yield env.timeout(2.0)
        raise RuntimeError("dead")

    env.process(ok())
    failing = env.process(boom())
    with pytest.raises(RuntimeError):
        env.run(failing)
    assert tel.processes_spawned == 2
    assert tel.processes_finished == 2
    assert tel.processes_failed == 1
    assert tel.events_scheduled > 0
    process_spans = [s for s in tel.tracer.spans if s.track == "sim:processes"]
    assert len(process_spans) == 2
    assert sorted(s.attrs["ok"] for s in process_spans) == [False, True]
    tel.sync_kernel_metrics()
    assert tel.metrics.get("sim_processes_failed").value() == 1


def test_environment_without_telemetry_has_none():
    env = Environment()
    assert env.telemetry is None


# -- metrics ---------------------------------------------------------------


def test_counter_rejects_negative_and_labels():
    counter = Counter("c")
    counter.inc(2.0, site="a")
    counter.inc(3.0, site="b")
    counter.inc()
    with pytest.raises(ValueError):
        counter.inc(-1.0)
    assert counter.value(site="a") == 2.0
    assert counter.total == 6.0


def test_histogram_bucket_edges_are_le_inclusive():
    hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
    for value in (0.5, 1.0, 1.00001, 5.0, 10.0, 11.0):
        hist.observe(value)
    # value == bound lands in that bound's bucket (Prometheus le).
    assert hist.series().bucket_counts == [2, 2, 1, 1]
    assert hist.count() == 6
    assert hist.sum() == pytest.approx(28.50001)


def test_histogram_default_buckets_sorted_unique():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
    with pytest.raises(ValueError):
        Histogram("dup", buckets=(1.0, 1.0))


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    assert registry.counter("x") is registry.get("x")
    assert "x" in registry and len(registry) == 1


def test_gauge_set_max_keeps_high_water():
    registry = MetricsRegistry()
    gauge = registry.gauge("g")
    gauge.set_max(5.0)
    gauge.set_max(3.0)
    assert gauge.value() == 5.0


# -- null telemetry --------------------------------------------------------


def test_null_telemetry_is_inert():
    tel = NULL_TELEMETRY
    assert tel.enabled is False
    with tel.span("x", category="c", track="t") as span:
        assert span.attrs == {}
    tel.counter("c").inc(5.0)
    assert tel.counter("c").value() == 0.0
    assert tel.metrics.collect() == []
    # The shared span context is a singleton: zero allocation per span.
    assert tel.span("a") is tel.span("b")


def test_resolve_telemetry_prefers_explicit_then_ambient():
    explicit = Telemetry()
    ambient = Telemetry()
    assert resolve_telemetry(None) is NULL_TELEMETRY
    with use_telemetry(ambient):
        assert current_telemetry() is ambient
        assert resolve_telemetry(None) is ambient
        assert resolve_telemetry(explicit) is explicit
    assert current_telemetry() is None


# -- exporters -------------------------------------------------------------


def _sample_telemetry() -> Telemetry:
    tel = Telemetry()
    env = Environment(telemetry=tel)

    def proc():
        with tel.span("work", category="calc", track="peer", epoch=0):
            yield env.timeout(2.5)
        tel.instant("marker", category="spot", track="peer", slot=1)

    env.run(env.process(proc()))
    tel.counter("things_total", "Things").inc(3, kind="a")
    tel.histogram("latency_seconds", "Latency").observe(0.05)
    return tel


def test_chrome_trace_valid_and_loadable():
    document = to_chrome_trace(_sample_telemetry())
    assert validate_chrome_trace(document) == []
    events = document["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    names = {e["name"] for e in spans}
    assert "work" in names
    work = next(e for e in spans if e["name"] == "work")
    assert work["ts"] == 0 and work["dur"] == 2_500_000  # microseconds
    assert any(e["ph"] == "i" and e["name"] == "marker" for e in events)
    threads = [e for e in events
               if e["ph"] == "M" and e["name"] == "thread_name"]
    assert {e["args"]["name"] for e in threads} >= {"peer"}


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace({}) != []
    bad = {"traceEvents": [
        {"ph": "X", "name": "n", "pid": 0, "tid": 0, "ts": 0, "dur": -1},
        {"ph": "??", "name": "n", "pid": 0, "tid": 0, "ts": 0},
    ]}
    problems = validate_chrome_trace(bad)
    assert any("dur" in p for p in problems)
    assert any("ph" in p for p in problems)


def test_write_chrome_trace_round_trips_as_json(tmp_path):
    path = write_chrome_trace(_sample_telemetry(), tmp_path / "t.json")
    document = json.loads(path.read_text())
    assert validate_chrome_trace(document) == []


def test_jsonl_round_trip_preserves_spans(tmp_path):
    tel = _sample_telemetry()
    path = write_jsonl(tel, tmp_path / "events.jsonl")
    reloaded = read_jsonl(path)
    assert len(reloaded.spans) == len(tel.tracer.spans)
    for original, copy in zip(tel.tracer.spans, reloaded.spans):
        assert (original.name, original.category, original.track,
                original.start_s, original.end_s, original.run,
                original.attrs) == (
            copy.name, copy.category, copy.track,
            copy.start_s, copy.end_s, copy.run, copy.attrs)
    assert len(reloaded.instants) == len(tel.tracer.instants)
    # Re-serializing the reloaded tracer is byte-identical.
    assert to_jsonl(reloaded) == path.read_text()


def test_prometheus_text_format():
    text = to_prometheus_text(_sample_telemetry())
    assert '# TYPE things_total counter' in text
    assert 'things_total{kind="a"} 3' in text
    assert '# TYPE latency_seconds histogram' in text
    assert 'latency_seconds_bucket{le="0.05"} 1' in text
    assert 'latency_seconds_bucket{le="+Inf"} 1' in text
    assert 'latency_seconds_sum 0.05' in text
    assert 'latency_seconds_count 1' in text
    # sync_kernel_metrics ran: kernel gauges are present.
    assert "sim_processes_spawned" in text
