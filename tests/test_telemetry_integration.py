"""Telemetry wired through full runs: determinism, spans, breakdowns."""

import json

import pytest

from repro.experiments import epoch_breakdown, run_experiment
from repro.experiments.runner import ExperimentResult
from repro.hivemind import (
    HivemindRunConfig,
    PeerSpec,
    run_hivemind,
)
from repro.hivemind.monitor import MonitorSample, TrainingMonitor
from repro.network import build_topology
from repro.telemetry import (
    Telemetry,
    to_chrome_trace,
    use_telemetry,
    validate_chrome_trace,
)


def make_config(counts=None, epochs=2, **kwargs):
    counts = counts or {"gc:us": 2}
    topology = build_topology(counts)
    peers = [
        PeerSpec(f"{location}/{i}", "t4")
        for location, n in counts.items()
        for i in range(n)
    ]
    defaults = dict(monitor_interval_s=None, account_data_loading=False)
    defaults.update(kwargs)
    return HivemindRunConfig(
        model="conv", peers=peers, topology=topology,
        target_batch_size=32768, epochs=epochs, **defaults
    )


def traced_run(**kwargs):
    tel = Telemetry()
    result = run_hivemind(make_config(telemetry=tel, **kwargs))
    return tel, result


class TestTracedRun:
    def test_per_peer_tracks_have_all_three_phases(self):
        tel, result = traced_run(counts={"gc:us": 2, "gc:eu": 2})
        for peer in result.config.peers:
            categories = {
                s.category for s in tel.tracer.spans if s.track == peer.site
            }
            assert {"calc", "matchmaking", "transfer"} <= categories, (
                peer.site, categories
            )

    def test_epoch_spans_match_epoch_stats(self):
        tel, result = traced_run()
        site = result.config.peers[0].site
        calc_spans = [s for s in tel.tracer.spans
                      if s.track == site and s.category == "calc"]
        assert len(calc_spans) == len(result.epochs)
        for span, stats in zip(calc_spans, result.epochs):
            assert span.attrs["epoch"] == stats.index
            assert span.duration_s == pytest.approx(stats.calc_s)

    def test_transfer_metrics_recorded(self):
        tel, __ = traced_run()
        bytes_counter = tel.metrics.get("transfer_bytes_total")
        assert bytes_counter is not None and bytes_counter.total > 0
        assert tel.metrics.get("matchmaking_rounds_total").total == 2
        assert tel.metrics.get("averaging_rounds_total").total == 2
        assert tel.metrics.get("dht_ops_total").total > 0

    def test_kernel_gauges_synced(self):
        tel, __ = traced_run()
        assert tel.metrics.get("sim_events_scheduled").value() > 0
        assert tel.metrics.get("sim_processes_spawned").value() > 0

    def test_result_carries_telemetry_handle(self):
        tel, result = traced_run()
        assert result.telemetry is tel
        untraced = run_hivemind(make_config())
        assert untraced.telemetry is None

    def test_trace_bytes_identical_across_seeded_runs(self):
        def trace_bytes():
            tel, __ = traced_run(counts={"gc:us": 2, "gc:eu": 1},
                                 monitor_interval_s=50.0)
            document = to_chrome_trace(tel)
            assert validate_chrome_trace(document) == []
            return json.dumps(document, sort_keys=True,
                              separators=(",", ":"))

        assert trace_bytes() == trace_bytes()

    def test_untraced_run_results_unchanged_by_tracing(self):
        plain = run_hivemind(make_config())
        tel, traced = traced_run()
        assert traced.duration_s == plain.duration_s
        assert traced.total_samples == plain.total_samples
        assert [e.wall_s for e in traced.epochs] == [
            e.wall_s for e in plain.epochs
        ]


class TestAmbientWiring:
    def test_run_experiment_picks_up_ambient_sink(self):
        tel = Telemetry()
        with use_telemetry(tel):
            result = run_experiment("A-2", "conv", epochs=2,
                                    monitor_interval_s=None,
                                    account_data_loading=False)
        assert result.telemetry is tel
        assert tel.tracer.spans


class TestEpochBreakdown:
    def test_breakdown_table_from_spans(self):
        tel, result = traced_run()
        table = epoch_breakdown(tel)
        assert table.startswith("|")
        # One row per epoch plus header and separator.
        assert len(table.splitlines()) == 2 + len(result.epochs)
        assert "calc_s" in table and "transfer_s" in table

    def test_breakdown_without_spans(self):
        assert "no per-epoch spans" in epoch_breakdown(Telemetry())


class TestMonitorGaps:
    @staticmethod
    def monitor_with(samples):
        monitor = TrainingMonitor.__new__(TrainingMonitor)
        monitor.samples = [
            MonitorSample(time_s=t, epoch=None, live_peers=None,
                          total_samples=total)
            for t, total in samples
        ]
        return monitor

    def test_no_gaps_with_steady_progress(self):
        monitor = self.monitor_with([(1, 10), (2, 20), (3, 30)])
        assert monitor.gaps() == []

    def test_stalled_intervals_merge(self):
        monitor = self.monitor_with(
            [(1, 10), (2, 10), (3, 10), (4, 40), (5, 40)]
        )
        assert monitor.gaps() == [(1, 3), (4, 5)]

    def test_missing_key_counts_as_stall_and_min_gap_filters(self):
        monitor = self.monitor_with([(1, 10), (2, None), (3, 30)])
        assert monitor.gaps() == [(1, 2)]
        assert monitor.gaps(min_gap_s=5.0) == []


class TestRunnerRow:
    def test_zero_speedup_not_dropped(self):
        result = ExperimentResult(
            key="x", model="conv", target_batch_size=1, num_gpus=1,
            throughput_sps=0.0, local_throughput_sps=0.0,
            granularity=1.0, calc_s=1.0, matchmaking_s=1.0,
            transfer_s=1.0, hourly_cost_usd=1.0,
            usd_per_million_samples=1.0, baseline_sps=10.0,
        )
        assert result.speedup == 0.0
        assert result.row()["speedup"] == 0.0

    def test_missing_baseline_still_none(self):
        result = ExperimentResult(
            key="x", model="conv", target_batch_size=1, num_gpus=1,
            throughput_sps=5.0, local_throughput_sps=5.0,
            granularity=1.0, calc_s=1.0, matchmaking_s=1.0,
            transfer_s=1.0, hourly_cost_usd=1.0,
            usd_per_million_samples=1.0, baseline_sps=None,
        )
        assert result.row()["speedup"] is None
        assert result.telemetry is None
