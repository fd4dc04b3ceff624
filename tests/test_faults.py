"""Tests for the deterministic fault-injection subsystem."""

import pytest

from repro.faults import (
    ComputeFault,
    CrashFault,
    FaultInjector,
    FaultSchedule,
    FaultTolerance,
    LinkFault,
    PARTITION_FLOOR_BPS,
    ZoneOutage,
    generate_schedule,
)
from repro.hivemind import HivemindRunConfig, PeerSpec, run_hivemind
from repro.network import Fabric, TransferAborted, build_topology
from repro.simulation import Environment

SITES = ["gc:us/0", "gc:us/1", "gc:eu/0", "gc:eu/1"]


def _zones(topology, sites):
    return {site: topology.get(site).zone for site in sites}


class TestScheduleValidation:
    def test_link_fault_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LinkFault(start_s=-1.0, duration_s=10.0, a="x", b="y")
        with pytest.raises(ValueError):
            LinkFault(start_s=0.0, duration_s=0.0, a="x", b="y")
        with pytest.raises(ValueError):
            LinkFault(start_s=0.0, duration_s=1.0, a="x", b="x")
        with pytest.raises(ValueError):
            LinkFault(start_s=0.0, duration_s=1.0, a="x", b="y",
                      bandwidth_factor=-0.5)

    def test_compute_fault_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ComputeFault(start_s=0.0, duration_s=1.0, site="x",
                         rate_factor=0.0)
        with pytest.raises(ValueError):
            ComputeFault(start_s=0.0, duration_s=1.0, site="x",
                         rate_factor=1.5)

    def test_partition_detection(self):
        fault = LinkFault(start_s=0.0, duration_s=1.0, a="x", b="y",
                          bandwidth_factor=0.0)
        assert fault.is_partition
        assert fault.end_s == 1.0

    def test_fault_tolerance_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            FaultTolerance(deadline_factor=0.0)
        with pytest.raises(ValueError):
            FaultTolerance(max_round_retries=-1)


class TestScheduleGeneration:
    def test_same_seed_same_schedule(self):
        a = generate_schedule(SITES, seed=5, intensity=1.0)
        b = generate_schedule(SITES, seed=5, intensity=1.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_schedule(SITES, seed=5, intensity=2.0)
        b = generate_schedule(SITES, seed=6, intensity=2.0)
        assert a != b

    def test_zero_intensity_is_empty(self):
        schedule = generate_schedule(SITES, seed=5, intensity=0.0)
        assert schedule.empty
        assert schedule.total_events == 0

    def test_intensity_scales_event_count(self):
        low = sum(
            generate_schedule(SITES, seed=s, intensity=0.5).total_events
            for s in range(10)
        )
        high = sum(
            generate_schedule(SITES, seed=s, intensity=4.0).total_events
            for s in range(10)
        )
        assert high > 2 * low

    def test_zone_outages_only_with_zone_map(self):
        without = generate_schedule(SITES, seed=1, intensity=4.0)
        assert without.zone_outages == ()
        topology = build_topology({"gc:us": 2, "gc:eu": 2})
        with_zones = [
            generate_schedule(SITES, seed=s, intensity=4.0,
                              zones=_zones(topology, SITES))
            for s in range(10)
        ]
        assert any(s.zone_outages for s in with_zones)

    def test_events_fit_horizon_and_name_known_sites(self):
        schedule = generate_schedule(SITES, seed=3, intensity=3.0,
                                     horizon_s=1000.0)
        for fault in (schedule.link_faults + schedule.compute_faults
                      + schedule.crash_faults):
            assert 0.0 <= fault.start_s <= 1000.0
        assert schedule.sites() <= set(SITES)

    def test_json_round_trip(self, tmp_path):
        topology = build_topology({"gc:us": 2, "gc:eu": 2})
        schedule = generate_schedule(SITES, seed=9, intensity=3.0,
                                     zones=_zones(topology, SITES))
        path = tmp_path / "faults.json"
        schedule.to_json(str(path))
        assert FaultSchedule.from_json(str(path)) == schedule

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"schema": "bogus/9"})


class TestInjectorLinks:
    def _setup(self, schedule):
        env = Environment()
        topology = build_topology({"gc:us": 1, "gc:eu": 1})
        fabric = Fabric(env, topology)
        injector = FaultInjector(env, topology, fabric=fabric,
                                 schedule=schedule)
        injector.start()
        return env, topology, injector

    def test_degradation_window_applies_and_reverts(self):
        base = build_topology({"gc:us": 1, "gc:eu": 1}).path(
            "gc:us/0", "gc:eu/0"
        )
        schedule = FaultSchedule(link_faults=(
            LinkFault(start_s=10.0, duration_s=20.0, a="gc:us/0",
                      b="gc:eu/0", bandwidth_factor=0.25, rtt_factor=2.0),
        ))
        env, topology, injector = self._setup(schedule)
        env.run(until=15.0)
        mid = topology.path("gc:us/0", "gc:eu/0")
        assert mid.capacity_bps == pytest.approx(0.25 * base.capacity_bps)
        assert mid.rtt_s == pytest.approx(2.0 * base.rtt_s)
        env.run(until=31.0)
        after = topology.path("gc:us/0", "gc:eu/0")
        assert after.capacity_bps == pytest.approx(base.capacity_bps)
        assert after.rtt_s == pytest.approx(base.rtt_s)
        assert injector.counts["link_degradation"] == 1

    def test_partition_floors_capacity(self):
        schedule = FaultSchedule(link_faults=(
            LinkFault(start_s=5.0, duration_s=10.0, a="gc:us/0",
                      b="gc:eu/0", bandwidth_factor=0.0),
        ))
        env, topology, injector = self._setup(schedule)
        env.run(until=6.0)
        assert (topology.path("gc:us/0", "gc:eu/0").capacity_bps
                == PARTITION_FLOOR_BPS)
        assert injector.counts["partition"] == 1

    def test_overlapping_windows_compose(self):
        base = build_topology({"gc:us": 1, "gc:eu": 1}).path(
            "gc:us/0", "gc:eu/0"
        )
        schedule = FaultSchedule(link_faults=(
            LinkFault(start_s=0.0, duration_s=30.0, a="gc:us/0",
                      b="gc:eu/0", bandwidth_factor=0.5),
            LinkFault(start_s=10.0, duration_s=10.0, a="gc:us/0",
                      b="gc:eu/0", bandwidth_factor=0.5),
        ))
        env, topology, __ = self._setup(schedule)
        env.run(until=15.0)
        assert topology.path("gc:us/0", "gc:eu/0").capacity_bps \
            == pytest.approx(0.25 * base.capacity_bps)
        env.run(until=25.0)
        assert topology.path("gc:us/0", "gc:eu/0").capacity_bps \
            == pytest.approx(0.5 * base.capacity_bps)

    def test_version_bump_invalidates_fabric_caches(self):
        schedule = FaultSchedule(link_faults=(
            LinkFault(start_s=5.0, duration_s=10.0, a="gc:us/0",
                      b="gc:eu/0", bandwidth_factor=0.1),
        ))
        env, topology, _ = self._setup(schedule)
        before = topology._version
        env.run(until=6.0)
        assert topology._version > before

    def test_unknown_site_rejected(self):
        env = Environment()
        topology = build_topology({"gc:us": 1})
        schedule = FaultSchedule(crash_faults=(
            CrashFault(start_s=1.0, site="nowhere/0"),
        ))
        with pytest.raises(ValueError):
            FaultInjector(env, topology, schedule=schedule)

    def test_unknown_zone_rejected(self):
        env = Environment()
        topology = build_topology({"gc:us": 1})
        schedule = FaultSchedule(zone_outages=(
            ZoneOutage(start_s=1.0, zone="atlantis-1"),
        ))
        with pytest.raises(ValueError):
            FaultInjector(env, topology, schedule=schedule)


class TestInjectorComputeAndCrashes:
    def test_compute_factor_composes_and_reverts(self):
        env = Environment()
        topology = build_topology({"gc:us": 1, "gc:eu": 1})
        schedule = FaultSchedule(compute_faults=(
            ComputeFault(start_s=0.0, duration_s=30.0, site="gc:us/0",
                         rate_factor=0.5),
            ComputeFault(start_s=10.0, duration_s=10.0, site="gc:us/0",
                         rate_factor=0.4),
        ))
        injector = FaultInjector(env, topology, schedule=schedule)
        injector.start()
        env.run(until=15.0)
        assert injector.compute_factor("gc:us/0") == pytest.approx(0.2)
        assert injector.compute_factor("gc:eu/0") == 1.0
        env.run(until=25.0)
        assert injector.compute_factor("gc:us/0") == pytest.approx(0.5)
        env.run(until=35.0)
        assert injector.compute_factor("gc:us/0") == 1.0
        assert injector.counts["straggler"] == 2

    def test_crash_and_zone_outage_fire_callback(self):
        env = Environment()
        topology = build_topology({"gc:us": 2, "gc:eu": 1})
        zone = topology.get("gc:us/0").zone
        schedule = FaultSchedule(
            crash_faults=(CrashFault(start_s=5.0, site="gc:eu/0"),),
            zone_outages=(ZoneOutage(start_s=10.0, zone=zone),),
        )
        injector = FaultInjector(env, topology, schedule=schedule)
        crashed = []
        injector.on_crash = crashed.append
        injector.start()
        env.run(until=20.0)
        assert crashed == ["gc:eu/0", "gc:us/0", "gc:us/1"]
        assert injector.counts["crash"] == 1
        assert injector.counts["zone_outage"] == 1


class TestFabricAbort:
    def test_abort_fails_event_and_meters_partial_bytes(self):
        env = Environment()
        topology = build_topology({"gc:us": 1, "gc:eu": 1})
        fabric = Fabric(env, topology)
        outcome = {}

        def proc():
            done = fabric.transfer("gc:us/0", "gc:eu/0", 500e6)
            try:
                yield done
                outcome["result"] = "completed"
            except TransferAborted as exc:
                outcome["result"] = "aborted"
                outcome["reason"] = exc.reason

        def killer():
            yield env.timeout(2.0)
            done = next(iter(fabric._flows))
            assert fabric.abort(done, reason="test-abort")

        env.process(proc())
        env.process(killer())
        env.run(until=100.0)
        assert outcome["result"] == "aborted"
        assert outcome["reason"] == "test-abort"
        assert fabric.aborted_flows == 1
        delivered = fabric.meter.total_bytes
        assert 0 < delivered < 500e6

    def test_abort_after_completion_is_noop(self):
        env = Environment()
        topology = build_topology({"gc:us": 2})
        fabric = Fabric(env, topology)
        events = []

        def proc():
            done = fabric.transfer("gc:us/0", "gc:us/1", 1e6)
            events.append(done)
            yield done

        env.process(proc())
        env.run(until=100.0)
        assert fabric.abort(events[0]) is False
        assert fabric.aborted_flows == 0


def _chaos_config(schedule, counts=None, epochs=2, **kwargs):
    counts = counts or {"gc:us": 1, "gc:eu": 1}
    topology = build_topology(counts)
    peers = [
        PeerSpec(f"{location}/{i}", "t4")
        for location, n in counts.items() for i in range(n)
    ]
    defaults = dict(
        model="rn18", peers=peers, topology=topology,
        target_batch_size=256, epochs=epochs, fault_schedule=schedule,
        monitor_interval_s=None, account_data_loading=False,
    )
    defaults.update(kwargs)
    return HivemindRunConfig(**defaults)


class TestChaosRuns:
    def test_partition_triggers_retry_then_degradation(self):
        """The acceptance scenario: a permanent partition between the
        only two peers makes rounds blow their deadline, retry with
        backoff, then degrade to a partial average."""
        schedule = FaultSchedule(link_faults=(
            LinkFault(start_s=5.0, duration_s=1e6, a="gc:us/0",
                      b="gc:eu/0", bandwidth_factor=0.0),
        ))
        result = run_hivemind(_chaos_config(schedule))
        assert result.fault_counts["partition"] == 1
        assert result.rounds_retried > 0
        assert result.degraded_epochs > 0
        assert result.transfers_aborted > 0
        assert any(e.rounds_retried > 0 for e in result.epochs)
        assert any(e.degraded for e in result.epochs)
        assert len(result.epochs) == result.config.epochs

    def test_identically_seeded_chaos_runs_are_identical(self):
        topology = build_topology({"gc:us": 2, "gc:eu": 2})
        sites = ["gc:us/0", "gc:us/1", "gc:eu/0", "gc:eu/1"]
        schedule = generate_schedule(sites, seed=0, intensity=2.0,
                                     horizon_s=450.0,
                                     zones=_zones(topology, sites))

        def fingerprint():
            result = run_hivemind(_chaos_config(
                schedule, counts={"gc:us": 2, "gc:eu": 2},
                target_batch_size=4096,
            ))
            return (
                repr(result.throughput_sps),
                repr(result.duration_s),
                [repr(e.wall_s) for e in result.epochs],
                result.fault_counts,
                result.rounds_retried,
                result.transfers_aborted,
                result.interruptions,
            )

        assert fingerprint() == fingerprint()

    def test_empty_schedule_matches_clean_run(self):
        clean = run_hivemind(_chaos_config(None))
        empty = run_hivemind(_chaos_config(FaultSchedule()))
        assert repr(clean.throughput_sps) == repr(empty.throughput_sps)
        assert repr(clean.duration_s) == repr(empty.duration_s)
        assert empty.fault_counts == {}

    def test_crash_fault_forces_rejoin_and_state_sync(self):
        schedule = FaultSchedule(crash_faults=(
            CrashFault(start_s=10.0, site="gc:eu/0"),
        ))
        result = run_hivemind(_chaos_config(
            schedule, counts={"gc:us": 2, "gc:eu": 1}, epochs=4,
            startup_s=5.0,
        ))
        assert result.interruptions == 1
        assert result.state_syncs >= 1
        assert result.fault_counts["crash"] == 1

    def test_straggler_slows_the_run(self):
        schedule = FaultSchedule(compute_faults=(
            ComputeFault(start_s=0.0, duration_s=1e6, site="gc:us/0",
                         rate_factor=0.25),
        ))
        clean = run_hivemind(_chaos_config(None))
        slowed = run_hivemind(_chaos_config(schedule))
        assert slowed.throughput_sps < clean.throughput_sps

    def test_fault_tolerance_without_schedule_is_benign(self):
        """An explicit policy with no faults must still converge (the
        resilient round path handles the clean case too)."""
        result = run_hivemind(_chaos_config(
            None, fault_tolerance=FaultTolerance(),
        ))
        assert result.rounds_retried == 0
        assert result.degraded_epochs == 0
        assert len(result.epochs) == 2


class TestResilienceExperiment:
    def test_run_chaos_returns_replayable_schedule(self):
        from repro.experiments import run_chaos

        r1, s1 = run_chaos("B-2", "rn18", epochs=2, intensity=1.0, seed=4,
                           target_batch_size=4096)
        r2, s2 = run_chaos("B-2", "rn18", epochs=2, seed=999, schedule=s1,
                           target_batch_size=4096)
        assert s1 == s2
        assert repr(r1.throughput_sps) == repr(r2.throughput_sps)

    def test_resilience_report_has_baseline_row(self):
        from repro.experiments import resilience_report

        report = resilience_report("B-2", "rn18", intensities=(2.0,),
                                   epochs=2, target_batch_size=4096)
        assert report.rows[0]["intensity"] == 0.0
        assert report.rows[0]["penalty_pct"] == 0.0
        assert len(report.rows) == 2
        assert {"sps", "retried", "degraded", "aborted"} <= set(
            report.rows[1]
        )
