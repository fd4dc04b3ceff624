"""Integration tests for full simulated Hivemind training runs."""

import gc
import math
import weakref
from operator import itemgetter

import numpy as np
import pytest

from repro.cloud import InterruptionModel
from repro.experiments.configs import build_run_config
from repro.experiments.resilience import chaos_schedule_for
from repro.hivemind import (
    HivemindRunConfig,
    PeerSpec,
    run_hivemind,
)
from repro.network import build_topology
from repro.network.fabric import sum_traffic


def _averaging_bytes(result):
    """Bytes the run's ``tag="averaging"`` flows delivered."""
    return sum_traffic(result.traffic, itemgetter(2)).get("averaging", 0.0)


def make_config(model="conv", counts=None, gpu="t4", tbs=32768, epochs=3,
                **kwargs):
    counts = counts or {"gc:us": 2}
    topology = build_topology(counts)
    peers = []
    for location, n in counts.items():
        for i in range(n):
            peers.append(PeerSpec(f"{location}/{i}", gpu))
    defaults = dict(monitor_interval_s=None, account_data_loading=False)
    defaults.update(kwargs)
    return HivemindRunConfig(
        model=model, peers=peers, topology=topology,
        target_batch_size=tbs, epochs=epochs, **defaults
    )


class TestConfigValidation:
    def test_requires_peers(self):
        topology = build_topology({"gc:us": 1})
        with pytest.raises(ValueError):
            HivemindRunConfig(model="conv", peers=[], topology=topology)

    def test_requires_positive_tbs_and_epochs(self):
        topology = build_topology({"gc:us": 1})
        peer = [PeerSpec("gc:us/0", "t4")]
        with pytest.raises(ValueError):
            HivemindRunConfig(model="conv", peers=peer, topology=topology,
                              target_batch_size=0)
        with pytest.raises(ValueError):
            HivemindRunConfig(model="conv", peers=peer, topology=topology,
                              epochs=0)


class TestBasicRun:
    def test_epochs_and_samples_accounted(self):
        result = run_hivemind(make_config(epochs=3))
        assert len(result.epochs) == 3
        assert result.total_samples == pytest.approx(3 * 32768, rel=0.01)
        assert result.duration_s > 0

    def test_throughput_near_paper_a2(self):
        """A-2 intra-zone CV: paper measures 70.1 SPS."""
        result = run_hivemind(make_config())
        assert result.throughput_sps == pytest.approx(70.1, rel=0.15)

    def test_epoch_breakdown_is_consistent(self):
        result = run_hivemind(make_config())
        for epoch in result.epochs:
            assert epoch.calc_s > 0
            assert epoch.matchmaking_s >= 5.0
            assert epoch.transfer_s > 0
            assert epoch.wall_s == pytest.approx(
                epoch.calc_s + epoch.matchmaking_s + epoch.transfer_s, rel=0.01
            )

    def test_granularity_positive_and_matches_definition(self):
        result = run_hivemind(make_config())
        assert result.granularity == pytest.approx(
            result.calc_time_s / result.comm_time_s
        )

    def test_local_throughput_exceeds_global(self):
        """Hivemind global <= hivemind local (Figure 2)."""
        result = run_hivemind(make_config())
        assert result.local_throughput_sps > result.throughput_sps

    def test_deterministic_given_seed(self):
        a = run_hivemind(make_config(seed=7))
        b = run_hivemind(make_config(seed=7))
        assert a.throughput_sps == b.throughput_sps
        assert a.duration_s == b.duration_s


class TestScalingShape:
    def test_more_gpus_more_throughput(self):
        two = run_hivemind(make_config(counts={"gc:us": 2}))
        eight = run_hivemind(make_config(counts={"gc:us": 8}))
        assert eight.throughput_sps > 2.5 * two.throughput_sps

    def test_granularity_falls_with_more_gpus(self):
        """Figure 6: per-GPU speedup decreases because granularity does."""
        two = run_hivemind(make_config(counts={"gc:us": 2}))
        eight = run_hivemind(make_config(counts={"gc:us": 8}))
        assert eight.granularity < two.granularity

    def test_nlp_suffers_more_from_geo_distribution_than_cv(self):
        """Section 4: C experiments hit NLP much harder than CV."""
        geo = {"gc:us": 2, "gc:eu": 2, "gc:asia": 2, "gc:aus": 2}
        local = {"gc:us": 8}
        cv_local = run_hivemind(make_config("conv", local))
        cv_geo = run_hivemind(make_config("conv", geo))
        nlp_local = run_hivemind(make_config("rxlm", local))
        nlp_geo = run_hivemind(make_config("rxlm", geo))
        cv_drop = 1 - cv_geo.throughput_sps / cv_local.throughput_sps
        nlp_drop = 1 - nlp_geo.throughput_sps / nlp_local.throughput_sps
        assert cv_drop < 0.25
        assert nlp_drop > 0.30
        assert nlp_geo.granularity < 1.0 < cv_geo.granularity

    def test_doubling_tbs_roughly_doubles_granularity(self):
        """Figure 4: communication stays constant, calculation doubles."""
        small = run_hivemind(make_config(tbs=16384))
        large = run_hivemind(make_config(tbs=32768))
        assert large.granularity == pytest.approx(2 * small.granularity,
                                                  rel=0.15)


class TestDataLoading:
    def test_data_bills_accumulate(self):
        result = run_hivemind(make_config(account_data_loading=True))
        assert len(result.data_ingress_bytes_by_site) == 2
        assert all(v > 0 for v in result.data_ingress_bytes_by_site.values())

    def test_cv_ingress_rate_near_paper(self):
        """Paper: ~33 Mb/s ingress while training CV (A experiments)."""
        result = run_hivemind(make_config(account_data_loading=True))
        per_site = np.mean(list(result.data_ingress_bytes_by_site.values()))
        rate_bps = per_site * 8 / result.duration_s
        assert 15e6 < rate_bps < 50e6


class TestMonitorAndDht:
    def test_monitor_scrapes_progress(self):
        result = run_hivemind(make_config(monitor_interval_s=20.0))
        assert result.monitor_samples > 5


class TestEgressAccounting:
    def test_egress_by_class_local_run(self):
        result = run_hivemind(make_config(counts={"gc:us": 2}))
        assert set(result.egress_bytes_by_class) == {"intra-zone"}

    def test_egress_by_class_geo_run(self):
        result = run_hivemind(
            make_config(counts={"gc:us": 1, "gc:eu": 1, "gc:aus": 1})
        )
        assert "any-oce" in result.egress_bytes_by_class
        assert "between-continents" in result.egress_bytes_by_class

    def test_averaging_bytes_count_only_averaging_flows(self):
        result = run_hivemind(build_run_config("B-8", "conv", epochs=3))
        assert sum_traffic(result.traffic, itemgetter(2)) == {
            "averaging": 16_615_200_000.0, "dht": 49_152.0}
        # Billing still covers every byte the fabric metered.
        assert sum(result.egress_bytes_by_pair.values()) == 16_615_249_152.0

    def test_tags_add_up_to_the_metered_total_under_faults(self):
        schedule = chaos_schedule_for("B-8", seed=1, intensity=4,
                                      horizon_s=1800)
        result = run_hivemind(build_run_config(
            "B-8", "conv", epochs=8, fault_schedule=schedule))
        assert result.transfers_aborted > 0 and result.state_syncs > 0
        by_tag = sum_traffic(result.traffic, itemgetter(2))
        assert set(by_tag) == {"averaging", "dht", "sync"}
        # Same bytes, summed in a different order.
        assert math.isclose(sum(by_tag.values()),
                            sum(result.egress_bytes_by_pair.values()),
                            rel_tol=1e-12)

    def test_egress_scales_with_model_size(self):
        """Figure 12: small models have lower egress rates."""
        small = run_hivemind(make_config("rn18", {"gc:us": 2}))
        large = run_hivemind(make_config("conv", {"gc:us": 2}))
        assert (small.average_egress_rate_bps()
                < large.average_egress_rate_bps())


class TestInterruptions:
    def test_interruptions_reduce_throughput(self):
        stable = run_hivemind(make_config(counts={"gc:us": 4}, epochs=4))
        flaky = run_hivemind(
            make_config(
                counts={"gc:us": 4}, epochs=4,
                interruption_model=InterruptionModel(monthly_rate=0.9999,
                                                     diurnal_amplitude=1.0),
                startup_s=900.0,
            )
        )
        assert flaky.throughput_sps <= stable.throughput_sps

    def test_interruption_counter_reported(self):
        result = run_hivemind(
            make_config(
                counts={"gc:us": 4}, epochs=4,
                interruption_model=InterruptionModel(monthly_rate=0.0),
            )
        )
        assert result.interruptions == 0


class TestOverlapAblation:
    def test_overlap_hides_transfer_time(self):
        """With DPU-style overlap the epoch wall time shrinks for
        communication-heavy settings."""
        plain = run_hivemind(make_config("rxlm", {"gc:us": 8}, epochs=4))
        overlapped = run_hivemind(
            make_config("rxlm", {"gc:us": 8}, epochs=4,
                        overlap_communication=True)
        )
        assert overlapped.duration_s < plain.duration_s


class TestStateSync:
    def test_rejoin_path_is_deterministic_under_crash_faults(self):
        """Section 7 rejoin flow, pinned by a scheduled crash instead of
        a sampled interruption: the peer leaves the synced set, the
        replacement downloads state from the nearest donor, and
        state_syncs increments — identically on every run."""
        from repro.faults import CrashFault, FaultSchedule

        schedule = FaultSchedule(
            crash_faults=(CrashFault(start_s=40.0, site="gc:us/3"),)
        )

        def run():
            return run_hivemind(make_config(
                counts={"gc:us": 4}, epochs=4, startup_s=10.0,
                fault_schedule=schedule,
            ))

        first, second = run(), run()
        assert first.interruptions == 1
        assert first.state_syncs == 1
        assert first.fault_counts["crash"] == 1
        assert _averaging_bytes(first) > 0
        assert repr(first.throughput_sps) == repr(second.throughput_sps)
        assert repr(first.duration_s) == repr(second.duration_s)

    def test_training_resumes_after_every_peer_crashes(self):
        """When no peer is live the gradient loop parks on the fleet
        rejoin event (not a poll) and resumes once replacements boot."""
        from repro.faults import CrashFault, FaultSchedule

        schedule = FaultSchedule(crash_faults=(
            CrashFault(start_s=20.0, site="gc:us/0"),
            CrashFault(start_s=20.0, site="gc:us/1"),
        ))
        result = run_hivemind(make_config(
            counts={"gc:us": 2}, epochs=3, startup_s=30.0,
            fault_schedule=schedule,
        ))
        assert result.interruptions == 2
        assert len(result.epochs) == 3
        assert result.total_samples == pytest.approx(3 * 32768, rel=0.02)
        # The dead window (both peers down for startup_s) shows up in
        # the wall clock, so the outage was actually survived, not
        # skipped.
        clean = run_hivemind(make_config(counts={"gc:us": 2}, epochs=3))
        assert result.duration_s > clean.duration_s + 25.0

    def test_rejoining_peer_downloads_state(self):
        """Section 7: a replacement peer must synchronize the training
        state with a live peer before contributing again."""
        result = run_hivemind(
            make_config(
                counts={"gc:us": 4}, epochs=6,
                interruption_model=InterruptionModel(monthly_rate=0.9999,
                                                     diurnal_amplitude=1.0),
                startup_s=60.0,
            )
        )
        if result.interruptions > 0:
            assert result.state_syncs >= 1
            # State transfers show up in the traffic meter too.
            assert _averaging_bytes(result) > 0

    def test_no_syncs_without_interruptions(self):
        result = run_hivemind(make_config(counts={"gc:us": 2}, epochs=2))
        assert result.state_syncs == 0


class TestMetricsTimeline:
    def test_metrics_sampled_at_interval(self):
        result = run_hivemind(make_config(counts={"gc:us": 2}, epochs=3,
                                          metrics_interval_s=30.0))
        assert len(result.metrics) >= 5
        times = [m.time_s for m in result.metrics]
        assert times == sorted(times)

    def test_metrics_monotone_progress(self):
        result = run_hivemind(make_config(counts={"gc:us": 2}, epochs=3,
                                          metrics_interval_s=30.0))
        egress = [m.egress_bytes_total for m in result.metrics]
        applied = [m.samples_applied for m in result.metrics]
        assert all(b >= a for a, b in zip(egress, egress[1:]))
        assert all(b >= a for a, b in zip(applied, applied[1:]))
        assert result.metrics[-1].epochs_done >= 2
        assert all(m.live_peers == 2 for m in result.metrics)

    def test_metrics_off_by_default(self):
        result = run_hivemind(make_config(epochs=2))
        assert result.metrics == []


class TestDataBottleneck:
    def test_slow_data_link_caps_throughput(self):
        """When the store link cannot feed the GPU, the effective local
        rate drops to the link's sample rate."""
        from functools import partial
        from unittest.mock import patch

        from repro.data.storage import StoreLink

        fast = run_hivemind(make_config("rn18", {"lambda:us-west": 2},
                                        gpu="a10",
                                        account_data_loading=True))
        # ~57 samples/s of ImageNet.
        throttled = partial(StoreLink, link_capacity_bps=50e6)
        with patch("repro.hivemind.run.StoreLink", throttled):
            slow = run_hivemind(make_config("rn18", {"lambda:us-west": 2},
                                            gpu="a10",
                                            account_data_loading=True))
        assert slow.throughput_sps < 0.5 * fast.throughput_sps

    def test_overlap_records_transfer_in_middle_epochs(self):
        plain = run_hivemind(make_config("rxlm", {"gc:us": 4}, epochs=4))
        result = run_hivemind(make_config("rxlm", {"gc:us": 4}, epochs=4,
                                          overlap_communication=True))
        # Every overlapped round lands on the epoch that launched it, so
        # each epoch records the same transfer time as a plain epoch;
        # total samples are still fully applied.
        assert result.epochs[-1].transfer_s > 0
        for overlapped, reference in zip(result.epochs, plain.epochs):
            assert overlapped.transfer_s == pytest.approx(
                reference.transfer_s
            )
        assert result.granularity == pytest.approx(plain.granularity)
        assert result.total_samples == pytest.approx(4 * 32768, rel=0.02)


class TestRunTeardown:
    def test_finished_run_frees_its_routes_without_the_collector(
            self, monkeypatch):
        from repro.network import Fabric

        channel_states = []
        close = Fabric.close

        def close_and_watch(fabric):
            channel_states.extend(
                weakref.ref(state) for rid, state in fabric._states.items()
                if rid.startswith("channel:avg-out:"))
            close(fabric)

        monkeypatch.setattr(Fabric, "close", close_and_watch)
        config = make_config(counts={"gc:us": 2, "gc:eu": 2}, epochs=2)
        gc.collect()
        gc.disable()
        try:
            run_hivemind(config)
            assert len(channel_states) == 4
            assert all(ref() is None for ref in channel_states)
        finally:
            gc.enable()

    def test_finished_run_is_freed_without_the_collector(self, monkeypatch):
        """The run, its environment and its fabric are freed by
        reference counting once ``run_hivemind`` returns, including the
        progress store still in flight when training ends."""
        from repro.experiments import run_experiment
        from repro.hivemind import run as run_module

        refs = []

        class WatchedRun(run_module._Run):
            def __init__(self, config):
                super().__init__(config)
                refs.extend(weakref.ref(obj)
                            for obj in (self, self.env, self.fabric))

        monkeypatch.setattr(run_module, "_Run", WatchedRun)
        gc.collect()
        gc.disable()
        try:
            result = run_experiment("B-8", "conv", epochs=2)
            assert len(refs) == 3
            assert [ref() for ref in refs] == [None] * 3
        finally:
            gc.enable()
        assert result.run.epochs

    @pytest.mark.parametrize("case", ["chaos", "spot", "adaptive"])
    def test_faulted_spot_and_adaptive_runs_are_freed_without_the_collector(
            self, monkeypatch, case):
        """A fault injector, a spot fleet and a controller hold bound
        methods of the run or of themselves, aborted flows are their
        own errors' values, and abort signals and RPC timers are
        left pending: none of it keeps the run alive once it returns."""
        from repro.controlplane import get_policy
        from repro.experiments import (
            adaptive_market, run_experiment, standby_peers_for)
        from repro.hivemind import run as run_module

        key, kwargs = {
            "chaos": ("B-8", {"fault_schedule": chaos_schedule_for(
                "B-8", seed=2, intensity=4.0, horizon_s=1800.0)}),
            "spot": ("B-8", {
                "interruption_model": InterruptionModel(monthly_rate=0.9)}),
            "adaptive": ("D-2", {
                "policy": get_policy("adaptive"),
                "price_models": adaptive_market("D-2"),
                "standby_peers": standby_peers_for("D-2"),
            }),
        }[case]
        refs = []

        class WatchedRun(run_module._Run):
            def __init__(self, config):
                super().__init__(config)
                refs.extend(weakref.ref(obj) for obj in (self, self.env))

        monkeypatch.setattr(run_module, "_Run", WatchedRun)
        gc.collect()
        gc.disable()
        try:
            result = run_experiment(key, "conv", epochs=16, **kwargs)
            assert len(refs) == 2
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        assert result.run.epochs
