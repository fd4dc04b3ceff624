"""Control-plane tests: pure policies, the controller, adaptive runs.

The determinism bar from the rest of the repo applies unchanged:
identically-seeded adaptive runs must produce byte-identical decision
logs and results, and a config without a policy must behave exactly as
it did before the control plane existed.
"""

import dataclasses

import pytest

from repro.cloud import SpotPriceModel, integrate_price_usd
from repro.controlplane import (
    POLICIES,
    Action,
    AdaptivePolicy,
    Controller,
    MigrationPolicy,
    Observation,
    ScalingPolicy,
    TbsPolicy,
    default_price_models,
    get_policy,
    policy_names,
)
from repro.core import cost_report
from repro.experiments import (
    adaptive_market,
    adaptive_report,
    build_run_config,
    standby_peers_for,
)
from repro.hivemind import HivemindRunConfig, PeerSpec, run_hivemind
from repro.network import build_topology
from repro.orchestrator import ExperimentJob
from repro.orchestrator.fingerprint import (
    FINGERPRINT_VERSION,
    canonical,
    revive,
)
from repro.orchestrator.jobs import (
    job_key,
    result_from_record,
    result_to_record,
)


def obs(**kwargs) -> Observation:
    base = dict(
        time_s=0.0,
        epoch=0,
        target_batch_size=32768,
        calc_s=100.0,
        comm_s=10.0,
        samples=32768,
        granularity=10.0,
        active_sites=("gc:us/0", "aws:us-west/0"),
        standby_sites=("azure:us-south/0",),
        pinned_sites=("gc:us/0",),
        prices_per_h={"gc:us": 0.18, "aws:us-west": 0.40,
                      "azure:us-south": 0.13},
        preemptions={},
    )
    base.update(kwargs)
    return Observation(**base)


class FakeEnv:
    now = 0.0


# ---------------------------------------------------------------------------
# policies are pure functions of the observation
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_registry(self):
        assert set(policy_names()) == set(POLICIES)
        assert isinstance(get_policy("adaptive"), AdaptivePolicy)
        with pytest.raises(KeyError, match="unknown policy"):
            get_policy("nope")

    def test_migration_targets_cheapest_spare(self):
        actions = MigrationPolicy().decide(obs())
        assert len(actions) == 1
        action = actions[0]
        assert action.kind == "migrate"
        assert action.site == "aws:us-west/0"  # priciest non-pinned
        assert action.target == "azure:us-south/0"

    def test_migration_quiet_when_ratio_insufficient(self):
        quiet = obs(prices_per_h={"gc:us": 0.18, "aws:us-west": 0.19,
                                  "azure:us-south": 0.18})
        assert MigrationPolicy().decide(quiet) == []

    def test_migration_never_proposes_pinned_site(self):
        flipped = obs(prices_per_h={"gc:us": 0.40, "aws:us-west": 0.40,
                                    "azure:us-south": 0.13})
        for action in MigrationPolicy().decide(flipped):
            assert action.site != "gc:us/0"

    def test_migration_flees_flappy_zone(self):
        flappy = obs(
            prices_per_h={"gc:us": 0.18, "aws:us-west": 0.18,
                          "azure:us-south": 0.18},
            preemptions={"aws:us-west": 5},
        )
        actions = MigrationPolicy(preemption_threshold=2).decide(flappy)
        assert [a.site for a in actions] == ["aws:us-west/0"]

    def test_tbs_grows_below_floor(self):
        actions = TbsPolicy().decide(obs(granularity=0.5))
        assert len(actions) == 1
        assert actions[0].kind == "set_tbs"
        assert actions[0].tbs == 65536

    def test_tbs_quiet_at_healthy_granularity(self):
        assert TbsPolicy().decide(obs(granularity=10.0)) == []

    def test_scaling_sheds_priciest_peer_when_granularity_collapses(self):
        crowded = obs(
            granularity=0.5,
            active_sites=("gc:us/0", "gc:us/1", "aws:us-west/0"),
        )
        actions = ScalingPolicy().decide(crowded)
        assert [a.kind for a in actions] == ["scale_down"]
        assert actions[0].site == "aws:us-west/0"

    def test_scaling_respects_min_peers(self):
        small = obs(granularity=0.5, active_sites=("gc:us/0", "gc:us/1"),
                    prices_per_h={"gc:us": 0.18})
        assert ScalingPolicy(min_peers=2).decide(small) == []

    def test_policies_are_deterministic(self):
        observation = obs(granularity=0.5)
        policy = AdaptivePolicy()
        assert policy.decide(observation) == policy.decide(observation)


# ---------------------------------------------------------------------------
# the controller validates and actuates
# ---------------------------------------------------------------------------

class TestController:
    def make(self, policy=None, **kwargs):
        defaults = dict(
            active_sites=["gc:us/0", "aws:us-west/0"],
            standby_sites=["azure:us-south/0"],
            pinned_sites=["gc:us/0"],
            target_batch_size=32768,
            flat_prices={"gc:us": 0.18, "aws:us-west": 0.40,
                         "azure:us-south": 0.13},
        )
        defaults.update(kwargs)
        return Controller(FakeEnv(), policy or AdaptivePolicy(), **defaults)

    def stats(self, **kwargs):
        base = dict(index=0, calc_s=100.0, comm_s=10.0, samples=32768,
                    granularity=10.0)
        base.update(kwargs)
        return type("Stats", (), base)()

    def test_migrate_applies_and_updates_membership(self):
        controller = self.make(MigrationPolicy())
        decisions = controller.on_epoch_end(self.stats())
        assert [d.outcome for d in decisions] == ["applied"]
        assert "aws:us-west/0" not in controller.active
        assert "azure:us-south/0" in controller.active  # no run loop: instant
        assert controller.migrations == 1

    def test_rejects_pinned_site(self):
        controller = self.make()
        decision = controller._apply(
            controller.observe(self.stats()),
            Action("migrate", site="gc:us/0", target="azure:us-south/0"),
        )
        assert decision.outcome == "rejected:site-pinned"

    def test_rejects_taken_target(self):
        controller = self.make()
        observation = controller.observe(self.stats())
        first = controller._apply(
            observation,
            Action("migrate", site="aws:us-west/0",
                   target="azure:us-south/0"),
        )
        assert first.outcome == "applied"
        second = controller._apply(
            observation,
            Action("scale_up", target="azure:us-south/0"),
        )
        assert second.outcome == "rejected:target-not-standby"

    def test_rejects_scale_down_below_min_peers(self):
        controller = self.make(min_peers=2)
        decision = controller._apply(
            controller.observe(self.stats()),
            Action("scale_down", site="aws:us-west/0"),
        )
        assert decision.outcome == "rejected:min-peers"

    def test_rejects_unchanged_tbs(self):
        controller = self.make()
        decision = controller._apply(
            controller.observe(self.stats()),
            Action("set_tbs", tbs=32768),
        )
        assert decision.outcome == "rejected:tbs-unchanged"

    def test_set_tbs_updates_current(self):
        controller = self.make()
        decision = controller._apply(
            controller.observe(self.stats()),
            Action("set_tbs", tbs=65536),
        )
        assert decision.outcome == "applied"
        assert controller.current_tbs == 65536

    def test_decision_log_settles_once_spares_run_out(self):
        controller = self.make(MigrationPolicy())
        first = controller.on_epoch_end(self.stats(index=0))
        second = controller.on_epoch_end(self.stats(index=1))
        assert [d.outcome for d in first] == ["applied"]
        assert second == []  # spare consumed; nothing left to do
        assert controller.decisions == first
        assert controller.counts["migrate"] == 1


# ---------------------------------------------------------------------------
# the market layer
# ---------------------------------------------------------------------------

class TestMarket:
    def test_models_only_for_priced_providers(self):
        models = default_price_models(
            ["gc:us", "aws:us-west", "lambda:us-west", "onprem:eu"]
        )
        assert set(models) == {"gc:us", "aws:us-west"}

    def test_prices_follow_the_sun(self):
        model = default_price_models(["gc:us"])["gc:us"]
        day = [model.price_at(h * 3600.0) for h in range(24)]
        assert max(day) > min(day)  # diurnal swing
        assert all(0 < p <= model.ondemand_per_h for p in day)

    def test_integrate_price_matches_flat_model(self):
        flat = SpotPriceModel(ondemand_per_h=1.0, mean_discount=0.5,
                              swing=0.0)
        usd = integrate_price_usd(flat, [(0.0, 7200.0)])
        assert usd == pytest.approx(1.0)  # 2h at $0.50/h

    def test_integrate_price_sums_disjoint_intervals(self):
        flat = SpotPriceModel(ondemand_per_h=1.0, mean_discount=0.5,
                              swing=0.0)
        split = integrate_price_usd(flat, [(0.0, 1800.0), (3600.0, 5400.0)])
        assert split == pytest.approx(0.5)  # 1h total uptime

    def test_integrate_price_rejects_bad_step(self):
        flat = SpotPriceModel(ondemand_per_h=1.0, mean_discount=0.5)
        with pytest.raises(ValueError):
            integrate_price_usd(flat, [(0.0, 1.0)], step_s=0.0)


# ---------------------------------------------------------------------------
# adaptive runs end to end
# ---------------------------------------------------------------------------

def adaptive_config(epochs=4):
    return build_run_config(
        "D-2", "conv", epochs=epochs,
        policy=AdaptivePolicy(),
        price_models=adaptive_market("D-2"),
        standby_peers=standby_peers_for("D-2"),
    )


class TestAdaptiveRuns:
    def test_identically_seeded_runs_are_byte_identical(self):
        a = run_hivemind(adaptive_config())
        b = run_hivemind(adaptive_config())
        assert a.decisions == b.decisions
        assert a.decisions  # the policy actually acted
        assert repr(a.duration_s) == repr(b.duration_s)
        assert repr(a.throughput_sps) == repr(b.throughput_sps)
        assert a.epochs == b.epochs
        assert a.uptime_intervals_by_site == b.uptime_intervals_by_site
        assert a.control_actions == b.control_actions

    def test_no_policy_leaves_result_shape_untouched(self):
        result = run_hivemind(build_run_config("D-2", "conv", epochs=2))
        assert result.decisions == []
        assert result.control_actions == {}
        assert result.uptime_intervals_by_site == {}

    def test_standby_site_must_not_shadow_active(self):
        spec_peers = build_run_config("D-2", "conv").peers
        with pytest.raises(ValueError, match="duplicates an active peer"):
            HivemindRunConfig(
                model="conv", peers=spec_peers,
                topology=build_topology({"gc:us-west": 2, "aws:us-west": 2}),
                standby_peers=(PeerSpec(spec_peers[0].site, "t4"),),
            )

    def test_migrated_peer_leaves_and_spare_contributes(self):
        result = run_hivemind(adaptive_config())
        migrations = result.control_actions.get("migrate", 0)
        assert migrations >= 1
        migrated = [d for d in result.decisions
                    if d.kind == "migrate" and d.outcome == "applied"]
        departed = migrated[0].site
        arrived = migrated[0].target
        intervals = result.uptime_intervals_by_site
        # The departed VM stopped billing before the run ended; the
        # spare only started billing when activated.
        assert intervals[departed][-1][1] < result.duration_s
        assert intervals[arrived][0][0] > 0.0
        assert result.state_syncs >= migrations

    def test_decision_telemetry_emitted(self):
        from repro.telemetry import Telemetry

        config = adaptive_config()
        config.telemetry = Telemetry()
        result = run_hivemind(config)
        tel = result.telemetry
        names = [i.name for i in tel.tracer.instants]
        assert "control_decision" in names
        counter = tel.counter("control_decisions_total")
        assert counter.value() == len(result.decisions)
        assert tel.counter("control_migrate_total").value() == \
            result.control_actions.get("migrate", 0)


# ---------------------------------------------------------------------------
# fingerprints, cache records, costs
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_version_bumped_for_control_plane(self):
        assert FINGERPRINT_VERSION == 6

    def test_policy_round_trips_canonical(self):
        policy = AdaptivePolicy()
        revived = revive(canonical(policy))
        assert revived == policy

    def test_price_model_and_peers_round_trip(self):
        market = adaptive_market("D-2")
        assert revive(canonical(market)) == market
        standby = standby_peers_for("D-2")
        assert tuple(revive(canonical(standby))) == standby

    def test_policy_changes_job_key(self):
        static = ExperimentJob.make("D-2", "conv", epochs=2)
        adaptive = ExperimentJob.make(
            "D-2", "conv", epochs=2, policy=AdaptivePolicy(),
            standby_peers=standby_peers_for("D-2"),
        )
        tuned = ExperimentJob.make(
            "D-2", "conv", epochs=2,
            policy=AdaptivePolicy(migration=MigrationPolicy(price_ratio=2.0)),
            standby_peers=standby_peers_for("D-2"),
        )
        assert len({job_key(static), job_key(adaptive), job_key(tuned)}) == 3

    def test_record_round_trips_control_fields(self):
        job = ExperimentJob.make(
            "D-2", "conv", epochs=3, policy=AdaptivePolicy(),
            price_models=adaptive_market("D-2"),
            standby_peers=standby_peers_for("D-2"),
        )
        from repro.orchestrator.jobs import execute_job

        result = execute_job(job)
        revived = result_from_record(result_to_record(job, result))
        assert revived.run.decisions == result.run.decisions
        assert revived.run.control_actions == result.run.control_actions
        assert (revived.run.uptime_intervals_by_site
                == {site: [tuple(pair) for pair in intervals]
                    for site, intervals
                    in result.run.uptime_intervals_by_site.items()})
        assert revived.usd_per_million_samples == pytest.approx(
            result.usd_per_million_samples
        )


class TestAdaptiveCosts:
    def test_flat_costing_unchanged_without_price_models(self):
        from repro.cloud import get_instance_type

        result = run_hivemind(build_run_config("D-2", "conv", epochs=2))
        report = cost_report(result)
        for vm, peer in zip(report.vms, result.config.peers):
            instance = get_instance_type(peer.instance_key)
            assert vm.instance_per_h == instance.price_per_hour(spot=True)

    def test_integrated_costing_bills_uptime_only(self):
        result = run_hivemind(adaptive_config())
        report = cost_report(result)
        by_site = {vm.site: vm for vm in report.vms}
        migrated = [d for d in result.decisions
                    if d.kind == "migrate" and d.outcome == "applied"]
        departed = migrated[0].site
        survivors = [p.site for p in result.config.peers
                     if p.site != departed]
        # The migrated-away VM was up for a strict prefix of the run, so
        # its amortized hourly price is below a same-location survivor's.
        same_loc = [s for s in survivors
                    if s.split("/")[0] == departed.split("/")[0]]
        assert by_site[departed].instance_per_h < \
            by_site[same_loc[0]].instance_per_h
        # Spares that never activated cost nothing.
        idle = [p.site for p in result.config.standby_peers
                if p.site not in result.uptime_intervals_by_site]
        for site in idle:
            assert by_site[site].instance_per_h == 0.0

    def test_adaptive_beats_static_on_d2(self):
        report = adaptive_report(epochs=4, keys=("D-2",))
        rows = {row["mode"]: row for row in report.rows}
        assert rows["adaptive"]["migrations"] >= 1
        assert rows["adaptive"]["usd_per_1m"] < rows["static"]["usd_per_1m"]


class TestConfigExpansion:
    def test_standby_sites_get_topology_endpoints(self):
        config = adaptive_config()
        for peer in config.standby_peers:
            assert config.topology.get(peer.site) is not None

    def test_dataclass_policies_stay_frozen(self):
        policy = MigrationPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.price_ratio = 2.0
