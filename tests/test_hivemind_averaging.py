"""Tests for matchmaking, group formation and the Moshpit averager."""

import numpy as np
import pytest

from repro.hivemind import (
    Contribution,
    MIN_MATCHMAKING_S,
    MoshpitAverager,
    form_groups,
    matchmaking_delay,
)
from repro.network import Fabric, build_topology
from repro.simulation import Environment


class TestFormGroups:
    def test_single_zone_is_one_group(self):
        topo = build_topology({"gc:us": 4})
        plan = form_groups(topo, list(topo.sites))
        assert len(plan.groups) == 1
        assert sum(len(group) for group in plan.groups) == 4

    def test_groups_by_region(self):
        topo = build_topology({"gc:us": 2, "gc:eu": 2, "gc:asia": 2})
        plan = form_groups(topo, list(topo.sites))
        assert len(plan.groups) == 3
        assert all(len(g) == 2 for g in plan.groups)

    def test_us_is_the_hub_on_four_continents(self):
        """The paper observed averaging via the US intermediary."""
        topo = build_topology({"gc:us": 2, "gc:eu": 2, "gc:asia": 2, "gc:aus": 2})
        plan = form_groups(topo, list(topo.sites))
        hub_regions = {topo.get(s).region for s in plan.hub}
        assert hub_regions == {"us-central1"}

    def test_empty_sites_rejected(self):
        topo = build_topology({"gc:us": 1})
        with pytest.raises(ValueError):
            form_groups(topo, [])


class TestMatchmakingDelay:
    def test_slow_accumulation_gets_exactly_minimum(self):
        rng = np.random.default_rng(0)
        assert matchmaking_delay(rng, calc_time_s=100.0) == MIN_MATCHMAKING_S

    def test_fast_accumulation_is_unstable(self):
        """Section 3 observation 2: TBS reached in <5s fluctuates."""
        rng = np.random.default_rng(0)
        delays = [matchmaking_delay(rng, calc_time_s=2.0) for __ in range(200)]
        assert all(d >= MIN_MATCHMAKING_S for d in delays)
        assert max(delays) > MIN_MATCHMAKING_S * 1.5
        assert np.std(delays) > 0.5

    def test_negative_calc_time_rejected(self):
        with pytest.raises(ValueError):
            matchmaking_delay(np.random.default_rng(0), -1.0)


def run_round(counts, parameter_count, contributions_of=None, codec="fp16",
              caps=None):
    topo = build_topology(counts)
    env = Environment()
    fabric = Fabric(env, topo)
    sites = list(topo.sites)
    plan = form_groups(topo, sites)
    averager = MoshpitAverager(env, fabric, plan, parameter_count,
                               codec=codec, stream_caps_bps=caps or {})
    if contributions_of is None:
        contributions = [Contribution(site, 100) for site in sites]
    else:
        contributions = contributions_of(sites)
    result = env.run(env.process(averager.run_round(contributions)))
    return result, fabric, env


class TestAveragerTiming:
    def test_two_peer_round_transfers_full_payload_each(self):
        # 2 peers, 100 MB payload: reduce-scatter + all-gather move
        # 2 x (1/2) payload per peer = payload; at the 0.7 Gb/s cap
        # that is ~1.14 s + matchless round is just the transfers.
        params = 50_000_000  # 100 MB in fp16
        caps = {f"gc:us/{i}": 0.7e9 for i in range(2)}
        result, __, env = run_round({"gc:us": 2}, params, caps=caps)
        assert result.wall_time_s == pytest.approx(100e6 * 8 / 0.7e9, rel=0.05)

    def test_eight_peer_round_is_sublinear(self):
        """Doubling peers must not double averaging time (Moshpit)."""
        params = 50_000_000
        caps2 = {f"gc:us/{i}": 0.7e9 for i in range(2)}
        caps8 = {f"gc:us/{i}": 0.7e9 for i in range(8)}
        two, __, __ = run_round({"gc:us": 2}, params, caps=caps2)
        eight, __, __ = run_round({"gc:us": 8}, params, caps=caps8)
        assert eight.wall_time_s < 2.5 * two.wall_time_s

    def test_intercontinental_round_is_slower(self):
        params = 50_000_000
        local, __, __ = run_round({"gc:us": 4}, params)
        geo, __, __ = run_round(
            {"gc:us": 1, "gc:eu": 1, "gc:asia": 1, "gc:aus": 1}, params
        )
        assert geo.wall_time_s > 3 * local.wall_time_s

    def test_stage_times_reported(self):
        result, __, __ = run_round({"gc:us": 2, "gc:eu": 2}, 10_000_000)
        assert set(result.stage_times_s) == {
            "reduce_scatter", "hub_exchange", "all_gather",
        }
        assert result.stage_times_s["hub_exchange"] > 0

    def test_single_group_skips_hub_exchange(self):
        result, __, __ = run_round({"gc:us": 4}, 10_000_000)
        assert result.stage_times_s["hub_exchange"] == 0.0

    def test_meter_sees_all_traffic(self):
        result, fabric, __ = run_round({"gc:us": 4}, 10_000_000)
        assert fabric.meter.total_bytes == pytest.approx(result.bytes_sent,
                                                         rel=0.01)

    def test_multi_stream_hub_exchange_uses_group_size(self):
        """Bigger groups ship the aggregate over more parallel pairs,
        the Section 7 multi-stream effect."""
        params = 50_000_000
        small, __, __ = run_round({"onprem:eu": 1, "gc:us": 1}, params)
        big, __, __ = run_round({"onprem:eu": 1, "gc:us": 4}, params)
        # The onprem->US exchange is chunked over min(|G|,|hub|) pairs;
        # with one onprem node both use one stream from it, but the
        # US group side is unchanged -- compare instead two cloud groups.
        a, __, __ = run_round({"gc:us": 1, "gc:eu": 1}, params)
        b, __, __ = run_round({"gc:us": 4, "gc:eu": 4}, params)
        assert b.stage_times_s["hub_exchange"] < a.stage_times_s["hub_exchange"]

    def test_empty_contributions_rejected(self):
        topo = build_topology({"gc:us": 2})
        env = Environment()
        fabric = Fabric(env, topo)
        plan = form_groups(topo, list(topo.sites))
        averager = MoshpitAverager(env, fabric, plan, 1000)
        with pytest.raises(ValueError):
            env.run(env.process(averager.run_round([])))

    def test_missing_peer_is_tolerated(self):
        """MoshpitSGD reduces the impact of lost gradients: a round
        with a missing contributor still completes."""
        def drop_one(sites):
            return [Contribution(site, 100) for site in sites[:-1]]

        result, __, __ = run_round({"gc:us": 4}, 1_000_000,
                                   contributions_of=drop_one)
        assert result.total_samples == 300
