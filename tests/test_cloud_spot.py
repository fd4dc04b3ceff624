"""Tests for the spot interruption model and fleet allocator."""

import numpy as np
import pytest

from repro.cloud import (
    InterruptionModel,
    SpotFleet,
    get_instance_type,
)
from repro.simulation import Environment


def live_count(fleet):
    return sum(1 for slot in fleet.slots if slot.up)


class TestInterruptionModel:
    def test_zero_rate_never_interrupts(self):
        model = InterruptionModel(monthly_rate=0.0)
        rng = np.random.default_rng(0)
        assert model.sample_interruption_s(rng) == float("inf")
        assert model.hazard_per_hour(0.0) == 0.0

    def test_monthly_rate_bounds(self):
        with pytest.raises(ValueError):
            InterruptionModel(monthly_rate=1.0)
        with pytest.raises(ValueError):
            InterruptionModel(monthly_rate=-0.1)
        with pytest.raises(ValueError):
            InterruptionModel(diurnal_amplitude=0.5)

    def test_mean_hazard_matches_monthly_rate(self):
        model = InterruptionModel(monthly_rate=0.10)
        # Survival over 720h at the mean hazard equals 90%.
        survival = np.exp(-model.mean_hazard_per_hour * 720.0)
        assert survival == pytest.approx(0.90, rel=1e-6)

    def test_diurnal_peak_at_peak_hour(self):
        model = InterruptionModel(monthly_rate=0.10, diurnal_amplitude=3.0,
                                  peak_hour=14.0)
        peak = model.hazard_per_hour(14.0 * 3600.0)
        trough = model.hazard_per_hour(2.0 * 3600.0)
        assert peak > trough
        assert peak == pytest.approx(3.0 * model.mean_hazard_per_hour)

    def test_daily_average_preserves_base_rate(self):
        model = InterruptionModel(monthly_rate=0.10, diurnal_amplitude=2.0)
        hours = np.linspace(0, 24, 2400, endpoint=False)
        mean = np.mean([model.hazard_per_hour(h * 3600.0) for h in hours])
        assert mean == pytest.approx(model.mean_hazard_per_hour, rel=1e-3)

    def test_sampled_interruptions_match_rate_statistically(self):
        model = InterruptionModel(monthly_rate=0.20, diurnal_amplitude=2.0)
        rng = np.random.default_rng(42)
        month_s = 30 * 24 * 3600.0
        samples = [model.sample_interruption_s(rng) for __ in range(2000)]
        interrupted = sum(1 for s in samples if s < month_s)
        assert interrupted / 2000 == pytest.approx(0.20, abs=0.03)

    def test_samples_are_deterministic_given_seed(self):
        model = InterruptionModel(monthly_rate=0.10)
        a = model.sample_interruption_s(np.random.default_rng(7))
        b = model.sample_interruption_s(np.random.default_rng(7))
        assert a == b


class TestSpotFleet:
    def _fleet(self, env, monthly_rate, n=4, seed=1):
        itype = get_instance_type("gc-t4")
        model = InterruptionModel(monthly_rate=monthly_rate) if monthly_rate else None
        return SpotFleet(
            env,
            np.random.default_rng(seed),
            slots=[(f"gc:us/{i}", itype) for i in range(n)],
            interruption_model=model,
            startup_s=420.0,
        )

    def test_all_slots_come_up_immediately(self):
        env = Environment()
        fleet = self._fleet(env, monthly_rate=0.0)
        env.run(until=1.0)
        assert live_count(fleet) == 4
        assert fleet.uptime_fraction(1.0) == pytest.approx(1.0)

    def test_no_interruptions_without_model(self):
        env = Environment()
        fleet = self._fleet(env, monthly_rate=0.0)
        env.run(until=7 * 24 * 3600.0)
        assert fleet.total_interruptions == 0

    def test_interrupted_slots_are_replaced(self):
        env = Environment()
        # Very aggressive rate so interruptions certainly happen.
        fleet = self._fleet(env, monthly_rate=0.99, seed=3)
        env.run(until=30 * 24 * 3600.0)
        assert fleet.total_interruptions > 0
        # Replacement brings slots back up: final state is mostly alive.
        assert live_count(fleet) >= 3

    def test_uptime_fraction_between_zero_and_one(self):
        env = Environment()
        fleet = self._fleet(env, monthly_rate=0.9, seed=5)
        horizon = 30 * 24 * 3600.0
        env.run(until=horizon)
        fraction = fleet.uptime_fraction(horizon)
        assert 0.5 < fraction <= 1.0

    def test_listeners_observe_events(self):
        env = Environment()
        fleet = self._fleet(env, monthly_rate=0.99, seed=3)
        seen = []
        fleet.subscribe(seen.append)
        env.run(until=30 * 24 * 3600.0)
        ups = [e for e in seen if e.up]
        downs = [e for e in seen if not e.up]
        assert len(downs) >= 1
        assert len(ups) >= 4 + len(downs) - 1


class TestForcedPreemption:
    def _forcible_fleet(self, env, n=4, zone_correlation=0.0, seed=1):
        itype = get_instance_type("gc-t4")
        return SpotFleet(
            env,
            np.random.default_rng(seed),
            slots=[(f"gc:us/{i}", itype) for i in range(n)],
            interruption_model=None,
            startup_s=60.0,
            allow_forced=True,
            zone_correlation=zone_correlation,
            zone_of=lambda site: "us-central1-a",
        )

    def test_preempt_takes_down_and_replaces_slot(self):
        env = Environment()
        fleet = self._forcible_fleet(env)

        def chaos():
            yield env.timeout(10.0)
            assert fleet.preempt("gc:us/2") == 1

        env.process(chaos())
        env.run(until=11.0)
        assert live_count(fleet) == 3
        assert fleet.forced_interruptions == 1
        assert fleet.total_interruptions == 1
        env.run(until=100.0)
        assert live_count(fleet) == 4  # replacement booted after startup_s

    def test_preempt_without_allow_forced_is_noop(self):
        env = Environment()
        itype = get_instance_type("gc-t4")
        fleet = SpotFleet(
            env, np.random.default_rng(1),
            slots=[("gc:us/0", itype)],
        )
        env.run(until=10.0)
        assert fleet.preempt("gc:us/0") == 0
        env.run(until=20.0)
        assert live_count(fleet) == 1

    def test_full_zone_cascade_takes_down_every_slot(self):
        env = Environment()
        fleet = self._forcible_fleet(env, zone_correlation=1.0)

        def chaos():
            yield env.timeout(10.0)
            fleet.preempt("gc:us/0")

        env.process(chaos())
        env.run(until=11.0)
        assert live_count(fleet) == 0
        assert fleet.forced_interruptions == 4
        env.run(until=100.0)
        assert live_count(fleet) == 4

    def test_zero_correlation_never_cascades(self):
        env = Environment()
        fleet = self._forcible_fleet(env, zone_correlation=0.0)

        def chaos():
            yield env.timeout(10.0)
            fleet.preempt("gc:us/0")

        env.process(chaos())
        env.run(until=11.0)
        assert live_count(fleet) == 3
        assert fleet.forced_interruptions == 1


def test_lambda_has_no_spot_tier():
    a10 = get_instance_type("lambda-a10")
    assert a10.price_per_hour(spot=True) == a10.price_per_hour(spot=False) == 0.60
