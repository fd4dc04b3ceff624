"""Tests for spot price dynamics."""

import numpy as np
import pytest

from repro.cloud import SpotPriceModel

HOUR = 3600.0
DAY = 24 * HOUR


class TestSpotPriceModel:
    def test_mean_discount_preserved_over_a_day(self):
        model = SpotPriceModel(ondemand_per_h=0.572, mean_discount=0.69,
                               swing=0.2)
        prices = [model.price_at(float(t)) for t in np.arange(0.0, DAY, 600.0)]
        mean_price = np.mean(prices)
        assert mean_price == pytest.approx(0.572 * 0.31, rel=0.01)

    def test_price_peaks_at_peak_hour(self):
        model = SpotPriceModel(ondemand_per_h=1.0, mean_discount=0.5,
                               swing=0.3, peak_hour=14.0)
        assert model.price_at(14 * HOUR) > model.price_at(2 * HOUR)

    def test_price_never_exceeds_ondemand(self):
        model = SpotPriceModel(ondemand_per_h=1.0, mean_discount=0.5,
                               swing=0.3)
        rng = np.random.default_rng(0)
        for t in np.linspace(0, DAY, 50):
            assert 0 < model.price_at(t, rng=rng, noise=0.5) <= 1.0

    def test_timezone_shifts_the_peak(self):
        us = SpotPriceModel(1.0, 0.5, swing=0.3, tz_offset_hours=-6)
        eu = SpotPriceModel(1.0, 0.5, swing=0.3, tz_offset_hours=1)
        # At a given UTC instant the two zones sit at different points
        # of their demand cycle.
        assert us.price_at(12 * HOUR) != eu.price_at(12 * HOUR)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpotPriceModel(1.0, mean_discount=0.0)
        with pytest.raises(ValueError):
            SpotPriceModel(1.0, mean_discount=0.9, swing=0.5)

