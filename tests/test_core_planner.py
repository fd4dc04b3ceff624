"""Tests for the planner ("lessons learned" codified)."""

import pytest

from repro.core import evaluate_setup
from repro.network import build_topology


def peers_of(counts, gpu="t4"):
    out = []
    for location, n in counts.items():
        for i in range(n):
            out.append((f"{location}/{i}", gpu))
    return out


class TestEvaluateSetup:
    def test_cv_intra_zone_is_scalable(self):
        counts = {"gc:us": 8}
        advice = evaluate_setup("conv", peers_of(counts),
                                build_topology(counts))
        assert advice.scalable
        assert advice.prediction.granularity > 2.0
        assert advice.best_doubling_speedup > 1.5

    def test_nlp_on_four_continents_is_not_scalable(self):
        """C-8 NLP had granularity 0.4: not suitable any more."""
        counts = {"gc:us": 2, "gc:eu": 2, "gc:asia": 2, "gc:aus": 2}
        advice = evaluate_setup("rxlm", peers_of(counts),
                                build_topology(counts))
        assert not advice.scalable
        assert any("communication-bound" in note for note in advice.notes)

    def test_geo_nlp_egress_dominates(self):
        """Section 8: egress can overtake VM costs for geo NLP."""
        counts = {"gc:us": 2, "gc:eu": 2, "gc:asia": 2, "gc:aus": 2}
        advice = evaluate_setup("rxlm", peers_of(counts),
                                build_topology(counts))
        assert advice.hourly_egress_usd_estimate > advice.hourly_vm_usd
        assert any("egress" in note for note in advice.notes)

    def test_local_cv_egress_does_not_dominate(self):
        counts = {"gc:us": 4}
        advice = evaluate_setup("conv", peers_of(counts),
                                build_topology(counts))
        assert advice.hourly_egress_usd_estimate <= advice.hourly_vm_usd

    def test_intercontinental_note(self):
        counts = {"gc:us": 1, "gc:eu": 1}
        advice = evaluate_setup("conv", peers_of(counts),
                                build_topology(counts))
        assert any("continents" in note for note in advice.notes)

    def test_vm_pricing_by_provider(self):
        counts = {"gc:us": 2}
        advice = evaluate_setup("conv", peers_of(counts),
                                build_topology(counts))
        assert advice.hourly_vm_usd == pytest.approx(2 * 0.180)
        lam = {"lambda:us-west": 2}
        advice_lambda = evaluate_setup("conv", peers_of(lam, "a10"),
                                       build_topology(lam))
        assert advice_lambda.hourly_vm_usd == pytest.approx(2 * 0.60)
        assert advice_lambda.hourly_egress_usd_estimate == 0.0

    def test_matchmaking_warning_for_tiny_tbs(self):
        counts = {"lambda:us-west": 8}
        advice = evaluate_setup("rn18", peers_of(counts, "a10"),
                                build_topology(counts),
                                target_batch_size=8192)
        assert any("matchmaking" in note for note in advice.notes)

