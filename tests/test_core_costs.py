"""Tests for cost accounting: metered bills and the paper's fractions."""

import pytest

from repro.cloud import B2_EGRESS_PER_GB
from repro.core import (
    CallFractions,
    call_fractions,
    cost_per_million_samples,
    cost_report,
)
from repro.experiments import build_run_config
from repro.hivemind import HivemindRunConfig, PeerSpec, run_hivemind
from repro.network import build_topology


def run(model="conv", counts=None, gpu="t4", epochs=3, **kwargs):
    counts = counts or {"gc:us": 4}
    topo = build_topology(counts)
    peers = []
    for location, n in counts.items():
        for i in range(n):
            peers.append(PeerSpec(f"{location}/{i}", gpu))
    defaults = dict(monitor_interval_s=None, account_data_loading=True)
    defaults.update(kwargs)
    config = HivemindRunConfig(model=model, peers=peers, topology=topo,
                               epochs=epochs, **defaults)
    return run_hivemind(config)


class TestCostPerMillionSamples:
    def test_paper_dgx2_example(self):
        """Figure 1: the DGX-2 costs $6.30/h at 413 SPS = $4.24/1M."""
        assert cost_per_million_samples(413.0, 6.30) == pytest.approx(
            4.24, rel=0.01
        )

    def test_paper_1xt4_example(self):
        """Figure 1: a single T4 at 80 SPS and $0.18/h = $0.62/1M."""
        assert cost_per_million_samples(80.0, 0.180) == pytest.approx(
            0.62, rel=0.02
        )

    def test_rejects_zero_throughput(self):
        with pytest.raises(ValueError):
            cost_per_million_samples(0.0, 1.0)


class TestMeteredCostReport:
    def test_vm_cost_matches_fleet_price(self):
        result = run()
        report = cost_report(result)
        assert report.hourly_vm == pytest.approx(4 * 0.180)

    def test_ondemand_costs_more(self):
        result = run()
        spot = cost_report(result, spot=True)
        ondemand = cost_report(result, spot=False)
        assert ondemand.hourly_vm == pytest.approx(4 * 0.572)
        assert ondemand.total_usd > spot.total_usd

    def test_intra_zone_run_has_internal_egress_only(self):
        result = run(counts={"gc:us": 4})
        report = cost_report(result)
        assert all(vm.external_egress_per_h == 0 for vm in report.vms)
        assert any(vm.internal_egress_per_h > 0 for vm in report.vms)

    def test_geo_run_external_egress_dominates_for_nlp(self):
        """Section 5(3): NLP egress on four continents can be >90% of
        the per-VM total cost on GC."""
        result = run("rxlm", {"gc:us": 2, "gc:eu": 2, "gc:asia": 2,
                              "gc:aus": 2})
        report = cost_report(result)
        total = report.hourly_total
        egress = report.hourly_egress
        assert egress / total > 0.65

    def test_data_loading_cost_near_paper(self):
        """Figure 11a: ~$0.144/h per VM for CV data loading."""
        result = run("conv", {"gc:us": 4}, epochs=4)
        report = cost_report(result)
        per_vm = report.hourly_data_loading / 4
        assert per_vm == pytest.approx(0.144, rel=0.4)

    @pytest.mark.parametrize("key", ["A-4", "B-8", "D-2"])
    def test_data_loading_billed_from_link_ingress(self, key):
        """The store link only counts bytes; cost_report is the one
        place that prices them, at the B2 egress rate."""
        result = run_hivemind(build_run_config(key, "conv", epochs=3))
        report = cost_report(result)
        ingress = result.data_ingress_bytes_by_site
        assert sum(ingress.values()) > 0
        for vm in report.vms:
            billed = vm.data_loading_per_h * report.duration_h
            assert billed == pytest.approx(
                ingress[vm.site] / 1e9 * B2_EGRESS_PER_GB, rel=1e-12
            )

    def test_usd_per_million_samples_positive(self):
        result = run()
        report = cost_report(result)
        assert report.usd_per_million_samples > 0
        assert report.total_usd == pytest.approx(
            report.hourly_total * report.duration_h
        )

    def test_lambda_runs_have_zero_egress_cost(self):
        """Section 7: LambdaLabs charges nothing for egress."""
        result = run("conv", {"lambda:us-west": 4}, gpu="a10")
        report = cost_report(result)
        assert report.hourly_egress == 0.0
        assert report.hourly_vm == pytest.approx(4 * 0.60)


class TestCallFractions:
    def test_c8_fractions_match_paper(self):
        """Section 5(3): 8/20 internal, 6/20 intercontinental, 6/20 AUS."""
        fractions = call_fractions(["US", "EU", "ASIA", "AUS"],
                                   group_sizes=[2, 2, 2, 2])
        assert fractions.internal == pytest.approx(8 / 20)
        assert fractions.intercontinental == pytest.approx(6 / 20)
        assert fractions.oceania == pytest.approx(6 / 20)

    def test_d_experiment_n_to_n_fractions(self):
        """Section 5(2): 1/3 internal, 2/3 to the other cloud."""
        fractions = call_fractions(["US"], group_sizes=[2, 2])
        assert fractions.internal == pytest.approx(1 / 3)
        assert fractions.intercontinental == pytest.approx(2 / 3)
        assert fractions.oceania == 0.0

    def test_single_vm_groups_have_no_internal_calls(self):
        fractions = call_fractions(["US", "EU"], group_sizes=[1, 1])
        assert fractions.internal == 0.0
        assert fractions.intercontinental == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            call_fractions([])
        with pytest.raises(ValueError):
            CallFractions(internal=0.5, intercontinental=0.2, oceania=0.1)
