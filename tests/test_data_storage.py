"""Tests for the simulated store link and the dataset specs."""

import pytest

from repro.data import DATASETS, StoreLink, get_dataset


class TestStoreLink:
    def test_demand_follows_throughput(self):
        link = StoreLink(get_dataset("imagenet1k"))
        # Paper: ~33 Mb/s ingress per VM while training CV at ~35 SPS.
        demand = link.demand_bps(35.0)
        assert demand == pytest.approx(35.0 * 110_000 * 8, rel=1e-6)
        assert 25e6 < demand < 40e6

    def test_demand_capped_by_link(self):
        link = StoreLink(get_dataset("imagenet1k"), link_capacity_bps=10e6)
        assert link.demand_bps(1000.0) == 10e6

    def test_consume_bills_b2_egress(self):
        link = StoreLink(get_dataset("imagenet1k"))
        fetched = link.consume(100)
        assert fetched == pytest.approx(100 * 110_000)
        assert link.ingress_bytes == pytest.approx(100 * 110_000)

    def test_consume_negative_rejected(self):
        link = StoreLink(get_dataset("imagenet1k"))
        with pytest.raises(ValueError):
            link.consume(-1)

    def test_cache_completion_makes_data_free(self):
        """The paper's one-time-cost argument: once the dataset is on
        disk, no further B2 egress accrues."""
        dataset = get_dataset("imagenet1k")
        link = StoreLink(dataset)
        link.consume(dataset.num_samples)  # fetch everything once
        assert link.cache_complete
        before = link.ingress_bytes
        assert link.consume(10_000) == 0.0
        assert link.ingress_bytes == before
        assert link.demand_bps(100.0) == 0.0


class TestDatasetSpecs:
    def test_all_domains_covered(self):
        assert {"imagenet1k", "wikipedia", "commonvoice"} == set(DATASETS)

    def test_paper_data_loading_rates(self):
        """Figure 11a: $0.144/h per VM for CV, $0.083/h for NLP.

        At the D-experiment per-VM throughputs (~36 SPS CV, ~75 SPS
        NLP) and $0.01/GB, the per-sample payloads must reproduce the
        paper's hourly data-loading cost within ~15 %.
        """
        cv = get_dataset("imagenet1k")
        nlp = get_dataset("wikipedia")
        cv_cost = 36.0 * cv.bytes_per_sample * 3600 / 1e9 * 0.01
        nlp_cost = 75.0 * nlp.bytes_per_sample * 3600 / 1e9 * 0.01
        assert cv_cost == pytest.approx(0.144, rel=0.15)
        assert nlp_cost == pytest.approx(0.083, rel=0.15)

    def test_cv_samples_larger_than_nlp(self):
        """Section 5: images are much larger than text."""
        assert (get_dataset("imagenet1k").bytes_per_sample
                > 3 * get_dataset("wikipedia").bytes_per_sample)
