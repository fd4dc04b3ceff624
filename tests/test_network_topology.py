"""Tests for sites, path resolution, and traffic classification."""

import pytest

from repro.network import (
    GBPS,
    MBPS,
    Site,
    Topology,
    TrafficClass,
    classify_traffic,
)


def make_site(name, zone="z1", region="r1", continent="US", **kwargs):
    return Site(name=name, provider="gc", zone=zone, region=region,
                continent=continent, **kwargs)


class TestSite:
    def test_rejects_unknown_continent(self):
        with pytest.raises(ValueError, match="continent"):
            make_site("a", continent="MARS")

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            make_site("a", tcp_window_bytes=0)


class TestTrafficClassification:
    def test_same_zone_is_intra_zone(self):
        a = make_site("a")
        b = make_site("b")
        assert classify_traffic(a, b) == TrafficClass.INTRA_ZONE

    def test_same_region_different_zone(self):
        a = make_site("a", zone="z1")
        b = make_site("b", zone="z2")
        assert classify_traffic(a, b) == TrafficClass.INTER_ZONE

    def test_same_continent_different_region(self):
        a = make_site("a", region="us-central1", zone="z1")
        b = make_site("b", region="us-west1", zone="z2")
        assert classify_traffic(a, b) == TrafficClass.INTER_REGION

    def test_different_continents(self):
        a = make_site("a", continent="US")
        b = make_site("b", continent="EU", region="r2", zone="z2")
        assert classify_traffic(a, b) == TrafficClass.INTERCONTINENTAL

    def test_any_to_oceania_is_special(self):
        a = make_site("a", continent="US")
        b = make_site("b", continent="AUS", region="r2", zone="z2")
        assert classify_traffic(a, b) == TrafficClass.TO_OCEANIA
        assert classify_traffic(b, a) == TrafficClass.TO_OCEANIA

    def test_within_oceania_is_not_special(self):
        a = make_site("a", continent="AUS", region="r2", zone="z2")
        b = make_site("b", continent="AUS", region="r2", zone="z2")
        assert classify_traffic(a, b) == TrafficClass.INTRA_ZONE


class TestTopology:
    def test_duplicate_site_rejected(self):
        topo = Topology()
        topo.add_site(make_site("a"))
        with pytest.raises(ValueError, match="duplicate"):
            topo.add_site(make_site("a"))

    def test_intra_zone_path_is_nic_limited(self):
        topo = Topology()
        topo.add_site(make_site("a", nic_bps=7 * GBPS))
        topo.add_site(make_site("b", nic_bps=5 * GBPS))
        path = topo.path("a", "b")
        assert path.capacity_bps == 5 * GBPS
        assert path.single_stream_bps == 5 * GBPS or path.single_stream_bps < 5 * GBPS

    def test_intercontinental_single_stream_is_window_limited(self):
        topo = Topology()
        topo.add_site(make_site("us", continent="US"))
        topo.add_site(make_site("eu", continent="EU", region="r2", zone="z2"))
        path = topo.path("us", "eu")
        # 2.6 MB window at 103 ms RTT -> ~202 Mb/s, as in Table 3.
        assert path.single_stream_bps == pytest.approx(8 * 2.6e6 / 0.103)
        assert path.single_stream_bps < path.capacity_bps

    def test_path_is_symmetric(self):
        topo = Topology()
        topo.add_site(make_site("us", continent="US"))
        topo.add_site(make_site("asia", continent="ASIA", region="r2", zone="z2"))
        assert topo.path("us", "asia") == topo.path("asia", "us")

    def test_path_resolves_once_per_pair(self):
        topo = Topology()
        topo.add_site(make_site("us", continent="US"))
        topo.add_site(make_site("eu", continent="EU", region="r2", zone="z2"))
        assert topo.path("us", "eu") is topo.path("eu", "us")
        assert topo._path_cache.keys() == {("us", "eu"), ("eu", "us")}

    def test_set_path_clears_both_directions(self):
        topo = Topology()
        topo.add_site(make_site("a"))
        topo.add_site(make_site("b"))
        before = topo.path("b", "a")
        version = topo._version
        topo.set_path("a", "b", capacity_bps=1 * GBPS)
        assert topo._version == version + 1
        assert topo._path_cache == {}
        assert topo.path("b", "a") is not before
        assert topo.path("b", "a").capacity_bps == 1 * GBPS

    def test_set_path_keeps_other_pairs_and_records_the_pair(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_site(make_site(name))
        kept = topo.path("c", "a")
        topo.path("a", "b")
        version = topo._version
        topo.set_path("b", "a", rtt_s=0.1)
        topo.set_path("a", "c", rtt_s=0.2)
        assert topo._path_cache == {}
        topo.path("c", "a")
        topo.set_path("a", "b", rtt_s=0.3)
        assert topo._path_cache.keys() == {("a", "c"), ("c", "a")}
        assert topo.path("c", "a") is not kept
        assert topo.changed_since(version) == [("b", "a"), ("a", "c"), ("a", "b")]
        assert topo.changed_since(version + 2) == [("a", "b")]
        assert topo.changed_since(topo._version) == []

    def test_override_applies_in_both_directions(self):
        topo = Topology()
        topo.add_site(make_site("a"))
        topo.add_site(make_site("b"))
        topo.set_path("b", "a", capacity_bps=300 * MBPS, rtt_s=0.25)
        for path in (topo.path("a", "b"), topo.path("b", "a")):
            assert path.capacity_bps == 300 * MBPS
            assert path.rtt_s == 0.25
        assert topo.path("a", "b") is topo.path("b", "a")

    def test_override_takes_precedence(self):
        topo = Topology()
        topo.add_site(make_site("a"))
        topo.add_site(make_site("b"))
        topo.set_path("a", "b", capacity_bps=1 * GBPS, rtt_s=0.5)
        path = topo.path("a", "b")
        assert path.capacity_bps == 1 * GBPS
        assert path.rtt_s == 0.5

    def test_partial_override_keeps_defaults(self):
        topo = Topology()
        topo.add_site(make_site("a", tcp_window_bytes=1e6))
        topo.add_site(make_site("b", tcp_window_bytes=2e6))
        topo.set_path("a", "b", rtt_s=0.1)
        path = topo.path("a", "b")
        assert path.rtt_s == 0.1
        assert path.window_bytes == 1e6

    def test_partial_override_keeps_earlier_overrides(self):
        topo = Topology()
        topo.add_site(make_site("a", tcp_window_bytes=1e6))
        topo.add_site(make_site("b"))
        topo.set_path("a", "b", rtt_s=0.2)
        before = topo.path("b", "a")
        version = topo._version
        topo.set_path("a", "b", capacity_bps=300 * MBPS)
        assert topo._version == version + 1
        assert topo.changed_since(version) == [("a", "b")]
        assert topo._path_cache == {}
        path = topo.path("b", "a")
        assert path is not before
        assert path.capacity_bps == 300 * MBPS
        assert path.rtt_s == 0.2
        assert path.window_bytes == 1e6

    def test_loopback_path_is_free(self):
        topo = Topology()
        topo.add_site(make_site("a"))
        path = topo.path("a", "a")
        assert path.rtt_s == 0.0
        assert path.capacity_bps >= 10 * GBPS

    def test_len_and_contains(self):
        topo = Topology()
        topo.add_site(make_site("a"))
        assert len(topo) == 1
        assert "a" in topo
        assert "b" not in topo
