"""Tests that the built-in topologies reproduce the paper's matrices."""

import gc
import weakref

import pytest

from repro.network import (
    GBPS,
    MBPS,
    build_topology,
    location_of,
    measure_bandwidth_bps,
    measure_rtt_s,
    multi_stream_bps,
    profile_matrix,
    single_stream_bps,
    stream_count_for_capacity,
)
from repro.network.profiles import (
    TABLE3_EXPECTED_MBPS,
    TABLE3_EXPECTED_RTT_MS,
    TABLE5_EXPECTED_GBPS,
)


def test_build_topology_counts_and_names():
    topo = build_topology({"gc:us": 2, "gc:eu": 1})
    assert len(topo) == 3
    assert "gc:us/0" in topo
    assert "gc:us/1" in topo
    assert "gc:eu/0" in topo


def test_build_topology_unknown_location():
    with pytest.raises(KeyError):
        build_topology({"gc:mars": 1})


def test_location_of():
    assert location_of("gc:us/3") == "gc:us"
    assert location_of("onprem:eu/0") == "onprem:eu"


@pytest.fixture(scope="module")
def geo_topology():
    return build_topology({"gc:us": 2, "gc:eu": 2, "gc:asia": 2, "gc:aus": 2})


class TestTable3GoogleCloudMatrix:
    """The GC topology must reproduce Table 3 within ~15 %."""

    def test_intra_zone_bandwidth(self, geo_topology):
        bps = measure_bandwidth_bps(geo_topology, "gc:us/0", "gc:us/1", runs=1)
        assert bps == pytest.approx(6.91 * GBPS, rel=0.05)

    @pytest.mark.parametrize(
        "pair", [p for p in TABLE3_EXPECTED_MBPS if p[0] != p[1]]
    )
    def test_cross_zone_bandwidth(self, geo_topology, pair):
        a, b = pair
        measured = measure_bandwidth_bps(
            geo_topology, f"{a}/0", f"{b}/0", nbytes=2.5e8, runs=1
        )
        assert measured / MBPS == pytest.approx(
            TABLE3_EXPECTED_MBPS[pair], rel=0.30
        )

    @pytest.mark.parametrize(
        "pair", [p for p in TABLE3_EXPECTED_RTT_MS if p[0] != p[1]]
    )
    def test_cross_zone_rtt(self, geo_topology, pair):
        a, b = pair
        rtt = measure_rtt_s(geo_topology, f"{a}/0", f"{b}/0")
        assert rtt * 1e3 == pytest.approx(TABLE3_EXPECTED_RTT_MS[pair], rel=0.05)

    def test_non_local_connections_below_210_mbps(self, geo_topology):
        """Paper: throughput dropped to <210 Mb/s for all non-local pairs."""
        locations = ["gc:us", "gc:eu", "gc:asia", "gc:aus"]
        for i, a in enumerate(locations):
            for b in locations[i + 1:]:
                bps = single_stream_bps(geo_topology.path(f"{a}/0", f"{b}/0"))
                assert bps <= 215 * MBPS


class TestTable5HybridMatrix:
    def test_onprem_paths(self):
        topo = build_topology({"onprem:eu": 1, "gc:eu": 1, "gc:us": 1,
                               "lambda:us-west": 1})
        for (a, b), expected_gbps in TABLE5_EXPECTED_GBPS.items():
            bps = single_stream_bps(topo.path(f"{a}/0", f"{b}/0"))
            assert bps / GBPS == pytest.approx(expected_gbps, rel=0.35), (a, b)

    def test_onprem_to_us_is_50_to_80_mbps(self):
        """Paper: at worst 50 Mb/s to the cloud resources in the US."""
        topo = build_topology({"onprem:eu": 1, "gc:us": 1, "lambda:us-west": 1})
        for dst in ("gc:us/0", "lambda:us-west/0"):
            bps = single_stream_bps(topo.path("onprem:eu/0", dst))
            assert 40 * MBPS <= bps <= 90 * MBPS


class TestMultiStreamSection7:
    """Section 7: multiple streams recover the path capacity."""

    def test_multi_stream_within_eu_reaches_6_gbps(self):
        topo = build_topology({"onprem:eu": 1, "gc:eu": 1})
        path = topo.path("onprem:eu/0", "gc:eu/0")
        assert multi_stream_bps(path, 80) == pytest.approx(6 * GBPS, rel=0.01)

    def test_multi_stream_to_us_reaches_4_gbps(self):
        topo = build_topology({"onprem:eu": 1, "gc:us": 1})
        path = topo.path("onprem:eu/0", "gc:us/0")
        assert multi_stream_bps(path, 80) == pytest.approx(4 * GBPS, rel=0.01)

    def test_stream_count_needed(self):
        topo = build_topology({"onprem:eu": 1, "gc:us": 1})
        path = topo.path("onprem:eu/0", "gc:us/0")
        count = stream_count_for_capacity(path)
        assert 40 <= count <= 90  # ~80 clients in the paper

    def test_single_stream_needs_no_parallelism_locally(self):
        topo = build_topology({"gc:us": 2})
        path = topo.path("gc:us/0", "gc:us/1")
        assert stream_count_for_capacity(path) == 1


def test_profile_matrix_shape():
    topo = build_topology({"gc:us": 2, "gc:eu": 2})
    result = profile_matrix(
        topo,
        {"gc:us": "gc:us/0", "gc:eu": "gc:eu/0"},
        nbytes=1e8,
    )
    assert set(result.locations) == {"gc:us", "gc:eu"}
    assert result.bandwidth_bps[("gc:us", "gc:us")] / GBPS == pytest.approx(
        6.91, rel=0.05)
    assert result.rtt_ms("gc:us", "gc:eu") == pytest.approx(103, rel=0.05)
    rows = result.rows()
    assert len(rows) == 4
    assert {"from", "to", "gbps", "rtt_ms"} <= set(rows[0])


def test_measure_bandwidth_averages_multiple_runs():
    """The paper reports the average of five consecutive iperf runs."""
    topo = build_topology({"gc:us": 2})
    one = measure_bandwidth_bps(topo, "gc:us/0", "gc:us/1", nbytes=1e8,
                                runs=1)
    five = measure_bandwidth_bps(topo, "gc:us/0", "gc:us/1", nbytes=1e8,
                                 runs=5)
    # Deterministic fabric: the average equals a single run.
    assert five == pytest.approx(one, rel=1e-9)


def test_measure_rtt_matches_topology():
    topo = build_topology({"gc:us": 1, "gc:eu": 1})
    rtt = measure_rtt_s(topo, "gc:us/0", "gc:eu/0")
    assert rtt == pytest.approx(topo.rtt_s("gc:us/0", "gc:eu/0"), rel=1e-9)


def test_profile_matrix_single_site_location_uses_nic():
    topo = build_topology({"gc:us": 1, "gc:eu": 1})
    result = profile_matrix(topo, {"gc:us": "gc:us/0", "gc:eu": "gc:eu/0"},
                            nbytes=1e8)
    # With no same-location peer, the diagonal reports the NIC capacity.
    assert result.bandwidth_bps[("gc:us", "gc:us")] / GBPS == pytest.approx(
        6.91, rel=0.01)
    assert result.rtt_ms("gc:us", "gc:us") == 0.0


class TestProbeTeardown:
    @pytest.mark.parametrize("probe", ["bandwidth", "rtt", "matrix"])
    def test_probes_are_freed_without_the_collector(self, monkeypatch, probe):
        """Every environment and fabric a probe builds is freed by
        reference counting once the probe has its number."""
        from repro.network import profiler

        refs = []

        class WatchedFabric(profiler.Fabric):
            def __init__(self, env, topology):
                super().__init__(env, topology)
                refs.extend((weakref.ref(self), weakref.ref(env)))

        monkeypatch.setattr(profiler, "Fabric", WatchedFabric)
        topo = build_topology({"gc:us": 2, "gc:eu": 1})
        gc.collect()
        gc.disable()
        try:
            if probe == "bandwidth":
                measure_bandwidth_bps(topo, "gc:us/0", "gc:eu/0", nbytes=1e8,
                                      runs=3)
            elif probe == "rtt":
                measure_rtt_s(topo, "gc:us/0", "gc:eu/0")
            else:
                profile_matrix(topo, {"gc:us": "gc:us/0", "gc:eu": "gc:eu/0"},
                               nbytes=1e8)
            assert refs
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
