"""Property-based tests of cross-module invariants (hypothesis)."""

from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import egress_price_per_gb
from repro.controlplane import default_price_models
from repro.core import cost_report, granularity, speedup_from_scaling
from repro.faults import generate_schedule
from repro.hivemind import (
    HivemindRunConfig,
    PeerSpec,
    compress,
    decompress,
    run_hivemind,
)
from repro.network import (
    Fabric,
    GBPS,
    Site,
    Topology,
    TrafficMeter,
    build_topology,
    classify_traffic,
    multi_stream_bps,
)
from repro.network.fabric import sum_traffic
from repro.simulation import Environment
from repro.training import GradientAccumulator, MLP, compute_gradient


# --- network fabric: conservation and fairness -------------------------

flow_sets = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=1e3, max_value=1e8),
    ).filter(lambda t: t[0] != t[1]),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(flows=flow_sets)
def test_property_fabric_conserves_bytes_and_terminates(flows):
    topology = Topology()
    for name in ("a", "b", "c"):
        topology.add_site(Site(name=name, provider="gc", zone="z",
                               region="r", continent="US",
                               nic_bps=1 * GBPS))
    env = Environment()
    fabric = Fabric(env, topology)
    events = [fabric.transfer(src, dst, nbytes)
              for src, dst, nbytes in flows]
    env.run()
    assert all(event.processed for event in events)
    assert fabric.active_flows == 0
    assert fabric.meter.total_bytes == pytest.approx(
        sum(nbytes for __, __, nbytes in flows), rel=1e-6
    )


@settings(max_examples=40, deadline=None)
@given(
    nbytes=st.floats(min_value=1e4, max_value=1e9),
    competitors=st.integers(min_value=0, max_value=6),
)
def test_property_contention_never_speeds_a_flow_up(nbytes, competitors):
    topology = Topology()
    for name in ("a", "b"):
        topology.add_site(Site(name=name, provider="gc", zone="z",
                               region="r", continent="US",
                               nic_bps=1 * GBPS))

    def run(extra):
        env = Environment()
        fabric = Fabric(env, topology)
        main = fabric.transfer("a", "b", nbytes)
        for __ in range(extra):
            fabric.transfer("a", "b", nbytes)
        env.run(main)
        return env.now

    alone = run(0)
    contended = run(competitors)
    assert contended >= alone * (1 - 1e-9)


# --- TCP model ----------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    capacity=st.floats(min_value=1e6, max_value=1e10),
    rtt=st.floats(min_value=1e-4, max_value=0.5),
    window=st.floats(min_value=1e4, max_value=1e8),
    streams=st.integers(min_value=1, max_value=128),
)
def test_property_multi_stream_bounded_and_monotone(capacity, rtt, window,
                                                    streams):
    from repro.network import PathSpec

    path = PathSpec(capacity_bps=capacity, rtt_s=rtt, window_bytes=window)
    bandwidth = multi_stream_bps(path, streams)
    assert bandwidth <= capacity * (1 + 1e-12)
    assert bandwidth >= multi_stream_bps(path, max(streams - 1, 1)) * (1 - 1e-12)
    assert multi_stream_bps(path, 1) == path.single_stream_bps


# --- traffic classification ----------------------------------------------

sites = st.builds(
    Site,
    name=st.sampled_from(["s1", "s2"]),
    provider=st.sampled_from(["gc", "aws", "azure"]),
    zone=st.sampled_from(["z1", "z2"]),
    region=st.sampled_from(["r1", "r2"]),
    continent=st.sampled_from(["US", "EU", "ASIA", "AUS"]),
)


@settings(max_examples=100, deadline=None)
@given(a=sites, b=sites)
def test_property_classification_symmetric_and_total(a, b):
    klass = classify_traffic(a, b)
    assert klass == classify_traffic(b, a)
    from repro.network import TrafficClass

    assert klass in TrafficClass.ALL


@settings(max_examples=100, deadline=None)
@given(a=sites, b=sites)
def test_property_egress_price_nonnegative_and_bounded(a, b):
    from repro.cloud import egress_price_per_gb

    price = egress_price_per_gb(a, b)
    assert 0.0 <= price <= 0.15  # Table 1's most expensive class


# --- granularity law ------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    calc=st.floats(min_value=1e-3, max_value=1e4),
    comm=st.floats(min_value=1e-3, max_value=1e4),
    k=st.floats(min_value=1.0, max_value=32.0),
)
def test_property_scaling_law_matches_direct_simulation(calc, comm, k):
    """The closed form (g+1)/(g/k+1) equals the direct epoch-time ratio."""
    g = granularity(calc, comm)
    direct = (calc + comm) / (calc / k + comm)
    assert speedup_from_scaling(g, k) == pytest.approx(direct, rel=1e-9)


# --- compression round trips ----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=1, max_size=200),
)
def test_property_compression_preserves_weighted_average_ordering(values):
    array = np.asarray(values)
    fp16 = decompress(compress(array, "fp16"), "fp16", array.size)
    # Means survive fp16 within its precision.
    scale = max(abs(array).max(), 1.0)
    assert abs(fp16.mean() - array.mean()) <= scale * 1e-2


# --- gradient accumulation = union batch ----------------------------------

@settings(max_examples=20, deadline=None)
@given(
    splits=st.lists(st.integers(min_value=1, max_value=16), min_size=1,
                    max_size=5),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_accumulated_gradient_equals_union_batch(splits, seed):
    rng = np.random.default_rng(seed)
    total = sum(splits)
    features = rng.normal(size=(total, 4))
    labels = rng.integers(0, 3, size=total)
    model = MLP(4, [6], 3, rng=np.random.default_rng(seed + 1))
    accumulator = GradientAccumulator(model.state_vector().size, total)
    offset = 0
    for size in splits:
        grad, __ = compute_gradient(model, features[offset:offset + size],
                                    labels[offset:offset + size])
        accumulator.add(grad, size)
        offset += size
    union, __ = compute_gradient(model, features, labels)
    np.testing.assert_allclose(accumulator.average(), union, rtol=1e-9,
                               atol=1e-12)


# --- whole training runs: accounting identities ------------------------


@st.composite
def run_configs(draw):
    """A small run: 2-6 peers on one or two locations, 1-4 epochs, with
    or without a fault schedule, overlap and time-varying prices."""
    peers = draw(st.integers(min_value=2, max_value=6))
    locations = draw(st.sampled_from([("gc:us",), ("gc:us", "gc:eu")]))
    epochs = draw(st.integers(min_value=1, max_value=4))
    fault_seed = draw(st.none() | st.integers(min_value=0, max_value=2 ** 16))
    intensity = draw(st.floats(min_value=0.5, max_value=4.0))
    overlap = draw(st.booleans())
    counts = {loc: 0 for loc in locations}
    for index in range(peers):
        counts[locations[index % len(locations)]] += 1
    topology = build_topology(counts)
    sites = list(topology.sites)
    schedule = None
    if fault_seed is not None:
        schedule = generate_schedule(
            sites, seed=fault_seed, intensity=intensity, horizon_s=1800.0,
            zones={site: topology.get(site).zone for site in sites},
        )
    return HivemindRunConfig(
        model="conv", peers=[PeerSpec(site, "t4") for site in sites],
        topology=topology, target_batch_size=4096, epochs=epochs,
        overlap_communication=overlap, fault_schedule=schedule,
        # Time-varying prices make the run record uptime windows.
        price_models=default_price_models(locations),
        monitor_interval_s=None,
    )


@settings(max_examples=15, deadline=None)
@given(config=run_configs())
def test_property_run_accounting_identities(config):
    topology, overlap = config.topology, config.overlap_communication
    result = run_hivemind(config)

    total = sum(result.egress_bytes_by_pair.values())
    assert sum(result.egress_bytes_by_class.values()) == pytest.approx(
        total, rel=1e-12)
    assert sum(result.egress_bytes_by_site.values()) == pytest.approx(
        total, rel=1e-12)
    assert sum(sum_traffic(result.traffic, itemgetter(2)).values()) == \
        pytest.approx(total, rel=1e-12)

    # Billing: every metered byte is priced exactly once, at its pair's
    # egress rate, whichever VM's internal or external line carries it.
    report = cost_report(result)
    billed = sum(
        (vm.internal_egress_per_h + vm.external_egress_per_h)
        * report.duration_h for vm in report.vms
    )
    priced = sum(
        nbytes / 1e9 * egress_price_per_gb(topology.get(src), topology.get(dst))
        for (src, dst), nbytes in result.egress_bytes_by_pair.items()
    )
    assert billed == pytest.approx(priced, rel=1e-9)

    assert len(result.epochs) == config.epochs
    previous_transfer_s = 0.0
    for index, epoch in enumerate(result.epochs):
        assert epoch.index == index
        if overlap:
            # A round runs while the next epoch accumulates, and that
            # epoch waits for it at its matchmaking boundary.
            assert epoch.wall_s == pytest.approx(
                max(epoch.calc_s + epoch.matchmaking_s, previous_transfer_s),
                rel=1e-9)
            previous_transfer_s = epoch.transfer_s
        else:
            assert epoch.wall_s == pytest.approx(
                epoch.calc_s + epoch.matchmaking_s + epoch.transfer_s,
                rel=1e-9)
    assert sum(e.wall_s for e in result.epochs) <= (1 + 1e-9) * sum(
        e.calc_s + e.matchmaking_s + e.transfer_s for e in result.epochs)

    for windows in result.uptime_intervals_by_site.values():
        for start, end in windows:
            assert 0.0 <= start < end <= result.duration_s
        for (__, end), (start, __) in zip(windows, windows[1:]):
            assert end <= start

    assert run_hivemind(config) == result


def _delivery_order_views(deliveries):
    """Class, site, pair and tag sums accumulated one delivery at a time,
    as a meter with one table per view would keep them."""
    views = {"class": {}, "site": {}, "pair": {}, "tag": {}}
    for src, dst, nbytes, tag in deliveries:
        for view, key in (("class", classify_traffic(src, dst)),
                          ("site", src.name),
                          ("pair", (src.name, dst.name)),
                          ("tag", tag or "data")):
            views[view][key] = views[view].get(key, 0.0) + nbytes
    return views


@settings(max_examples=15, deadline=None)
@given(config=run_configs())
def test_property_traffic_views_match_delivery_order_sums(config):
    deliveries = []
    record = TrafficMeter.record

    def spy(meter, src, dst, nbytes, tag=None):
        if nbytes > 0:
            deliveries.append((src, dst, nbytes, tag))
        record(meter, src, dst, nbytes, tag)

    TrafficMeter.record = spy
    try:
        result = run_hivemind(config)
    finally:
        TrafficMeter.record = record

    expected = _delivery_order_views(deliveries)
    derived = {
        "class": result.egress_bytes_by_class,
        "site": result.egress_bytes_by_site,
        "pair": result.egress_bytes_by_pair,
        "tag": sum_traffic(result.traffic, itemgetter(2)),
    }
    whole = all(float(nbytes).is_integer() for _, _, nbytes, _ in deliveries)
    # Both orders are recursive sums of the same nonnegative terms, each
    # within (n - 1) * u of the exact sum (u = 2**-53), so they differ by
    # at most twice that. Whole bytes sum exactly in any order.
    bound = 0.0 if whole else 2 * (len(deliveries) - 1) * 2.0 ** -53
    for view, sums in derived.items():
        # Same groups, in the order of each group's first delivery.
        assert list(sums) == list(expected[view]), view
        # Fractional bytes (an aborted flow's, or a payload split into
        # uneven parts) make the table's regrouped sums round differently.
        for key, nbytes in sums.items():
            assert nbytes == pytest.approx(expected[view][key], rel=bound,
                                           abs=0), (view, key)

    report = cost_report(result)
    parts = sum(
        vm.instance_per_h + vm.internal_egress_per_h
        + vm.external_egress_per_h + vm.data_loading_per_h
        for vm in report.vms
    ) * report.duration_h
    assert report.total_usd == pytest.approx(parts, rel=1e-12)


# --- fault schedules: fuzzed runs finish and repeat --------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    intensity=st.floats(min_value=0.0, max_value=4.0),
    horizon_s=st.floats(min_value=60.0, max_value=3600.0),
)
def test_property_fuzzed_fault_schedules_finish_and_repeat(seed, intensity,
                                                           horizon_s):
    topology = build_topology({"gc:us": 2, "gc:eu": 2})
    sites = list(topology.sites)
    schedule = generate_schedule(
        sites, seed=seed, intensity=intensity, horizon_s=horizon_s,
        zones={site: topology.get(site).zone for site in sites},
    )
    config = HivemindRunConfig(
        model="conv", peers=[PeerSpec(site, "t4") for site in sites],
        topology=topology, epochs=2, fault_schedule=schedule,
        monitor_interval_s=None,
    )

    def outcome(result):
        return (
            result.throughput_sps,
            [(e.calc_s, e.matchmaking_s, e.transfer_s) for e in result.epochs],
            result.egress_bytes_by_class,
            result.egress_bytes_by_site,
        )

    # A failed event nothing handles raises out of the run.
    first = run_hivemind(config)
    assert len(first.epochs) == 2
    assert outcome(run_hivemind(config)) == outcome(first)
