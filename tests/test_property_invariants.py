"""Property-based tests of cross-module invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane import default_price_models
from repro.core import granularity, speedup_from_scaling
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
    build_topology,
    classify_traffic,
    multi_stream_bps,
)
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


@settings(max_examples=15, deadline=None)
@given(
    peers=st.integers(min_value=2, max_value=6),
    locations=st.sampled_from([("gc:us",), ("gc:us", "gc:eu")]),
    epochs=st.integers(min_value=1, max_value=4),
    fault_seed=st.none() | st.integers(min_value=0, max_value=2 ** 16),
    intensity=st.floats(min_value=0.5, max_value=4.0),
    overlap=st.booleans(),
)
def test_property_run_accounting_identities(peers, locations, epochs,
                                            fault_seed, intensity, overlap):
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
    config = HivemindRunConfig(
        model="conv", peers=[PeerSpec(site, "t4") for site in sites],
        topology=topology, target_batch_size=4096, epochs=epochs,
        overlap_communication=overlap, fault_schedule=schedule,
        # Time-varying prices make the run record uptime windows.
        price_models=default_price_models(locations),
        monitor_interval_s=None,
    )
    result = run_hivemind(config)

    total = sum(result.egress_bytes_by_pair.values())
    assert sum(result.egress_bytes_by_class.values()) == pytest.approx(
        total, rel=1e-12)
    assert sum(result.egress_bytes_by_site.values()) == pytest.approx(
        total, rel=1e-12)

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
