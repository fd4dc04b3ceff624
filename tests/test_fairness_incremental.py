"""Property test: incremental rebalancing matches from-scratch max-min.

PR 2 replaced the fabric's rebuild-everything progressive-filling kernel
with an incremental one (membership maintained across rebalances, the
per-flow ceiling folded into a headroom counter, saturation tracked by
flags).  The optimisation is only legitimate if it is *invisible*: after
every rebalance the rate vector must equal, bit for bit, what the
pre-PR from-scratch algorithm would have produced for the same set of
active flows.

``reference_rates`` below is a direct port of the pre-PR
``Fabric._assign_rates`` (git history: the version that rebuilt the
resource table on every call).  The tests drive a live fabric through
seeded randomized arrival/departure sequences and compare the live
rates against the reference at every *complete* instant — i.e. once the
coalesced refill for the current timestamp has actually run.
"""

import copy
import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import Fabric, GBPS, MBPS, Site, Topology
from repro.network.fabric import _EPS, _ResourceState
from repro.simulation import Environment


def resource_capacity(fabric, resource_id):
    """A resource's capacity derived from its id string alone: the
    oracle for the capacities the fabric keeps on its states."""
    kind, __, rest = resource_id.partition(":")
    if kind == "egress" or kind == "ingress":
        return fabric.topology.get(rest).nic_bps
    if kind == "path":
        a, __, b = rest.partition("|")
        return fabric.topology.path(a, b).capacity_bps
    if kind == "channel":
        return fabric._channel_caps[rest]
    raise ValueError(f"unknown resource {resource_id!r}")


def reference_rates(fabric):
    """From-scratch max-min over the fabric's active flows.

    Faithful port of the pre-optimisation ``_assign_rates``: fresh
    ``_ResourceState`` table per call, the per-flow TCP/serialization
    ceiling modelled as a private single-member resource, progressive
    filling until every flow hits a saturated resource.  Returns
    ``{flow: rate_bps}`` without touching the live flows.
    """
    resources = {}
    rates = {}
    for flow in fabric._flows:
        rates[flow] = 0.0
        for resource_id in flow.resources:
            if resource_id not in resources:
                resources[resource_id] = _ResourceState(
                    capacity=resource_capacity(fabric, resource_id)
                )
            resources[resource_id].members.add(flow)
        private = f"flow:{flow.flow_id}"
        resources[private] = _ResourceState(capacity=flow.ceiling_bps)
        resources[private].members.add(flow)

    active = set(fabric._flows)
    while active:
        increment = min(
            state.capacity / len(state.members)
            for state in resources.values()
            if state.members
        )
        saturated_flows = set()
        for state in resources.values():
            if not state.members:
                continue
            state.capacity -= increment * len(state.members)
            if state.capacity <= _EPS * max(1.0, increment):
                saturated_flows |= state.members
        for flow in active:
            rates[flow] += increment
        if not saturated_flows:
            saturated_flows = set(active)
        for flow in saturated_flows:
            active.discard(flow)
            for state in resources.values():
                state.members.discard(flow)
    return rates


def mesh_topology(n_sites=4, nic_bps=1 * GBPS):
    topo = Topology()
    for i in range(n_sites):
        topo.add_site(
            Site(name=f"s{i}", provider="gc", zone="z", region=f"r{i}",
                 continent="US" if i % 2 == 0 else "EU",
                 tcp_window_bytes=64e6, nic_bps=nic_bps)
        )
    return topo


def at_complete_instant(env, fabric):
    """True once the coalesced refill for ``env.now`` has run.

    Rates are transiently stale between ``_mark_dirty`` and the
    deferred refill at the end of the instant; the equivalence claim
    only holds at quiescent points.
    """
    if fabric._refill_pending:
        return False
    return env.peek() > env.now or env.peek() == float("inf")


def assert_rates_match(env, fabric):
    expected = reference_rates(fabric)
    for flow in fabric._flows:
        assert flow.rate_bps == expected[flow], (
            f"flow {flow.flow_id} ({flow.src}->{flow.dst}) at t={env.now}: "
            f"incremental {flow.rate_bps!r} != reference {expected[flow]!r}"
        )


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_incremental_matches_reference_under_random_arrivals(seed):
    rng = random.Random(seed)
    topo = mesh_topology(n_sites=4)
    env = Environment()
    fabric = Fabric(env, topo)
    sites = [site for site in ("s0", "s1", "s2", "s3")]

    pending = []
    for _ in range(25):
        delay = rng.uniform(0.0, 2.0)
        src, dst = rng.sample(sites, 2)
        nbytes = rng.uniform(1e6, 200e6)

        def arrival(src=src, dst=dst, nbytes=nbytes):
            pending.append(fabric.transfer(src, dst, nbytes))

        timer = env.timeout(delay)
        timer.callbacks.append(lambda _event, fn=arrival: fn())

    checks = 0
    # Step the simulation manually; whenever the queue reaches a
    # complete instant with live flows, the incremental rates must
    # equal the from-scratch reference.
    while env.peek() != float("inf"):
        env.run(until=env.peek())
        if fabric._flows and at_complete_instant(env, fabric):
            assert_rates_match(env, fabric)
            checks += 1
    assert checks > 10, "property never exercised"
    assert all(event.processed for event in pending)


@pytest.mark.parametrize("seed", [3, 99])
def test_incremental_matches_reference_with_channels(seed):
    # Channel resources (named rate limiters) take a different capacity
    # path than NIC/path resources; cover them too.
    rng = random.Random(seed)
    topo = mesh_topology(n_sites=3)
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("narrow", 50 * MBPS)
    fabric.define_channel("wide", 400 * MBPS)

    pending = []
    for _ in range(12):
        delay = rng.uniform(0.0, 1.0)
        src, dst = rng.sample(["s0", "s1", "s2"], 2)
        nbytes = rng.uniform(1e6, 50e6)
        channels = rng.choice([(), ("narrow",), ("wide",), ("narrow", "wide")])

        def arrival(src=src, dst=dst, nbytes=nbytes, channels=channels):
            pending.append(fabric.transfer(src, dst, nbytes, channels=channels))

        timer = env.timeout(delay)
        timer.callbacks.append(lambda _event, fn=arrival: fn())

    checks = 0
    while env.peek() != float("inf"):
        env.run(until=env.peek())
        if fabric._flows and at_complete_instant(env, fabric):
            assert_rates_match(env, fabric)
            checks += 1
    assert checks > 5, "property never exercised"
    assert all(event.processed for event in pending)


def test_departures_trigger_exact_redistribution():
    # Two flows share s0's egress; when the small one departs the
    # survivor's rate must snap to exactly what a fresh max-min gives.
    topo = mesh_topology(n_sites=3)
    env = Environment()
    fabric = Fabric(env, topo)
    small = fabric.transfer("s0", "s1", 10e6)
    fabric.transfer("s0", "s2", 500e6)
    env.run(small)
    # Drain the instant so the post-departure refill has run.
    while env.peek() == env.now:
        env.run(until=env.peek())
    assert len(fabric._flows) == 1
    assert_rates_match(env, fabric)


@pytest.mark.parametrize("seed", [5, 11, 2024])
def test_incremental_matches_reference_under_batched_fan_outs(seed):
    # Same-instant fan-outs share admission timers unless another event
    # is queued between two transfers; equal sizes make flows finish
    # together, so completions are batched too. Some fan-outs queue a
    # no-op timer (same instant or shortly after) between transfers.
    rng = random.Random(seed)
    topo = mesh_topology(n_sites=5)
    env = Environment()
    fabric = Fabric(env, topo)
    sites = [f"s{i}" for i in range(5)]

    pending = []
    joined = 0

    def fan_out(src, flows, gaps):
        nonlocal joined
        for (dst, nbytes), gap in zip(flows, gaps):
            before = env._sequence
            pending.append(fabric.transfer(src, dst, nbytes))
            joined += env._sequence == before
            if gap is not None:
                env.timeout(gap)

    for _ in range(10):
        src = rng.choice(sites)
        others = [site for site in sites if site != src]
        size = rng.uniform(5e6, 80e6)
        flows = [
            (rng.choice(others), size if rng.random() < 0.6
             else rng.uniform(1e6, 100e6))
            for _ in range(rng.randint(2, 8))
        ]
        interleave = rng.random() < 0.4
        gaps = [rng.choice([0.0, 0.01]) if interleave else None
                for _ in flows]
        timer = env.timeout(rng.uniform(0.0, 2.0))
        timer.callbacks.append(
            lambda _event, args=(src, flows, gaps): fan_out(*args))

    checks = 0
    while env.peek() != float("inf"):
        env.run(until=env.peek())
        if fabric._flows and at_complete_instant(env, fabric):
            assert_rates_match(env, fabric)
            checks += 1
    assert checks > 10, "property never exercised"
    assert joined > 0, "no transfer joined an admission batch"
    assert all(event.processed for event in pending)


@pytest.mark.parametrize("seed", [4, 17, 303])
def test_incremental_matches_reference_under_topology_changes(seed):
    # Live path changes between arrivals on a few reused routes. Some
    # changes land while a flow is still propagating, so its route (and
    # its resource states) was resolved under the old topology.
    rng = random.Random(seed)
    topo = mesh_topology(n_sites=4)
    env = Environment()
    fabric = Fabric(env, topo)
    sites = ["s0", "s1", "s2", "s3"]
    routes = [tuple(rng.sample(sites, 2)) for _ in range(4)]
    pending = []
    in_flight_changes = 0

    def change(a, b, capacity, rtt):
        nonlocal in_flight_changes
        in_flight_changes += fabric._admission is not None
        topo.set_path(a, b, capacity_bps=capacity, rtt_s=rtt)
        fabric.on_topology_change()

    def arrival(src, dst, nbytes):
        pending.append(fabric.transfer(src, dst, nbytes))

    for _ in range(30):
        delay = rng.uniform(0.0, 10.0)
        src, dst = rng.choice(routes)
        args = (src, dst, rng.uniform(1e6, 30e6))
        env.timeout(delay).callbacks.append(lambda _e, a=args: arrival(*a))
        if rng.random() < 0.5:
            a, b = rng.sample(sites, 2)
            args = (a, b, rng.choice([100, 300, 600]) * MBPS,
                    rng.choice([None, 0.02, 0.08]))
            env.timeout(delay + rng.choice([0.0, 0.005, 0.3])).callbacks.append(
                lambda _e, a=args: change(*a))

    checks = 0
    while env.peek() != float("inf"):
        env.run(until=env.peek())
        if fabric._flows and at_complete_instant(env, fabric):
            assert_rates_match(env, fabric)
            for flow in fabric._flows:
                assert all(fabric._states[s.rid] is s for s in flow.states)
            checks += 1
    assert checks > 10, "property never exercised"
    assert in_flight_changes > 0, "no change landed during propagation"
    assert all(event.processed for event in pending)


# ---------------------------------------------------------------------------
# targeted invalidation: a topology change drops only the changed pair
# ---------------------------------------------------------------------------

CHANNEL_SETS = ((), ("c0",), ("c0", "c1"), ("c1", "c1"))
site_names = st.sampled_from("abcd")
transfer_op = st.tuples(
    st.just("transfer"), site_names, site_names,
    st.floats(1e5, 5e8), st.sampled_from(CHANNEL_SETS),
)
change_op = st.tuples(
    st.just("change"), site_names, site_names,
    st.sampled_from([None, 50 * MBPS, 400 * MBPS, 2 * GBPS]),
    st.sampled_from([None, 0.0, 0.01, 0.2]),
    st.booleans(),
)
advance_op = st.tuples(st.just("advance"), st.sampled_from([0.0, 0.001, 0.05, 3.0]))


def region_topology():
    """Four sites: two zones of one region, a second US region and the
    EU, so pairs cross zones, regions and continents."""
    topo = Topology()
    for name, zone, region, continent in (
        ("a", "us-east-1", "us-east", "US"),
        ("b", "us-east-2", "us-east", "US"),
        ("c", "us-west-1", "us-west", "US"),
        ("d", "eu-west-1", "eu-west", "EU"),
    ):
        topo.add_site(Site(name=name, provider="gc", zone=zone, region=region,
                           continent=continent, nic_bps=1 * GBPS))
    return topo


def assert_routes_match_fresh(fabric):
    """Every cached route equals a fresh fabric's resolution over a copy
    of the topology, and every state holds its rid-derived capacity."""
    topology = copy.deepcopy(fabric.topology)
    topology._path_cache.clear()  # resolve every pair from scratch
    fresh = Fabric(Environment(), topology)
    for name, capacity in fabric._channel_caps.items():
        fresh.define_channel(name, capacity)
    for key, entry in fabric._rid_cache.items():
        expected = fresh._resolve_transfer(*key)
        assert entry[:4] + entry[5:] == expected[:4] + expected[5:], key
        assert [s.rid for s in entry[4]] == [s.rid for s in expected[4]], key
        assert entry[5] == entry[2].single_stream_bps
        assert all(fabric._states[s.rid] is s for s in entry[4])
    for rid, state in fabric._states.items():
        assert state.capacity == resource_capacity(fresh, rid), rid
    if fabric._pair_routes is not None:
        indexed = [key for keys in fabric._pair_routes.values() for key in keys]
        assert sorted(indexed) == sorted(fabric._rid_cache)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.one_of(transfer_op, change_op, advance_op),
                    min_size=1, max_size=30))
# A bare set_path lowers a live flow's path; the next transfer catches
# it up and must refill, or the flow keeps its old rate.
@example(ops=[("transfer", "a", "b", 5e8, ()), ("advance", 0.05),
              ("change", "a", "b", 50 * MBPS, None, False)])
def test_targeted_invalidation_matches_fresh_resolution(ops):
    topo = region_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("c0", 300 * MBPS)
    fabric.define_channel("c1", 800 * MBPS)
    snapshot: dict = {}
    changed: set = set()
    # End on a transfer, so a trailing bare set_path is caught up too.
    for op in [*ops, ("transfer", "a", "d", 1e6, ())]:
        if op[0] == "transfer":
            __, src, dst, nbytes, channels = op
            fabric.transfer(src, dst, nbytes, channels=channels)
            # A transfer catches up first, after a bare set_path too.
            assert fabric._topology_version == topo._version
        elif op[0] == "change":
            __, a, b, capacity, rtt, notify = op
            topo.set_path(a, b, capacity_bps=capacity, rtt_s=rtt)
            changed.add(frozenset((a, b)))
            if notify:
                fabric.on_topology_change()
                env.run(until=env.now)  # the deferred refill catches up
                assert fabric._topology_version == topo._version
        else:
            env.run(until=env.now + op[1])
        if fabric._topology_version != topo._version:
            continue  # until the next transfer or rebalance
        assert_routes_match_fresh(fabric)
        for key, entry in snapshot.items():
            if frozenset(key[:2]) not in changed:
                assert fabric._rid_cache[key] is entry, key
        snapshot = dict(fabric._rid_cache)
        changed = set()
        if fabric._flows and at_complete_instant(env, fabric):
            assert_rates_match(env, fabric)


def test_redefined_channel_and_set_path_keep_routes_on_their_states():
    topo = region_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("c0", 300 * MBPS)
    fabric.define_channel("c1", 800 * MBPS)
    routes = [("a", "b", ("c0",)), ("b", "a", ("c0", "c1")),
              ("a", "d", ("c1", "c1")), ("c", "c", ("c0",)), ("d", "b", ())]
    flows = [fabric.transfer(src, dst, 5e7, channels=channels)
             for src, dst, channels in routes]
    before = {key: entry[4] for key, entry in fabric._rid_cache.items()}
    env.run(until=0.05)
    # Redefine a channel that live routes cross, then change a path.
    fabric.define_channel("c0", 120 * MBPS)
    topo.set_path("a", "b", capacity_bps=50 * MBPS)
    flows.append(fabric.transfer("a", "b", 1e6, channels=("c0",)))
    assert fabric._topology_version == topo._version
    assert_routes_match_fresh(fabric)
    for key, entry in fabric._rid_cache.items():
        assert all(fabric._states[state.rid] is state for state in entry[4])
    # The re-resolved a->b route crosses the very states it crossed
    # before the change, the redefined channel's included.
    assert fabric._rid_cache[("a", "b", ("c0",))][4] == before[("a", "b", ("c0",))]
    assert fabric._states["channel:c0"].capacity == 120 * MBPS
    assert fabric._states["path:a|b"].capacity == 50 * MBPS
    # A channel named twice is one state on the route.
    twice = fabric._rid_cache[("a", "d", ("c1", "c1"))][4]
    assert [state.rid for state in twice] == [
        "egress:a", "ingress:d", "path:a|d", "channel:c1"]
    # A loopback route crosses its channels only.
    assert [state.rid for state in fabric._rid_cache[("c", "c", ("c0",))][4]] \
        == ["channel:c0"]
    env.run(env.all_of(flows))
    assert not fabric._resources


# ---------------------------------------------------------------------------
# wholesale completion: a completion that empties the fabric resets
# membership in one step, and must leave what per-flow teardown leaves
# ---------------------------------------------------------------------------

def complete_flow_by_flow(fabric):
    """``Fabric._complete_due_flows`` with per-flow teardown only: the
    oracle for the wholesale reset."""
    fabric._advance_clock()
    finished = [
        flow for flow in fabric._flows
        if flow.remaining_bytes
        <= max(_EPS * max(1.0, flow.total_bytes), flow.rate_bps * 1e-6 / 8.0)
    ]
    for flow in finished:
        fabric._unregister_flow(flow)
        fabric._finish_flows([flow])
    fabric.env.succeed_all(finished)
    fabric._mark_dirty()


def membership(fabric):
    """Active flows, occupied resources in order, every state's members
    and every flow's rate, keyed by flow id."""
    return (
        sorted(flow.flow_id for flow in fabric._flows),
        list(fabric._resources),
        {rid: sorted(flow.flow_id for flow in state.members)
         for rid, state in fabric._states.items()},
        {flow.flow_id: flow.rate_bps for flow in fabric._flows},
    )


def channel_fabric(env):
    fabric = Fabric(env, mesh_topology(n_sites=4))
    fabric.define_channel("c", 300 * MBPS)
    return fabric


def start_fan_outs(env, fabric, fan_outs, finish_times):
    """Schedule each fan-out (delay, src, [(dst, nbytes, channels)]) and
    record the instant each flow completes, by flow id."""
    def record(event):
        finish_times[event.value.flow_id] = env.now

    def fan_out(src, flows):
        for dst, nbytes, channels in flows:
            done = fabric.transfer(f"s{src}", f"s{dst}", nbytes,
                                   channels=channels)
            done.callbacks.append(record)

    for delay, src, flows in fan_outs:
        env.timeout(delay).callbacks.append(
            lambda _event, args=(src, flows): fan_out(*args))


def next_fan_out_rates(fabric):
    """Rates of a three-flow fan-out started on ``fabric`` once its
    admission and refill have run."""
    env = fabric.env
    for dst in (1, 2, 3):
        fabric.transfer("s0", f"s{dst}", 1e9, channels=("c",))
    env.run(until=env.peek())
    return sorted(flow.rate_bps for flow in fabric._flows)


flow_spec = st.tuples(
    st.integers(1, 3), st.sampled_from([4e6, 4e6, 2e7, 6e7]),
    st.sampled_from([(), ("c",)]),
)
fan_out_spec = st.tuples(
    st.sampled_from([0.0, 0.0, 0.3, 2.0]), st.integers(0, 3),
    st.lists(flow_spec, min_size=1, max_size=6),
)


@settings(max_examples=40, deadline=None)
@given(fan_outs=st.lists(fan_out_spec, min_size=1, max_size=5))
# Equal flows on one route finish together: every completion empties it.
@example(fan_outs=[(0.0, 0, [(1, 4e6, ("c",))] * 4)])
# A longer flow outlives the rest: a partial completion, then a whole one.
@example(fan_outs=[(0.0, 0, [(1, 4e6, ()), (2, 4e6, ("c",)), (1, 6e7, ())])])
def test_wholesale_completion_matches_per_flow_teardown(fan_outs):
    env, reference_env = Environment(), Environment()
    fabric, reference = channel_fabric(env), channel_fabric(reference_env)
    reference._complete_due_flows = types.MethodType(
        complete_flow_by_flow, reference)
    finish_times: dict = {}
    reference_times: dict = {}
    start_fan_outs(env, fabric, fan_outs, finish_times)
    start_fan_outs(reference_env, reference, fan_outs, reference_times)
    while env.peek() != float("inf"):
        assert reference_env.peek() == env.peek()
        until = env.peek()
        env.run(until=until)
        reference_env.run(until=until)
        assert membership(fabric) == membership(reference)
        if fabric._flows and at_complete_instant(env, fabric):
            assert_rates_match(env, fabric)
    assert reference_env.peek() == float("inf")
    assert finish_times == reference_times
    assert len(finish_times) == sum(len(flows) for __, __, flows in fan_outs)
    assert not fabric._resources
    assert all(not state.members for state in fabric._states.values())
    # No stale membership: the next fan-out fills as on a fresh fabric.
    assert next_fan_out_rates(fabric) == next_fan_out_rates(
        channel_fabric(Environment()))


def test_completion_that_empties_the_fabric_skips_per_flow_teardown():
    env = Environment()
    fabric = channel_fabric(env)
    teardowns = []
    unregister = fabric._unregister_flow
    fabric._unregister_flow = lambda flow: (teardowns.append(flow.flow_id),
                                            unregister(flow))
    short = [fabric.transfer("s0", "s1", 4e6, channels=("c",))
             for _ in range(3)]
    long = fabric.transfer("s0", "s2", 6e7)
    env.run(short[0])
    # A partial completion tears its flows down one by one...
    assert sorted(teardowns) == [0, 1, 2]
    assert all(event.triggered for event in short)
    env.run(long)
    # ...and the one that empties the fabric resets it in one step.
    assert sorted(teardowns) == [0, 1, 2]
    assert not fabric._flows and not fabric._resources
    assert all(not state.members for state in fabric._states.values())
