"""Tests for the flow-level fabric: fair sharing, TCP caps, metering."""

import gc
import weakref
from operator import itemgetter

import pytest

from repro.network import (
    Fabric,
    Flow,
    GBPS,
    Message,
    Site,
    Topology,
    TransferAborted,
    classify_traffic,
)
from repro.network.fabric import sum_traffic
from repro.simulation import Environment, Event, SimulationError
from repro.telemetry import Telemetry


def two_site_topology(nic_bps=1 * GBPS, window=64e6, rtt=None):
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_site(
            Site(name=name, provider="gc", zone="z", region="r", continent="US",
                 tcp_window_bytes=window, nic_bps=nic_bps)
        )
    if rtt is not None:
        topo.set_path("a", "b", rtt_s=rtt)
    return topo


def test_single_transfer_takes_bytes_over_bandwidth():
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    nbytes = 125e6  # 1 Gbit
    done = fabric.transfer("a", "b", nbytes)
    env.run(done)
    # 1 Gbit over 1 Gb/s plus sub-ms propagation.
    assert env.now == pytest.approx(1.0, rel=0.01)


def test_zero_byte_transfer_costs_propagation_only():
    topo = two_site_topology(rtt=0.2)
    env = Environment()
    fabric = Fabric(env, topo)
    done = fabric.transfer("a", "b", 0.0)
    env.run(done)
    assert env.now == pytest.approx(0.1)


def test_negative_bytes_rejected():
    topo = two_site_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    with pytest.raises(ValueError):
        fabric.transfer("a", "b", -5)


def test_two_flows_share_shared_egress_fairly():
    # Both flows leave site a: they halve a's NIC, so each takes ~2x longer.
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    nbytes = 125e6
    d1 = fabric.transfer("a", "b", nbytes)
    d2 = fabric.transfer("a", "c", nbytes)
    env.run(env.all_of([d1, d2]))
    assert env.now == pytest.approx(2.0, rel=0.01)


def test_disjoint_flows_do_not_interfere():
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    nbytes = 125e6
    d1 = fabric.transfer("a", "b", nbytes)
    d2 = fabric.transfer("c", "b", nbytes)
    # Both flows share b's ingress -> still 2x.
    env.run(env.all_of([d1, d2]))
    assert env.now == pytest.approx(2.0, rel=0.01)

    env2 = Environment()
    fabric2 = Fabric(env2, topo)
    d3 = fabric2.transfer("a", "b", nbytes)
    d4 = fabric2.transfer("b", "c", nbytes)
    # Disjoint NICs for egress/ingress... b egress vs b ingress are
    # separate resources, so these run in parallel.
    env2.run(env2.all_of([d3, d4]))
    assert env2.now == pytest.approx(1.0, rel=0.01)


def test_late_flow_slows_down_early_flow():
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    nbytes = 125e6  # 1s alone
    d1 = fabric.transfer("a", "b", nbytes)
    results = {}

    def late_starter():
        yield env.timeout(0.5)
        d2 = fabric.transfer("a", "c", nbytes)
        yield d2
        results["late_done"] = env.now

    env.process(late_starter())
    env.run(d1)
    results["early_done"] = env.now
    env.run()
    # Early flow: 0.5s at full rate (0.5 Gbit) + remaining 0.5 Gbit at
    # half rate (1.0s) -> finishes ~1.5s.
    assert results["early_done"] == pytest.approx(1.5, rel=0.02)
    # Late flow: half rate from 0.5 to 1.5 (0.5 Gbit done), then full
    # rate for remaining 0.5 Gbit -> ~2.0s.
    assert results["late_done"] == pytest.approx(2.0, rel=0.02)


def test_tcp_window_caps_single_stream():
    # 1 MB window at 200 ms RTT -> 40 Mb/s even though the NIC is 1 Gb/s.
    topo = two_site_topology(nic_bps=1 * GBPS, window=1e6, rtt=0.2)
    env = Environment()
    fabric = Fabric(env, topo)
    nbytes = 5e6  # 40 Mbit
    done = fabric.transfer("a", "b", nbytes)
    env.run(done)
    expected = 0.1 + nbytes * 8 / (8 * 1e6 / 0.2)
    assert env.now == pytest.approx(expected, rel=0.01)


def test_multiple_streams_raise_throughput():
    topo = two_site_topology(nic_bps=1 * GBPS, window=1e6, rtt=0.2)
    env = Environment()
    fabric = Fabric(env, topo)
    nbytes = 5e6
    done = fabric.transfer("a", "b", nbytes, streams=10)
    env.run(done)
    # 10 streams x 40 Mb/s = 400 Mb/s.
    expected = 0.1 + nbytes * 8 / (10 * 8 * 1e6 / 0.2)
    assert env.now == pytest.approx(expected, rel=0.01)


def test_stream_cap_models_serialization_bottleneck():
    # A VM's serialization budget is a channel its flows cross.
    topo = two_site_topology(nic_bps=10 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("ser", 1.1 * GBPS)
    nbytes = 1.1e9 / 8  # 1.1 Gbit
    done = fabric.transfer("a", "b", nbytes, channels=("ser",))
    env.run(done)
    assert env.now == pytest.approx(1.0, rel=0.01)


def test_traffic_meter_records_pairs_and_classes():
    topo = two_site_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.transfer("a", "b", 1000.0)
    fabric.transfer("a", "b", 500.0)
    env.run()
    assert fabric.meter.table == {("a", "b", "data"): 1500.0}
    assert fabric.meter.total_bytes == 1500.0
    by_class = sum_traffic(
        fabric.meter.table,
        lambda key: classify_traffic(topo.get(key[0]), topo.get(key[1])),
    )
    assert by_class == {"intra-zone": 1500.0}


def test_each_fabric_meters_into_its_own_table():
    topo = two_site_topology()
    env = Environment()
    first, second = Fabric(env, topo), Fabric(env, topo)
    first.transfer("a", "b", 1000.0)
    second.transfer("b", "a", 250.0, tag="sync")
    env.run()
    assert first.meter.table == {("a", "b", "data"): 1000.0}
    assert second.meter.table == {("b", "a", "sync"): 250.0}


def test_many_concurrent_flows_complete_and_conserve_bytes():
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    events = []
    for i in range(20):
        src, dst = ("a", "b") if i % 2 == 0 else ("b", "c")
        events.append(fabric.transfer(src, dst, 1e6 * (i + 1)))
    env.run()
    assert all(event.processed for event in events)
    assert fabric.meter.total_bytes == pytest.approx(sum(1e6 * (i + 1) for i in range(20)))
    assert fabric.active_flows == 0


def test_named_channel_caps_aggregate_rate():
    # Two flows to different destinations share one 100 Mb/s channel.
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("avg:a", 100e6)
    nbytes = 12.5e6  # 100 Mbit each
    d1 = fabric.transfer("a", "b", nbytes, channels=("avg:a",))
    d2 = fabric.transfer("a", "c", nbytes, channels=("avg:a",))
    env.run(env.all_of([d1, d2]))
    # 200 Mbit over a shared 100 Mb/s channel -> ~2 s.
    assert env.now == pytest.approx(2.0, rel=0.02)


def test_undefined_channel_rejected():
    topo = two_site_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    with pytest.raises(KeyError):
        fabric.transfer("a", "b", 100.0, channels=("nope",))


def test_undefined_channel_creates_no_state_and_no_route():
    # The route b->a would create egress:b and ingress:a; every channel
    # is validated first, so the failed transfer leaves no trace.
    topo = two_site_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("ser", 100e6)
    fabric.transfer("a", "b", 100.0, channels=("ser",))
    states = dict(fabric._states)
    routes = dict(fabric._rid_cache)
    with pytest.raises(KeyError, match="undefined channel 'nope'"):
        fabric.transfer("b", "a", 100.0, channels=("ser", "nope"))
    assert fabric._states == states
    assert fabric._rid_cache == routes


def test_set_path_drops_only_the_changed_pair():
    # No on_topology_change(): the next transfer still sees the change.
    topo = two_site_topology(rtt=0.2)
    env = Environment()
    fabric = Fabric(env, topo)
    for src, dst in (("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")):
        fabric.transfer(src, dst, 1e6)
    kept = {key: fabric._rid_cache[key] for key in (("a", "c", ()), ("c", "b", ()))}
    path_state = fabric._states["path:a|b"]
    topo.set_path("b", "a", capacity_bps=0.1 * GBPS, rtt_s=0.4)
    flow = fabric.transfer("b", "a", 1e6)
    assert path_state.capacity == 0.1 * GBPS
    assert flow.states[2] is path_state
    assert fabric._rid_cache[("b", "a", ())][3] == 0.2
    assert ("a", "b", ()) not in fabric._rid_cache
    for key, entry in kept.items():
        assert fabric._rid_cache[key] is entry


def test_channel_capacity_validation():
    topo = two_site_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    with pytest.raises(ValueError):
        fabric.define_channel("x", 0.0)


@pytest.mark.parametrize("capture_processes", [False, True])
def test_flows_close_their_processes(capture_processes):
    """Every admitted flow is one logical process, finished whether it
    delivers or is aborted — with or without per-process capture."""
    topo = two_site_topology()
    tel = Telemetry(capture_processes=capture_processes)
    env = Environment(telemetry=tel)
    fabric = Fabric(env, topo, telemetry=tel)
    completed = fabric.transfer("a", "b", 125e6)
    aborted = fabric.transfer("a", "c", 125e6)

    def cancel():
        yield env.timeout(0.5)
        assert fabric.abort(aborted)

    env.process(cancel())
    env.run(completed)
    assert fabric.aborted_flows == 1
    assert tel.processes_spawned == tel.processes_finished == 3
    assert tel.processes_failed == 0


# -- batched admission and completion -------------------------------------


def hub_topology(n_leaves=20, rtt=0.02):
    """A hub site with ``n_leaves`` leaves, every hub path the same delay."""
    topo = Topology()
    for name in ["hub"] + [f"leaf{i}" for i in range(n_leaves)]:
        topo.add_site(
            Site(name=name, provider="gc", zone="z", region="r", continent="US",
                 tcp_window_bytes=64e6, nic_bps=1 * GBPS)
        )
    for i in range(n_leaves):
        topo.set_path("hub", f"leaf{i}", rtt_s=rtt)
    return topo


def run_fan_out(interleave=False, abort=None, skip=None, n_flows=20):
    """Fan out ``n_flows`` distinct-size flows from the hub at t=0.

    ``interleave`` queues a far-future no-op timer between transfers;
    ``abort`` cancels that flow before it is admitted; ``skip`` leaves
    that flow out. Returns the run's telemetry, fabric, events and
    (flow index, repr(completion time)) in completion-callback order.
    """
    tel = Telemetry()
    env = Environment(telemetry=tel)
    fabric = Fabric(env, hub_topology(n_flows))
    order = []
    dones = {}
    for i in range(n_flows):
        if i == skip:
            continue
        done = fabric.transfer("hub", f"leaf{i}", (i + 1) * 5e6)
        done.callbacks.append(
            lambda ev, i=i: order.append((i, repr(env.now))) if ev.ok else None)
        dones[i] = done
        if interleave:
            env.timeout(1e6)
    scheduled = tel.events_scheduled
    if abort is not None:
        assert fabric.abort(dones[abort])
    env.run(until=10.0)
    return scheduled, fabric, dones, order


def test_fan_out_queues_one_admission_timer():
    scheduled, fabric, dones, order = run_fan_out()
    assert scheduled == 1
    assert fabric.peak_active_flows == 20
    assert sorted(i for i, __ in order) == list(range(20))


def test_interleaved_events_keep_one_timer_per_flow_and_same_result():
    scheduled, __, __, order = run_fan_out(interleave=True)
    # One admission timer per flow plus the 20 interleaved no-ops.
    assert scheduled == 40
    __, __, __, batched = run_fan_out()
    assert order == batched
    assert [i for i, __ in order] == list(range(20))


def test_abort_inside_admission_batch_spares_siblings():
    __, fabric, dones, order = run_fan_out(abort=7)
    assert fabric.aborted_flows == 1
    assert fabric.peak_active_flows == 19
    assert not dones[7].ok
    assert isinstance(dones[7].value, TransferAborted)
    assert 7 not in [i for i, __ in order]
    __, __, __, without = run_fan_out(skip=7)
    assert order == without
    assert fabric.meter.total_bytes == sum(
        (i + 1) * 5e6 for i in range(20) if i != 7)


def test_finished_flows_are_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        fabric = Fabric(env, hub_topology(8))
        # Two stages: the second starts when the first has finished.
        first = [fabric.transfer("hub", f"leaf{i}", 5e6) for i in range(8)]
        env.run(env.all_of(first))
        del first
        live = [obj for obj in gc.get_objects() if isinstance(obj, Flow)]
        assert live == []
        second = [fabric.transfer("hub", f"leaf{i}", 5e6) for i in range(8)]
        env.run(env.all_of(second))
        assert all(flow.value is flow for flow in second)
        del second
        live = [obj for obj in gc.get_objects() if isinstance(obj, Flow)]
        assert live == []
    finally:
        gc.enable()


# -- persistent resource states -------------------------------------------


def test_resource_states_persist_across_stages():
    env = Environment()
    fabric = Fabric(env, hub_topology(8))
    first = [fabric.transfer("hub", f"leaf{i}", 5e6) for i in range(8)]
    env.run(env.all_of(first))
    assert fabric._resources == {}
    states = dict(fabric._states)
    # egress:hub, then ingress and path per leaf.
    assert len(states) == 1 + 2 * 8
    second = [fabric.transfer("hub", f"leaf{i}", 5e6) for i in range(8)]
    env.run(until=env.now + 0.015)
    assert len(fabric._resources) == len(states)
    for rid, state in fabric._resources.items():
        assert state is states[rid]
    env.run(env.all_of(second))
    assert fabric._resources == {}
    assert fabric._states.keys() == states.keys()
    assert all(fabric._states[rid] is state for rid, state in states.items())
    for flow in second:
        assert all(state is states[state.rid] for state in flow.states)


def test_flow_resolved_before_topology_change_shares_the_new_state():
    # The first flow's route is resolved at t=0 and admitted at t=0.1;
    # the path is throttled at t=0.05, while it is still propagating.
    topo = two_site_topology(nic_bps=1 * GBPS, rtt=0.2)
    env = Environment()
    fabric = Fabric(env, topo)
    early = fabric.transfer("a", "b", 50e6)
    late = []

    def throttle(_event):
        topo.set_path("a", "b", capacity_bps=0.1 * GBPS, rtt_s=0.2)
        fabric.on_topology_change()
        late.append(fabric.transfer("a", "b", 50e6))

    env.timeout(0.05).callbacks.append(throttle)
    env.run(until=0.12)
    first = early
    # Admitted alone after the change: held to the new path capacity.
    assert first.rate_bps == 0.1 * GBPS
    env.run(until=0.2)
    second = late[0]
    assert second.states is not first.states
    assert all(a is b for a, b in zip(first.states, second.states))
    assert len(fabric._states) == 3
    assert first.rate_bps == second.rate_bps == 0.05 * GBPS


def test_redefined_channel_applies_to_its_idle_state():
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("ser", 0.1 * GBPS)
    done = fabric.transfer("a", "b", 12.5e6, channels=("ser",))
    env.run(done)
    state = fabric._states["channel:ser"]
    assert "channel:ser" not in fabric._resources
    fabric.define_channel("ser", 0.05 * GBPS)
    assert state.capacity == 0.05 * GBPS
    start = env.now
    done = fabric.transfer("a", "b", 12.5e6, channels=("ser",))
    env.run(done)
    assert fabric._states["channel:ser"] is state
    # 100 Mbit at 50 Mb/s plus sub-ms propagation.
    assert env.now - start == pytest.approx(2.0, rel=0.01)


def test_channel_named_twice_is_one_resource():
    # The capped flow freezes first at 10 Mb/s on its own channel; the
    # shared channel's other two members then split the 70 Mb/s it
    # leaves.
    env = Environment()
    fabric = Fabric(env, two_site_topology(nic_bps=1 * GBPS))
    fabric.define_channel("ser", 100e6)
    fabric.define_channel("cap", 10e6)
    capped = fabric.transfer("a", "b", 1e6, channels=("ser", "ser", "cap"))
    others = [fabric.transfer(src, "c", 50e6, channels=("ser",))
              for src in ("a", "b")]
    env.run(until=0.1)
    assert sorted(flow.rate_bps for flow in fabric._flows) == [10e6, 45e6, 45e6]
    env.run(env.all_of([capped, *others]))
    assert fabric._resources == {}


def test_transfer_builds_the_requested_flow():
    env = Environment()
    # Window/RTT bound: 8 * 750 kB / 0.2 s = 30 Mb/s per stream.
    topo = two_site_topology(nic_bps=1 * GBPS, window=750e3, rtt=0.2)
    fabric = Fabric(env, topo)
    env.run(until=0.5)
    plain = fabric.transfer("a", "b", 7e6, tag="grad")
    wide = fabric.transfer("b", "a", 9e6, streams=3)
    assert plain.flow_id == 0 and wide.flow_id == 1
    assert (plain.src.name, plain.dst.name) == ("a", "b")
    assert (wide.src.name, wide.dst.name) == ("b", "a")
    assert plain.total_bytes == plain.remaining_bytes == 7e6
    assert wide.total_bytes == wide.remaining_bytes == 9e6
    assert plain.ceiling_bps == 30e6
    assert wide.ceiling_bps == 3 * 30e6
    assert plain.tag == "grad" and wide.tag is None
    assert plain.started_s == wide.started_s == 0.5
    assert plain.resources == ("egress:a", "ingress:b", "path:a|b")
    assert wide.resources == ("egress:b", "ingress:a", "path:a|b")
    assert plain.states[2] is wide.states[2] is fabric._states["path:a|b"]
    assert plain.rate_bps == 0.0 and plain.span is None and not plain.aborted
    assert plain.fabric is fabric and not plain.triggered


def test_same_site_transfers_are_admitted_within_the_instant():
    env = Environment()
    fabric = Fabric(env, two_site_topology())
    fabric.define_channel("disk", 80e6)
    empty = fabric.transfer("a", "a", 0.0, channels=("disk",))
    dropped = fabric.transfer("a", "a", 1e6, channels=("disk",))
    kept = [fabric.transfer("a", "a", 5e6, channels=("disk",)) for _ in range(2)]
    assert fabric.abort(dropped)
    env.run(until=1e-9)
    assert empty.processed and empty.value.total_bytes == 0.0
    assert [flow.rate_bps for flow in fabric._flows] == [40e6, 40e6]
    env.run(env.all_of(kept))
    # 40 Mbit each at half of 80 Mb/s.
    assert env.now == pytest.approx(1.0)
    assert fabric.meter.total_bytes == 10e6


def test_meter_records_bytes_by_tag_including_aborted_ones():
    topo = two_site_topology(nic_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.transfer("a", "b", 1000.0, tag="averaging")
    fabric.transfer("a", "c", 500.0)
    slow = fabric.transfer("b", "c", 125e6, tag="sync")
    env.run(until=0.5)
    fabric.abort(slow)
    env.run()
    table = fabric.meter.table
    assert table[("a", "b", "averaging")] == 1000.0
    assert table[("a", "c", "data")] == 500.0
    assert 0 < table[("b", "c", "sync")] < 125e6
    assert len(table) == 3
    by_tag = sum_traffic(table, itemgetter(2))
    assert sum(by_tag.values()) == fabric.meter.total_bytes


def test_closed_fabric_drops_its_routes_and_refuses_transfers():
    topo = two_site_topology()
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.define_channel("ch", 1 * GBPS)
    fabric.transfer("a", "b", 1e6, channels=("ch",))
    fabric.transfer("b", "c", 1e6)
    env.run()
    topo.set_path("a", "b", capacity_bps=0.5 * GBPS)
    fabric.on_topology_change()
    env.run()
    assert fabric._rid_cache and fabric._pair_routes and fabric._states
    fabric.close()
    assert not fabric._rid_cache and not fabric._states
    assert fabric._pair_routes is None
    for src, dst, channels in (("a", "b", ("ch",)), ("b", "c", ()),
                               ("c", "a", ())):
        with pytest.raises(RuntimeError, match="closed fabric"):
            fabric.transfer(src, dst, 1e3, channels=channels)
    assert fabric.active_flows == 0 and not fabric._rid_cache


def test_closed_fabric_lets_in_flight_flows_go():
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    running = fabric.transfer("a", "c", 1e9)
    env.run(until=0.5)
    fabric.transfer("a", "b", 1e9)
    assert fabric.active_flows == 1 and fabric._admission is not None
    fabric.close()
    assert fabric.active_flows == 0 and fabric._admission is None
    assert not fabric._resources
    assert all(not state.members for state in running.states)


def test_closed_fabric_cuts_each_aborted_flows_cycle():
    # An aborted flow's value is its error, and the error names the
    # flow: closing the fabric cuts that cycle, so neither outlives it.
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    flows = [fabric.transfer("a", "b", 1e9) for _ in range(2)]
    env.run(until=0.5)
    assert all(fabric.abort(flow) for flow in flows)
    env.run()
    errors = [flow.value for flow in flows]
    assert [error.flow for error in errors] == flows
    # A flow is not weak-referenceable; the states only it still holds
    # after the close show when it is freed.
    ref = weakref.ref(flows[0].states[0])
    gc.collect()
    gc.disable()
    try:
        fabric.close()
        assert [error.flow for error in errors] == [None, None]
        del flows
        assert ref() is None
    finally:
        gc.enable()


# -- the flow is its own completion event ---------------------------------


def test_transfer_returns_the_flow_as_its_completion_event():
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    flow = fabric.transfer("a", "b", 1e6)
    empty = fabric.transfer("a", "b", 0.0)
    assert isinstance(flow, Flow) and isinstance(flow, Event)
    # One batched admission timer, a bare queue entry.
    assert env.events_scheduled == 1
    assert not any(isinstance(entry, Event) for __, __, entry in env._queue)
    assert not hasattr(flow, "__dict__")
    assert not flow.triggered
    with pytest.raises(SimulationError):
        flow.value

    def waiter():
        return (yield flow)

    assert env.run(env.process(waiter())) is flow
    assert flow.ok and flow.value is flow and flow.processed
    assert env.run(empty) is empty and empty.value is empty
    # The value is computed, not stored: no reference to itself.
    assert flow._value is None and empty._value is None
    assert flow not in gc.get_referents(flow)


def test_abort_refuses_what_it_cannot_cancel():
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    other = Fabric(env, two_site_topology(rtt=0.2))
    finished = fabric.transfer("a", "b", 1e3)
    env.run(finished)
    aborted = fabric.transfer("a", "b", 1e9)
    foreign = other.transfer("a", "b", 1e9)
    env.run(until=env.now + 0.5)
    assert fabric.abort(aborted)
    meter = dict(fabric.meter.table)
    cases = {
        "finished": finished,
        "already aborted": aborted,
        "not a flow": env.timeout(1.0),
        "plain event": env.event(),
        "another fabric's flow": foreign,
    }
    for name, event in cases.items():
        assert fabric.abort(event) is False, name
    assert fabric.aborted_flows == 1 and other.aborted_flows == 0
    assert fabric.meter.table == meter
    assert foreign in other._flows and not foreign.triggered
    assert isinstance(aborted.value, TransferAborted)
    assert aborted.value.flow is aborted


def test_flow_aborted_while_propagating_never_starts():
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    flow = fabric.transfer("a", "b", 1e6)
    sibling = fabric.transfer("a", "b", 1e6)
    env.run(until=0.05)
    assert fabric.abort(flow, reason="gone")
    env.run()
    assert fabric.peak_active_flows == 1
    assert flow.rate_bps == 0.0 and flow.remaining_bytes == 1e6
    assert not flow.ok and flow.value.reason == "gone"
    assert sibling.value is sibling
    assert fabric.meter.total_bytes == 1e6


def test_conditions_over_transfers_map_each_index_to_its_flow():
    env = Environment()
    fabric = Fabric(env, hub_topology(4))
    flows = [fabric.transfer("hub", f"leaf{i}", (i + 1) * 1e6) for i in range(4)]
    first = env.run(env.any_of(flows))
    assert first == {0: flows[0]} and first[0] is flows[0]
    every = env.run(env.all_of(flows))
    assert every == dict(enumerate(flows))
    assert all(every[i] is flow for i, flow in enumerate(flows))
    # Over already-finished transfers, a condition fires at once.
    assert env.run(env.any_of(flows)) == every


# -- messages: fixed-delay, one queue entry, metered on delivery ----------


def test_message_delay_is_propagation_plus_bytes_over_the_slowest_rate():
    # NIC-bound: 1 Mb/s NICs on a 1 Gb/s path under a 64 MB window.
    topo = two_site_topology(nic_bps=1e6)
    topo.set_path("a", "b", rtt_s=0.2, capacity_bps=1 * GBPS)
    env = Environment()
    fabric = Fabric(env, topo)
    fabric.message("a", "b", 512.0)
    env.run()
    assert env.now == 0.1 + 512.0 * 8.0 / 1e6
    # Ceiling-bound: window / RTT = 8 * 1e3 / 0.2 = 40 kb/s.
    env = Environment()
    fabric = Fabric(env, two_site_topology(window=1e3, rtt=0.2))
    fabric.message("a", "b", 512.0)
    env.run()
    assert env.now == 0.1 + 512.0 * 8.0 / 40e3
    # Zero bytes take only the propagation delay.
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    fabric.message("a", "b", 0.0)
    env.run()
    assert env.now == 0.1
    with pytest.raises(ValueError):
        fabric.message("a", "b", -1.0)


def test_message_is_one_queue_entry_outside_the_fill():
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    message = fabric.message("a", "b", 512.0, "dht")
    assert isinstance(message, Message) and isinstance(message, Event)
    assert not hasattr(message, "__dict__")
    assert env.events_scheduled == 1
    assert [entry for __, __, entry in env._queue] == [message]
    # Decided when sent, like a timeout; processed when delivered.
    assert message.triggered and message.value is None
    assert not message.processed

    def waiter():
        return (yield message)

    assert env.run(env.process(waiter())) is None
    assert message.processed
    assert fabric.active_flows == 0 and fabric.peak_active_flows == 0
    assert fabric._admission is None and not fabric._refill_pending


def test_message_bytes_are_metered_on_delivery_by_tag():
    tel = Telemetry()
    env = Environment(telemetry=tel)
    fabric = Fabric(env, two_site_topology(rtt=0.2), telemetry=tel)
    fabric.message("a", "b", 512.0, "dht")
    fabric.message("b", "a", 512.0, "dht")
    fabric.message("a", "c", 100.0)
    assert fabric.meter.total_bytes == 0
    env.run()
    assert fabric.meter.table == {("a", "b", "dht"): 512.0,
                                  ("b", "a", "dht"): 512.0,
                                  ("a", "c", "data"): 100.0}
    counter = tel.metrics.get("transfer_bytes_total")
    by_tag = {}
    for labels, value in counter.samples():
        tag = dict(labels)["tag"]
        by_tag[tag] = by_tag.get(tag, 0.0) + value
    assert by_tag == {"dht": 1024.0, "data": 100.0}
    assert tel.metrics.get("transfers_total").total == 3


def test_cancelled_message_is_never_delivered_nor_metered():
    env = Environment()
    fabric = Fabric(env, two_site_topology(rtt=0.2))
    message = fabric.message("a", "b", 512.0, "dht")
    woken = []
    message.callbacks.append(woken.append)
    env.run(until=0.05)
    assert message.cancel()
    assert not message.cancel()
    env.run()
    assert not woken and fabric.meter.total_bytes == 0
    assert env.events_scheduled == 1
    # Not a fabric abort: nothing to unregister, nothing counted.
    assert not fabric.abort(message) and fabric.aborted_flows == 0
    delivered = fabric.message("a", "b", 512.0, "dht")
    env.run()
    assert not delivered.cancel()
    assert fabric.meter.table == {("a", "b", "dht"): 512.0}


def test_message_keeps_the_delay_read_when_sent():
    topo = two_site_topology(nic_bps=1e6, rtt=0.2)
    env = Environment()
    fabric = Fabric(env, topo)
    message = fabric.message("a", "b", 512.0)
    env.run(until=0.05)
    # A link fault mid-flight: the path drops to a partition's floor.
    topo.set_path("a", "b", rtt_s=0.2, capacity_bps=8.0)
    fabric.on_topology_change()
    env.run(message)
    assert env.now == 0.1 + 512.0 * 8.0 / 1e6
    # Sent while the floor holds, it takes 512 s.
    late = fabric.message("a", "b", 512.0)
    start = env.now
    env.run(late)
    assert env.now == start + (0.1 + 512.0 * 8.0 / 8.0)


def test_message_on_a_route_without_capacity_is_never_delivered():
    topo = two_site_topology()
    topo.set_path("a", "b", capacity_bps=0.0)
    env = Environment()
    fabric = Fabric(env, topo)
    message = fabric.message("a", "b", 512.0)
    assert env.events_scheduled == 0
    env.run()
    assert not message.processed and fabric.meter.total_bytes == 0
    assert message.cancel()


def test_message_resolves_its_route_like_a_transfer():
    topo = two_site_topology(nic_bps=1e6, rtt=0.2)
    env = Environment()
    fabric = Fabric(env, topo)
    flow = fabric.transfer("b", "c", 1e6)
    env.run(until=1.0)
    # A bare set_path nobody reported: the message catches up, refreshes
    # the route and accounts the flow's progress, as a transfer would.
    topo.set_path("a", "b", rtt_s=0.4, capacity_bps=5e5)
    message = fabric.message("a", "b", 512.0)
    assert fabric._topology_version == topo._version
    assert flow.remaining_bytes < 1e6
    env.run(message)
    assert env.now == 1.0 + (0.2 + 512.0 * 8.0 / 5e5)
    fabric.close()
    with pytest.raises(RuntimeError, match="closed fabric"):
        fabric.message("a", "b", 512.0)


def test_message_opens_no_span():
    tel = Telemetry()
    env = Environment(telemetry=tel)
    fabric = Fabric(env, two_site_topology(), telemetry=tel)
    fabric.message("a", "b", 8192.0, "dht")
    env.run()
    assert not tel.tracer.spans
    fabric.transfer("a", "b", 8192.0, tag="dht")
    env.run()
    assert [span.category for span in tel.tracer.spans] == ["transfer"]

