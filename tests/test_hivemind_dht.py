"""Tests for the Kademlia-style DHT over the simulated fabric."""

from repro.faults import PARTITION_FLOOR_BPS, FaultTolerance
from repro.hivemind import DhtNetwork, DhtNode, node_id_for, xor_distance
from repro.hivemind.dht import _RPC_TIMEOUT_S
from repro.network import Fabric, build_topology
from repro.simulation import Environment
from repro.telemetry import Telemetry


def make_network(counts=None, **kwargs):
    counts = counts or {"gc:us": 8}
    topology = build_topology(counts)
    env = Environment()
    fabric = Fabric(env, topology)
    network = DhtNetwork(env, fabric, **kwargs)
    nodes = [DhtNode(network, site) for site in topology.sites]
    return env, network, nodes


def join_all(env, nodes):
    def joiner():
        for node in nodes[1:]:
            yield from node.join(nodes[0])

    env.run(env.process(joiner()))


class TestIdentity:
    def test_node_id_is_deterministic_160_bit(self):
        a = node_id_for("gc:us/0")
        assert a == node_id_for("gc:us/0")
        assert 0 <= a < 2 ** 160

    def test_distinct_names_distinct_ids(self):
        assert node_id_for("a") != node_id_for("b")

    def test_xor_distance_metric_properties(self):
        a, b, c = (node_id_for(x) for x in "abc")
        assert xor_distance(a, a) == 0
        assert xor_distance(a, b) == xor_distance(b, a)
        # XOR triangle equality: d(a,c) <= d(a,b) ^ ... (weak form)
        assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)


class TestJoinAndRouting:
    def test_join_populates_routing_tables(self):
        env, __, nodes = make_network()
        join_all(env, nodes)
        for node in nodes:
            assert len(node.routing) >= 1

    def test_join_costs_simulated_time(self):
        env, __, nodes = make_network()
        join_all(env, nodes)
        assert env.now > 0.0

    def test_rpcs_travel_through_fabric(self):
        env, network, nodes = make_network()
        join_all(env, nodes)
        assert network.rpc_count > 0
        assert network.fabric.meter.total_bytes > 0


class TestRpcMessages:
    def test_each_leg_is_one_metered_message(self):
        tel = Telemetry()
        env, network, nodes = make_network({"gc:us": 1, "gc:eu": 1},
                                           telemetry=tel)
        fabric = network.fabric
        response = env.run(env.process(
            network.rpc(nodes[0], nodes[1].node_id, "ping")
        ))
        assert response is True
        assert fabric.meter.table == {
            (nodes[0].site, nodes[1].site, "dht"): 512.0,
            (nodes[1].site, nodes[0].site, "dht"): 512.0,
        }
        assert fabric.peak_active_flows == 0 and fabric.aborted_flows == 0
        # The traced RPC span stays; the legs open none of their own.
        spans = tel.tracer.spans
        assert [(s.name, s.category) for s in spans] == [("dht:ping", "dht")]
        assert env.now > fabric.topology.rtt_s(nodes[0].site, nodes[1].site)

    def test_partition_at_send_time_is_caught_by_the_rpc_timeout(self):
        tel = Telemetry()
        policy = FaultTolerance(dht_rpc_timeout_s=2.0, dht_max_retries=1,
                                dht_backoff_s=1.0)
        env, network, nodes = make_network(
            {"gc:us": 1, "gc:eu": 1}, telemetry=tel, fault_tolerance=policy
        )
        fabric = network.fabric
        a, b = nodes[0].site, nodes[1].site
        path = fabric.topology.path(a, b)
        fabric.topology.set_path(a, b, capacity_bps=PARTITION_FLOOR_BPS,
                                 rtt_s=path.rtt_s)
        fabric.on_topology_change()
        response = env.run(env.process(network.rpc(nodes[0], nodes[1].node_id,
                                                   "ping")))
        assert response is None
        assert env.now == 2.0 + 1.0 + 2.0
        assert tel.metrics.get("dht_timeouts_total").total == 2
        # Both requests were cancelled: never delivered, never metered,
        # and not fabric aborts.
        env.run()
        assert fabric.meter.total_bytes == 0
        assert fabric.aborted_flows == 0


class TestStoreGet:
    def test_roundtrip_from_any_node(self):
        env, __, nodes = make_network()
        join_all(env, nodes)

        def scenario():
            yield from nodes[2].store("training/progress", {"epoch": 3})
            value = yield from nodes[5].get("training/progress")
            return value

        value = env.run(env.process(scenario()))
        assert value == {"epoch": 3}

    def test_missing_key_returns_none(self):
        env, __, nodes = make_network()
        join_all(env, nodes)

        def scenario():
            return (yield from nodes[1].get("never/stored"))

        assert env.run(env.process(scenario())) is None

    def test_lookup_queries_each_peer_at_most_once(self):
        env, network, nodes = make_network({"gc:us": 16, "gc:eu": 16})
        join_all(env, nodes)
        rpc = network.rpc
        queried = []

        def counting_rpc(src, dst_id, method, *args):
            if method == "find_value":
                queried.append(dst_id)
            return (yield from rpc(src, dst_id, method, *args))

        network.rpc = counting_rpc
        repeats = 0
        for i, node in enumerate(nodes):
            queried.clear()

            def lookup():
                return (yield from node.get(f"missing/{i}"))

            assert env.run(env.process(lookup())) is None
            assert queried
            repeats += len(queried) - len(set(queried))
        assert repeats == 0

    def test_values_expire_after_ttl(self):
        env, __, nodes = make_network()
        join_all(env, nodes)

        def scenario():
            yield from nodes[0].store("ephemeral", 42, ttl_s=10.0)
            yield env.timeout(60.0)
            return (yield from nodes[3].get("ephemeral"))

        assert env.run(env.process(scenario())) is None

    def test_overwrite_updates_value(self):
        env, __, nodes = make_network()
        join_all(env, nodes)

        def scenario():
            yield from nodes[0].store("key", "old")
            yield from nodes[0].store("key", "new")
            return (yield from nodes[4].get("key"))

        assert env.run(env.process(scenario())) == "new"

    def test_get_survives_peer_departure(self):
        """Values replicate to k nodes; losing some peers keeps data."""
        env, __, nodes = make_network()
        join_all(env, nodes)

        def scenario():
            yield from nodes[0].store("resilient", "yes")
            nodes[1].leave()
            nodes[2].leave()
            return (yield from nodes[7].get("resilient"))

        assert env.run(env.process(scenario())) == "yes"

    def test_geo_distributed_lookup_is_slower_than_local(self):
        env_local, __, local_nodes = make_network({"gc:us": 4})
        join_all(env_local, local_nodes)
        t_start = env_local.now

        def local_op():
            yield from local_nodes[0].store("k", 1)
            return (yield from local_nodes[3].get("k"))

        env_local.run(env_local.process(local_op()))
        local_elapsed = env_local.now - t_start

        env_geo, __, geo_nodes = make_network(
            {"gc:us": 1, "gc:eu": 1, "gc:asia": 1, "gc:aus": 1}
        )
        join_all(env_geo, geo_nodes)
        t_start = env_geo.now

        def geo_op():
            yield from geo_nodes[0].store("k", 1)
            return (yield from geo_nodes[3].get("k"))

        env_geo.run(env_geo.process(geo_op()))
        geo_elapsed = env_geo.now - t_start
        assert geo_elapsed > 10 * local_elapsed


class TestRoutingTable:
    def test_closest_sorted_by_xor(self):
        env, __, nodes = make_network()
        join_all(env, nodes)
        target = node_id_for("target")
        closest = nodes[0].routing.closest(target, 3)
        distances = [xor_distance(c.node_id, target) for c in closest]
        assert distances == sorted(distances)

    def test_bucket_eviction_keeps_k(self):
        env, __, nodes = make_network({"gc:us": 8})
        node = DhtNode(DhtNetwork(env, Fabric(env, build_topology({"gc:us": 1}))),
                       "gc:us/0", k=2)
        from repro.hivemind.dht import _Contact

        for i in range(20):
            node.routing.add(_Contact(node_id_for(f"n{i}"), f"s{i}"))
        for bucket in node.routing._buckets.values():
            assert len(bucket) <= 2

    def test_does_not_add_self(self):
        env, __, nodes = make_network({"gc:us": 2})
        from repro.hivemind.dht import _Contact

        before = len(nodes[0].routing)
        nodes[0].routing.add(_Contact(nodes[0].node_id, nodes[0].site))
        assert len(nodes[0].routing) == before

    def test_routing_tables_hold_only_interned_contacts(self):
        # Contacts compare by identity, which equals value equality
        # only while each node's one contact is the object passed on.
        env, __, nodes = make_network({"gc:us": 6, "gc:eu": 6})
        join_all(env, nodes)
        leaver = nodes[5]
        contact = leaver.contact
        leaver.leave()

        def churn():
            yield from nodes[1].store("key", "value")
            yield from leaver.rejoin(nodes[0])
            return (yield from nodes[7].get("key"))

        assert env.run(env.process(churn())) == "value"
        assert leaver.contact is contact
        by_id = {node.node_id: node.contact for node in nodes}
        seen = 0
        for node in nodes:
            buckets = node.routing._buckets.values()
            for held in (c for bucket in buckets for c in bucket):
                assert held is by_id[held.node_id]
                seen += 1
            closest = node.routing.closest(node_id_for("key"), node.k)
            assert all(c is by_id[c.node_id] for c in closest)
        assert any(leaver.contact in bucket
                   for node in nodes if node is not leaver
                   for bucket in node.routing._buckets.values())
        assert seen >= len(nodes)


class TestRetryBudget:
    def rpc_to_dead_node(self, fault_tolerance=None):
        tel = Telemetry()
        env, network, nodes = make_network(
            {"gc:us": 2}, telemetry=tel, fault_tolerance=fault_tolerance
        )
        nodes[1].leave()
        response = env.run(env.process(
            network.rpc(nodes[0], nodes[1].node_id, "ping")
        ))
        timeouts = tel.metrics.get("dht_timeouts_total").total
        retries = tel.metrics.get("dht_retries_total").total
        return response, env.now, timeouts, retries

    def test_dead_peer_exhausts_the_policy_budget(self):
        """Three timed-out attempts separated by 1 s and 2 s backoffs."""
        response, elapsed, timeouts, retries = self.rpc_to_dead_node(
            FaultTolerance(dht_max_retries=2, dht_backoff_s=1.0)
        )
        assert response is None
        assert timeouts == 3
        assert retries == 2
        assert elapsed == 3 * _RPC_TIMEOUT_S + 1.0 + 2.0 == 12.0

    def test_default_network_makes_one_attempt(self):
        response, elapsed, timeouts, retries = self.rpc_to_dead_node()
        assert response is None
        assert timeouts == 1
        assert retries == 0
        assert elapsed == _RPC_TIMEOUT_S
