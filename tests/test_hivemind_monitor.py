"""Tests for the training monitor (DHT scraper)."""

from repro.hivemind import (
    DhtNetwork,
    DhtNode,
    PROGRESS_KEY,
    TrainingMonitor,
)
from repro.network import Fabric, build_topology
from repro.simulation import Environment


def make_world(n=4):
    topology = build_topology({"gc:us": n})
    env = Environment()
    fabric = Fabric(env, topology)
    network = DhtNetwork(env, fabric)
    nodes = [DhtNode(network, site) for site in topology.sites]

    def join():
        for node in nodes[1:]:
            yield from node.join(nodes[0])

    env.run(env.process(join()))
    return env, nodes


def test_monitor_sees_published_progress():
    env, nodes = make_world()
    monitor = TrainingMonitor(env, nodes[0], interval_s=10.0)

    def publisher():
        for epoch in range(3):
            yield from nodes[1].store(
                PROGRESS_KEY,
                {"epoch": epoch, "live_peers": 4, "total_samples": 1000 * epoch},
                ttl_s=600.0,
            )
            yield env.timeout(30.0)

    env.process(publisher())
    process = env.process(monitor.run())
    env.run(until=100.0)
    process.interrupt("done")
    env.run(process)
    epochs = {s.epoch for s in monitor.samples if s.epoch is not None}
    assert sorted(epochs) == [0, 1, 2]
    assert max(s.live_peers for s in monitor.samples
               if s.live_peers is not None) == 4
    assert len(monitor.samples) >= 8


def test_monitor_records_none_before_first_publish():
    env, nodes = make_world()
    monitor = TrainingMonitor(env, nodes[0], interval_s=5.0)
    process = env.process(monitor.run())
    env.run(until=12.0)
    process.interrupt("done")
    env.run(process)
    assert all(sample.epoch is None for sample in monitor.samples)
    assert all(sample.live_peers is None for sample in monitor.samples)


def test_monitor_scrapes_cost_simulated_time():
    """Each scrape performs real DHT lookups: time advances beyond the
    bare polling interval once values exist remotely."""
    env, nodes = make_world()

    def publish():
        yield from nodes[3].store(PROGRESS_KEY, {"epoch": 1}, ttl_s=600.0)

    env.run(env.process(publish()))
    monitor = TrainingMonitor(env, nodes[0], interval_s=10.0)
    process = env.process(monitor.run())
    env.run(until=35.0)
    process.interrupt("done")
    env.run(process)
    observed = [s for s in monitor.samples if s.epoch == 1]
    assert observed
    # Scrape timestamps include the DHT round-trip latency.
    assert all(sample.time_s > 10.0 for sample in monitor.samples)
