"""Self-checks of the benchmark's layer wrappers.

    PYTHONPATH=src python -m pytest perfbench -q

Each workload runs one untraced and one traced pass. The checks:

* every wrapped function fires on the workload its layer is measured on,
  so a rename under ``src/`` cannot silently zero a layer;
* every per-layer metric is non-zero on that workload;
* the traced pass restores every original function object;
* wrapping changes no simulated-output digest.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.telemetry import Telemetry, use_telemetry  # noqa: E402

#: Workload each wrapped function is measured on.
FIRES_ON = {
    "Environment.run": "swarm",
    "Fabric.transfer": "swarm",
    "Fabric.abort": "chaos",
    "Fabric.on_topology_change": "chaos",
    "MoshpitAverager.run_round": "swarm",
    "DhtNetwork.rpc": "paper",
    "form_groups": "swarm",
    "run_hivemind": "paper",
    "FaultInjector.__init__": "chaos",
    "FaultInjector.start": "chaos",
    "FaultInjector.compute_factor": "chaos",
    "Controller.on_epoch_end": "chaos",
    "cost_report": "paper",
    "RunCache.get": "paper",
    "RunCache.put": "paper",
    "job_key": "paper",
}

#: Workload on which each per-layer metric must be non-zero.
NONZERO_ON = {
    "simulation.events": "swarm",
    "simulation.queue_depth_max": "swarm",
    "simulation.self_s": "swarm",
    "network.transfers": "swarm",
    "network.transfer_s": "swarm",
    "network.peak_flows": "swarm",
    "network.aborts": "chaos",
    "network.topology_changes": "chaos",
    "network.bytes.averaging": "chaos",
    "network.bytes.dht": "chaos",
    "network.bytes.sync": "chaos",
    "averager.rounds": "swarm",
    "averager.self_s": "swarm",
    "averager.retries": "chaos",
    "averager.degraded": "chaos",
    "dht.rpcs": "paper",
    "dht.self_s": "paper",
    "dht.timeouts": "chaos",
    "dht.retries": "chaos",
    "matchmaking.form_groups_s": "swarm",
    "matchmaking.form_groups_calls": "swarm",
    "hivemind.setup_s": "paper",
    "hivemind.runs": "paper",
    "faults.injected": "chaos",
    "faults.compute_factor_calls": "chaos",
    "faults.self_s": "chaos",
    "control.decisions": "chaos",
    "control.self_s": "chaos",
    "costs.cost_report_calls": "paper",
    "costs.cost_report_s": "paper",
    "cache.gets": "paper",
    "cache.hits": "paper",
    "cache.puts": "paper",
    "cache.get_s": "paper",
    "cache.put_s": "paper",
    "orchestrator.key_s": "paper",
    "orchestrator.executed": "paper",
}


@functools.lru_cache(maxsize=None)
def passes(name: str, tmp_root: str):
    """One untraced and one traced pass of a workload, with the bindings
    of every wrapped function before and after the traced pass."""
    workload = WORKLOADS[name]
    inputs = workload.build(7, tmp_root)
    try:
        untraced = workload.run_pass(inputs)
        before = layers.bindings()
        tracing, telemetry = layers.Tracing(), Telemetry()
        with tracing, use_telemetry(telemetry):
            traced = workload.run_pass(inputs)
        after = layers.bindings()
    finally:
        workload.close(inputs)
    metrics = layers.layer_metrics(tracing, telemetry, traced.executed)
    return untraced, traced, tracing, metrics, before, after


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("perfbench"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_passes_succeed(name, tmp_root):
    untraced, traced, *_ = passes(name, tmp_root)
    assert untraced.errors == {} and traced.errors == {}
    assert None not in untraced.digests.values()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapping_changes_no_digest(name, tmp_root):
    untraced, traced, *_ = passes(name, tmp_root)
    assert traced.digests == untraced.digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_restores_every_original(name, tmp_root):
    *_, before, after = passes(name, tmp_root)
    assert before.keys() == after.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []
    assert layers.installed_wrappers() == []


def test_every_target_is_assigned_a_workload():
    assert {target.qualname for target in layers.TARGETS} == set(FIRES_ON)


@pytest.mark.parametrize("label", sorted(FIRES_ON))
def test_wrapped_function_fires_on_its_workload(label, tmp_root):
    __, __, tracing, *_ = passes(FIRES_ON[label], tmp_root)
    assert tracing.calls[label] > 0


def test_every_metric_is_assigned_a_workload():
    names = set(layers.COUNT_METRICS) | set(layers.TIME_METRICS)
    assert names == set(NONZERO_ON)


@pytest.mark.parametrize("metric", sorted(NONZERO_ON))
def test_layer_metric_nonzero_on_its_workload(metric, tmp_root):
    *_, metrics, __, __ = passes(NONZERO_ON[metric], tmp_root)
    assert metrics[metric] > 0


def test_counts_repeat_exactly_across_traced_passes(tmp_root):
    workload = WORKLOADS["chaos"]
    inputs = workload.build(3, tmp_root)
    counts = []
    try:
        workload.run_pass(inputs)  # fills the run cache, as the warm-up does
        for __ in range(2):
            tracing, telemetry = layers.Tracing(), Telemetry()
            with tracing, use_telemetry(telemetry):
                result = workload.run_pass(inputs)
            metrics = layers.layer_metrics(tracing, telemetry, result.executed)
            counts.append({name: metrics[name] for name in layers.COUNT_METRICS})
    finally:
        workload.close(inputs)
    assert counts[0] == counts[1]


def test_restores_after_an_exception():
    before = layers.bindings()
    with pytest.raises(RuntimeError):
        with layers.Tracing():
            raise RuntimeError("pass failed")
    after = layers.bindings()
    assert all(after[key] is before[key] for key in before)
    assert layers.installed_wrappers() == []


def test_generator_proxy_behaves_like_yield_from():
    clock = layers.LayerClock()

    def inner():
        try:
            received = yield "first"
        except KeyError as error:
            received = f"caught {error.args[0]}"
        yield received
        return "done"

    proxy = layers._timed_resumes(inner(), clock, "layer")
    assert next(proxy) == "first"
    assert proxy.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "done"
    assert clock.self_s["layer"] > 0

    closed = layers._timed_resumes(inner(), clock, "layer")
    next(closed)
    closed.close()
