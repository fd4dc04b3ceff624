"""Per-layer host time and work counters, measured from outside.

:class:`Tracing` wraps the public functions of the layer modules for
the duration of a traced pass and restores the original objects after
it. Each wrapper charges the host time of its call to a layer on a
stack, so a layer's *self* time excludes the wrapped layers it calls
(``Environment.run`` minus the ``Fabric.transfer`` calls made while it
dispatches events, and so on). Generator functions (``run_round``,
``DhtNetwork.rpc``) are wrapped in a proxy generator that times each
resume.

A function is patched wherever callers resolve it: module-level
functions in every ``repro`` module that bound them by name (for
example ``form_groups`` in ``repro.hivemind.run``), methods on their
class. All ``repro`` submodules are imported first, so no module can
bind a wrapper by importing it mid-pass.

:func:`layer_metrics` turns one traced pass into the benchmark's
per-layer metrics, reading the public :class:`~repro.telemetry.Telemetry`
registry and kernel tallies next to the wrappers' clocks and counts.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = [
    "COUNT_METRICS",
    "LayerClock",
    "TARGETS",
    "TIME_METRICS",
    "Target",
    "Tracing",
    "bindings",
    "installed_wrappers",
    "layer_metrics",
]

_MARK = "__perfbench_wrapper__"


class LayerClock:
    """Self time per layer over a stack of nested wrapped calls."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_s[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed


@dataclass(frozen=True)
class Target:
    """One public function or method the traced pass wraps."""

    module: str
    #: ``"name"`` for a module-level function, ``"Class.method"``.
    qualname: str
    #: Layer its host time is charged to; ``None`` counts calls only.
    layer: Optional[str]
    generator: bool = False


TARGETS: tuple[Target, ...] = (
    Target("repro.simulation.engine", "Environment.run", "simulation"),
    Target("repro.network.fabric", "Fabric.transfer", "network"),
    Target("repro.network.fabric", "Fabric.abort", None),
    Target("repro.network.fabric", "Fabric.on_topology_change", None),
    Target("repro.hivemind.averager", "MoshpitAverager.run_round",
           "averager", generator=True),
    Target("repro.hivemind.dht", "DhtNetwork.rpc", "dht", generator=True),
    Target("repro.hivemind.matchmaking", "form_groups", "matchmaking"),
    Target("repro.hivemind.run", "run_hivemind", "hivemind"),
    Target("repro.faults.injector", "FaultInjector.__init__", "faults"),
    Target("repro.faults.injector", "FaultInjector.start", "faults"),
    Target("repro.faults.injector", "FaultInjector.compute_factor", "faults"),
    Target("repro.controlplane.controller", "Controller.on_epoch_end",
           "control"),
    Target("repro.core.costs", "cost_report", "costs"),
    Target("repro.orchestrator.store", "RunCache.get", "cache.get"),
    Target("repro.orchestrator.store", "RunCache.put", "cache.put"),
    Target("repro.orchestrator.jobs", "job_key", "orchestrator.key"),
)


def _timed_call(fn: Callable, clock: LayerClock, layer: Optional[str],
                calls: dict, label: str, observe) -> Callable:
    if layer is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[label] += 1
            result = fn(*args, **kwargs)
            observe(label, result)
            return result
        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        calls[label] += 1
        clock.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            clock.exit()
        observe(label, result)
        return result
    return timed


def _timed_resumes(inner, clock: LayerClock, layer: str):
    """Drive ``inner`` like ``yield from``, timing every resume."""
    send, throw = inner.send, inner.throw
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        clock.enter(layer)
        try:
            yielded = send(value) if error is None else throw(error)
        except StopIteration as stop:
            clock.exit()
            return stop.value
        except BaseException:
            clock.exit()
            raise
        clock.exit()
        error = None
        try:
            value = yield yielded
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:
            value, error = None, exc


def _timed_generator(fn: Callable, clock: LayerClock, layer: str,
                     calls: dict, label: str) -> Callable:
    @functools.wraps(fn)
    def proxy(*args, **kwargs):
        calls[label] += 1
        inner = fn(*args, **kwargs)
        outer = _timed_resumes(inner, clock, layer)
        # Simulation processes take their name from the generator.
        outer.__name__ = inner.__name__
        outer.__qualname__ = inner.__qualname__
        return outer
    return proxy


def _import_all_repro() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """(owner, attribute, original) for a target's defining binding."""
    module = importlib.import_module(target.module)
    if "." in target.qualname:
        class_name, attr = target.qualname.split(".")
        owner = getattr(module, class_name)
        return owner, attr, owner.__dict__[attr]
    return module, target.qualname, getattr(module, target.qualname)


def bindings() -> dict[str, Any]:
    """Every name the targets are bound to in ``repro``, with its object."""
    _import_all_repro()
    found = {}
    for target in TARGETS:
        owner, attr, original = _resolve(target)
        if isinstance(owner, type):
            found[f"{owner.__module__}.{owner.__name__}.{attr}"] = original
            continue
        for module in _repro_modules():
            for name, value in vars(module).items():
                if value is original:
                    found[f"{module.__name__}.{name}"] = value
    return found


def installed_wrappers() -> list[str]:
    """Every benchmark wrapper still bound anywhere in ``repro``."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in list(vars(value).items()):
                    if getattr(member, _MARK, False):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return sorted(set(found))


class Tracing:
    """Install the layer wrappers for a ``with`` block, then restore.

    ``calls`` counts calls per target label, ``clock`` holds self time
    per layer, and ``tallies`` accumulates what the wrappers read off
    return values: aborts that took effect, cache hits, peak flows and
    injected faults of every run.
    """

    def __init__(self):
        self.clock = LayerClock()
        self.calls: dict[str, int] = defaultdict(int)
        self.tallies: dict[str, int] = defaultdict(int)
        #: (owner, attribute, original object) of every patched binding.
        self.patched: list[tuple[Any, str, Any]] = []

    def _observe(self, label: str, result: Any) -> None:
        tallies = self.tallies
        if label == "Fabric.abort":
            tallies["aborts"] += bool(result)
        elif label == "RunCache.get":
            tallies["cache_hits"] += result is not None
        elif label == "run_hivemind":
            tallies["peak_flows"] = max(tallies["peak_flows"],
                                        result.peak_active_flows)
            tallies["faults_injected"] += sum(result.fault_counts.values())

    def _wrapper(self, target: Target, original: Any) -> Any:
        if target.generator:
            wrapper = _timed_generator(original, self.clock, target.layer,
                                       self.calls, target.qualname)
        else:
            wrapper = _timed_call(original, self.clock, target.layer,
                                  self.calls, target.qualname, self._observe)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapper: Any) -> None:
        self.patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        _import_all_repro()
        modules = _repro_modules()
        for target in TARGETS:
            owner, attr, original = _resolve(target)
            wrapper = self._wrapper(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracing":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> bool:
        self.restore()
        return False


#: Per-layer metrics that count work; they must repeat exactly.
COUNT_METRICS: dict[str, str] = {
    "simulation.events": "count",
    "simulation.queue_depth_max": "count",
    "network.transfers": "count",
    "network.peak_flows": "count",
    "network.aborts": "count",
    "network.topology_changes": "count",
    "network.bytes.averaging": "bytes",
    "network.bytes.dht": "bytes",
    "network.bytes.sync": "bytes",
    "averager.rounds": "count",
    "averager.retries": "count",
    "averager.degraded": "count",
    "dht.rpcs": "count",
    "dht.timeouts": "count",
    "dht.retries": "count",
    "matchmaking.form_groups_calls": "count",
    "hivemind.runs": "count",
    "faults.injected": "count",
    "faults.compute_factor_calls": "count",
    "control.decisions": "count",
    "costs.cost_report_calls": "count",
    "cache.gets": "count",
    "cache.hits": "count",
    "cache.puts": "count",
    "orchestrator.executed": "count",
}

#: Per-layer host self times, in seconds; reported as medians.
TIME_METRICS: dict[str, str] = {
    "simulation.self_s": "simulation",
    "network.transfer_s": "network",
    "averager.self_s": "averager",
    "dht.self_s": "dht",
    "matchmaking.form_groups_s": "matchmaking",
    "hivemind.setup_s": "hivemind",
    "faults.self_s": "faults",
    "control.self_s": "control",
    "costs.cost_report_s": "costs",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "orchestrator.key_s": "orchestrator.key",
}


def _counter_total(telemetry, name: str) -> float:
    metric = telemetry.metrics.get(name)
    return metric.total if metric is not None else 0.0


def _bytes_by_tag(telemetry) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    metric = telemetry.metrics.get("transfer_bytes_total")
    if metric is not None:
        for labels, value in metric.samples():
            totals[dict(labels).get("tag", "")] += value
    return totals


def layer_metrics(tracing: Tracing, telemetry, executed: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (counts and self times)."""
    calls, tallies = tracing.calls, tracing.tallies
    by_tag = _bytes_by_tag(telemetry)
    counts = {
        "simulation.events": telemetry.events_scheduled,
        "simulation.queue_depth_max": telemetry.queue_depth_high_water,
        "network.transfers": calls["Fabric.transfer"],
        "network.peak_flows": tallies["peak_flows"],
        "network.aborts": tallies["aborts"],
        "network.topology_changes": calls["Fabric.on_topology_change"],
        "network.bytes.averaging": by_tag["averaging"],
        "network.bytes.dht": by_tag["dht"],
        "network.bytes.sync": by_tag["sync"],
        "averager.rounds": _counter_total(telemetry,
                                          "averaging_rounds_total"),
        "averager.retries": _counter_total(telemetry,
                                           "averaging_retries_total"),
        "averager.degraded": _counter_total(telemetry,
                                            "averaging_degraded_total"),
        "dht.rpcs": _counter_total(telemetry, "dht_ops_total"),
        "dht.timeouts": _counter_total(telemetry, "dht_timeouts_total"),
        "dht.retries": _counter_total(telemetry, "dht_retries_total"),
        "matchmaking.form_groups_calls": calls["form_groups"],
        "hivemind.runs": calls["run_hivemind"],
        "faults.injected": tallies["faults_injected"],
        "faults.compute_factor_calls": calls["FaultInjector.compute_factor"],
        "control.decisions": _counter_total(telemetry,
                                            "control_decisions_total"),
        "costs.cost_report_calls": calls["cost_report"],
        "cache.gets": calls["RunCache.get"],
        "cache.hits": tallies["cache_hits"],
        "cache.puts": calls["RunCache.put"],
        "orchestrator.executed": executed,
    }
    # Registry counters are floats; whole-number counts report as ints.
    metrics: dict[str, float] = {
        name: int(counts[name]) if unit == "count" else counts[name]
        for name, unit in COUNT_METRICS.items()
    }
    for name, layer in TIME_METRICS.items():
        metrics[name] = tracing.clock.self_s.get(layer, 0.0)
    return metrics
