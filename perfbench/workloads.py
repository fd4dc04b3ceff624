"""The benchmark's workloads: ``paper``, ``swarm`` and ``chaos``.

A workload builds its inputs once (:meth:`Workload.build`, timed in a
fresh interpreter as ``setup_s``), then runs passes over them
(:meth:`Workload.run_pass`). A pass times its operations (``wall_s``),
then has a fresh orchestrator serve the same runs from a run cache that
already holds them (``cache_warm_s``), and returns one simulated-output
digest per operation. The caller requires every digest to be identical
across the passes of a run, so any change in simulated behaviour shows
up as a failed operation. Timing the warm serve inside every pass
spreads its samples over the whole run, like those of ``wall_s``: on a
shared machine, host speed drifts over seconds.

* ``paper`` regenerates every report cold into a fresh run cache, again
  warm from that cache, and scores the paper anchors. It has no seed:
  the paper setups fix its output.
* ``swarm`` is one 128-peer CONV run split across ``gc:us`` and
  ``gc:eu``, seeded by the workload seed.
* ``chaos`` is a batch of fault-injected, adaptive and spot-interrupted
  runs whose fault schedules come from the workload seed.

Every call into a wrapped layer goes through a module attribute
(``repro.core.cost_report``), never a name imported here, so the
tracing wrappers of :mod:`perfbench.layers` see it.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import repro.core
import repro.hivemind
from repro import cloud, controlplane, experiments, orchestrator

__all__ = [
    "MODEL",
    "PassResult",
    "Workload",
    "WORKLOADS",
    "run_digest",
]

MODEL = "conv"


@dataclass
class PassResult:
    """What one pass over a workload measured and produced."""

    #: Host seconds of the timed operations (the ``wall_s`` sample).
    wall_s: float
    #: Operation id -> simulated-output digest (``None`` if it raised).
    digests: dict[str, Optional[str]]
    #: Operation id -> why it failed inside the pass.
    errors: dict[str, str] = field(default_factory=dict)
    #: Host seconds to serve the pass's runs from a warm run cache.
    cache_warm_s: float = 0.0
    #: Jobs the pass's orchestrators executed.
    executed: int = 0


def _sha(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:20]


def run_digest(run, usd_per_million_samples: float) -> str:
    """Digest of a run's simulated output at full float precision.

    Covers throughput, the per-epoch calc/matchmaking/transfer split,
    egress bytes by traffic class and by site, and USD per 1M samples.
    """
    parts = [repr(run.throughput_sps)]
    parts += [repr((e.calc_s, e.matchmaking_s, e.transfer_s))
              for e in run.epochs]
    parts.append(repr(sorted(run.egress_bytes_by_class.items())))
    parts.append(repr(sorted(run.egress_bytes_by_site.items())))
    parts.append(repr(usd_per_million_samples))
    return _sha(parts)


def _experiment_digest(result) -> str:
    return run_digest(result.run, result.usd_per_million_samples)


def _report_digest(report) -> str:
    return _sha([report.key, repr(report.rows), repr(report.notes)])


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """One named workload; subclasses fill in inputs and passes."""

    name = ""
    why = ""
    #: Whether ``--seed`` changes the inputs.
    seeded = True

    def build(self, seed: int, tmp_root: str) -> Any:
        """Everything the first operation needs (timed as set-up)."""
        raise NotImplementedError

    def run_pass(self, inputs: Any) -> PassResult:
        raise NotImplementedError

    def close(self, inputs: Any) -> None:
        """Remove what :meth:`build` and the passes left behind."""


# -- paper -------------------------------------------------------------------


@dataclass
class PaperInputs:
    tmp_root: str
    report_keys: list[str]
    anchors: int


class PaperWorkload(Workload):
    name = "paper"
    why = ("every report cold into a fresh run cache, warm from it, then "
           "the paper anchors: per-run set-up, DHT bootstrap, costs and "
           "cache I/O dominate")
    seeded = False
    epochs = 3

    def build(self, seed: int, tmp_root: str) -> PaperInputs:
        return PaperInputs(tmp_root=tmp_root,
                           report_keys=list(experiments.REPORTS),
                           anchors=len(experiments.ANCHORS))

    def _generate_all(self, inputs: PaperInputs, orch, prefix: str,
                      reports: dict, errors: dict, unstored: dict) -> None:
        for key in inputs.report_keys:
            before = orch.executed, orch.cache.puts
            try:
                reports[f"{prefix}:{key}"] = experiments.generate(
                    key, epochs=self.epochs, orchestrator=orch)
            except Exception as exc:  # an operation that raises fails
                errors[f"{prefix}:{key}"] = _error(exc)
            # Jobs this report executed without storing them.
            unstored[key] = ((orch.executed - before[0])
                             - (orch.cache.puts - before[1]))

    def run_pass(self, inputs: PaperInputs) -> PassResult:
        cache_dir = tempfile.mkdtemp(dir=inputs.tmp_root)
        reports: dict[str, Any] = {}
        errors: dict[str, str] = {}
        unstored: dict[str, int] = {}
        warm_executed: dict[str, int] = {}
        try:
            start = time.perf_counter()
            cold = orchestrator.Orchestrator(
                cache=orchestrator.RunCache(cache_dir), jobs=1)
            self._generate_all(inputs, cold, "cold", reports, errors,
                               unstored)
            cold_s = time.perf_counter() - start

            gc.collect()
            start = time.perf_counter()
            warm = orchestrator.Orchestrator(
                cache=orchestrator.RunCache(cache_dir), jobs=1)
            self._generate_all(inputs, warm, "warm", reports, errors,
                               warm_executed)
            warm_s = time.perf_counter() - start

            start = time.perf_counter()
            rows = []
            try:
                with orchestrator.use_orchestrator(warm):
                    rows = experiments.run_validation(epochs=self.epochs)
            except Exception as exc:
                errors["validate"] = _error(exc)
            validate_s = time.perf_counter() - start
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        digests: dict[str, Optional[str]] = {
            f"{phase}:{key}": None
            for phase in ("cold", "warm") for key in inputs.report_keys
        }
        for op, report in reports.items():
            digests[op] = _report_digest(report)
        for key in inputs.report_keys:
            cold_d, warm_d = digests[f"cold:{key}"], digests[f"warm:{key}"]
            if warm_d is not None and warm_d != cold_d:
                errors.setdefault(f"warm:{key}",
                                  "warm report differs from the cold one")
            # With an identical memo history, the warm pass may only
            # re-execute the jobs the cold pass could not store.
            if warm_executed.get(key, 0) > unstored.get(key, 0):
                errors.setdefault(f"warm:{key}",
                                  "warm pass executed a stored job")
        passed = sum(1 for row in rows if row.ok)
        digests["validate"] = (None if "validate" in errors
                               else _sha([f"{passed}/{len(rows)}"]))
        if "validate" not in errors and not passed == len(rows) == inputs.anchors:
            errors["validate"] = (f"{passed}/{len(rows)} anchors within "
                                  f"tolerance, want {inputs.anchors}")
        return PassResult(wall_s=cold_s + validate_s, digests=digests,
                          errors=errors, cache_warm_s=warm_s,
                          executed=cold.executed + warm.executed)


# -- runs served through the run cache (swarm, chaos) ------------------------


@dataclass
class Job:
    """One ``run_experiment`` call of a run-based workload."""

    op: str
    key: str
    epochs: int
    overrides: dict


def _run_jobs(jobs: list[Job], experiment) -> PassResult:
    """Time ``experiment(key, model, epochs=..., **overrides)`` over
    ``jobs`` (``run_experiment`` or an orchestrator's ``experiment``)."""
    results: dict[str, Any] = {}
    errors: dict[str, str] = {}
    start = time.perf_counter()
    for job in jobs:
        try:
            results[job.op] = experiment(job.key, MODEL, epochs=job.epochs,
                                         **job.overrides)
        except Exception as exc:  # an operation that raises fails
            errors[job.op] = _error(exc)
    wall_s = time.perf_counter() - start
    digests = {job.op: (_experiment_digest(results[job.op])
                        if job.op in results else None) for job in jobs}
    return PassResult(wall_s=wall_s, digests=digests, errors=errors)


def _check_served(result: PassResult, served: PassResult) -> None:
    """Runs served through an orchestrator must equal the pass's own."""
    for op, digest in served.digests.items():
        if op in served.errors:
            result.errors.setdefault(op, served.errors[op])
        elif digest != result.digests.get(op):
            result.errors.setdefault(op, "orchestrator served another result")


@dataclass
class RunInputs:
    tmp_root: str
    seed: int
    jobs: list[Job]
    #: Config of the next direct run (swarm), built as part of set-up.
    config: Any = None
    #: Run cache that the first pass fills with every job's result.
    cache_dir: Optional[str] = None


class _RunWorkload(Workload):
    """Workloads whose operations are single simulated runs."""

    def _run_ops(self, inputs: RunInputs) -> PassResult:
        """The timed operations of one pass."""
        raise NotImplementedError

    def run_pass(self, inputs: RunInputs) -> PassResult:
        result = self._run_ops(inputs)
        if inputs.cache_dir is None:
            # The first pass, an untimed warm-up, stores every job once.
            inputs.cache_dir = tempfile.mkdtemp(dir=inputs.tmp_root)
            fill = orchestrator.Orchestrator(
                cache=orchestrator.RunCache(inputs.cache_dir), jobs=1)
            _check_served(result, _run_jobs(inputs.jobs, fill.experiment))
        gc.collect()
        warm = orchestrator.Orchestrator(
            cache=orchestrator.RunCache(inputs.cache_dir), jobs=1)
        served = _run_jobs(inputs.jobs, warm.experiment)
        _check_served(result, served)
        if warm.executed:
            for job in inputs.jobs:
                result.errors.setdefault(job.op,
                                         "warm serve executed a stored job")
        result.cache_warm_s = served.wall_s
        return result

    def close(self, inputs: RunInputs) -> None:
        if inputs.cache_dir is not None:
            shutil.rmtree(inputs.cache_dir, ignore_errors=True)


# -- swarm -------------------------------------------------------------------

#: The 128-peer swarm as an experiment spec, registered while the
#: workload runs so the orchestrator can fingerprint and cache it.
SWARM_SPEC = experiments.ExperimentSpec(
    key="perfbench-swarm-128",
    description="swarm: 64x US + 64x EU T4",
    groups=(("gc:us", 64, "t4"), ("gc:eu", 64, "t4")),
)


class SwarmWorkload(_RunWorkload):
    name = "swarm"
    why = ("one 128-peer run: g(g-1) flows per averaging stage, so flow "
           "admission, the fill and stage construction dominate")
    epochs = 2

    def _config(self, seed: int):
        return experiments.build_run_config(
            SWARM_SPEC.key, MODEL, epochs=self.epochs, seed=seed)

    def build(self, seed: int, tmp_root: str) -> RunInputs:
        experiments.EXPERIMENTS.setdefault(SWARM_SPEC.key, SWARM_SPEC)
        op = f"swarm-128/seed={seed}"
        return RunInputs(
            tmp_root=tmp_root, seed=seed, config=self._config(seed),
            jobs=[Job(op, SWARM_SPEC.key, self.epochs, {"seed": seed})],
        )

    def _run_ops(self, inputs: RunInputs) -> PassResult:
        # Each pass simulates on a fresh config, as a user's run would.
        config = inputs.config or self._config(inputs.seed)
        inputs.config = None
        op = inputs.jobs[0].op
        start = time.perf_counter()
        try:
            run = repro.hivemind.run_hivemind(config)
            usd = repro.core.cost_report(run).usd_per_million_samples
        except Exception as exc:
            return PassResult(wall_s=time.perf_counter() - start,
                              digests={op: None}, errors={op: _error(exc)})
        wall_s = time.perf_counter() - start
        return PassResult(wall_s=wall_s, digests={op: run_digest(run, usd)})

    def close(self, inputs: RunInputs) -> None:
        super().close(inputs)
        if experiments.EXPERIMENTS.get(SWARM_SPEC.key) is SWARM_SPEC:
            del experiments.EXPERIMENTS[SWARM_SPEC.key]


# -- chaos -------------------------------------------------------------------


class ChaosWorkload(_RunWorkload):
    name = "chaos"
    why = ("fault-injected, adaptive and spot runs: injector, aborts, "
           "retries, state sync, controller and time-integrated billing")
    epochs = 16
    intensity = 4.0
    horizon_s = 1800.0
    #: Consecutive schedule seeds per faulted setup, from the workload seed.
    seeds_per_key = 8
    faulted_keys = ("B-8", "C-8")

    def build(self, seed: int, tmp_root: str) -> RunInputs:
        jobs = [
            Job(f"{key}/seed={s}", key, self.epochs, {
                "fault_schedule": experiments.chaos_schedule_for(
                    key, seed=s, intensity=self.intensity,
                    horizon_s=self.horizon_s),
            })
            for key in self.faulted_keys
            for s in range(seed, seed + self.seeds_per_key)
        ]
        jobs.append(Job("D-2/adaptive", "D-2", self.epochs, {
            "policy": controlplane.get_policy("adaptive"),
            "price_models": experiments.adaptive_market("D-2"),
            "standby_peers": experiments.standby_peers_for("D-2"),
        }))
        jobs.append(Job("B-8/interruptions", "B-8", self.epochs, {
            "interruption_model": cloud.InterruptionModel(monthly_rate=0.9),
        }))
        return RunInputs(tmp_root=tmp_root, seed=seed, jobs=jobs)

    def _run_ops(self, inputs: RunInputs) -> PassResult:
        return _run_jobs(inputs.jobs, experiments.run_experiment)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperWorkload(), SwarmWorkload(), ChaosWorkload())
}
