"""Run requests as data: experiment / baseline jobs and their records.

A job is the unit the orchestrator schedules, fingerprints and caches:

* :class:`ExperimentJob` — one :func:`repro.experiments.run_experiment`
  call (named setup, model, TBS, epochs, spot pricing, config
  overrides);
* :class:`BaselineJob` — one :func:`repro.experiments.
  centralized_baseline` call (no simulation; catalog throughput and
  price).

Jobs travel between processes as plain dicts (``to_wire`` /
``from_wire``), execute via :func:`execute_job` (in a pool worker, via
:func:`run_job`), and their results
serialize to JSON ``records`` (:func:`result_to_record`) that the
content-addressed store persists and :func:`result_from_record`
rehydrates — including a reconstructed
:class:`~repro.hivemind.RunResult` whose config is rebuilt from the
experiment spec, so cost reports and egress accounting work on cache
hits exactly as on fresh runs. The only field a rehydrated result
loses is the live ``telemetry`` sink (cached runs record no spans).

Failure formatting lives here too: :func:`format_failure` trims the
traceback to the frames at or below :func:`execute_job`, so a failure
recorded by a pool worker is byte-identical to one recorded inline —
part of the ``--jobs N == serial`` guarantee.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import asdict, dataclass, fields
from typing import Any, Union

from .fingerprint import (
    FINGERPRINT_VERSION,
    calibration_digest,
    canonical,
    fingerprint_key,
    revive,
)
from .store import CACHE_SCHEMA

__all__ = [
    "BaselineJob",
    "ExperimentJob",
    "Job",
    "JobFailure",
    "execute_job",
    "format_failure",
    "job_from_wire",
    "result_from_record",
    "result_to_record",
    "run_job",
]


@dataclass(frozen=True)
class ExperimentJob:
    """One ``run_experiment`` invocation, canonicalized."""

    key: str
    model: str
    target_batch_size: int = 32768
    epochs: int = 3
    spot: bool = True
    #: Sorted ``(name, canonical value)`` pairs of config overrides.
    overrides: tuple[tuple[str, Any], ...] = ()

    kind = "experiment"

    @classmethod
    def make(cls, key: str, model: str, target_batch_size: int = 32768,
             epochs: int = 3, spot: bool = True,
             **overrides: Any) -> "ExperimentJob":
        """Build a job, canonicalizing overrides (raises Uncacheable)."""
        packed = tuple(sorted(
            (name, canonical(value)) for name, value in overrides.items()
        ))
        return cls(key=key, model=model,
                   target_batch_size=int(target_batch_size),
                   epochs=int(epochs), spot=bool(spot), overrides=packed)

    @property
    def label(self) -> str:
        return f"{self.key}/{self.model}/tbs{self.target_batch_size}"

    @property
    def point(self) -> tuple[str, str, int]:
        """The sweep-grid coordinate (model, experiment, TBS)."""
        return (self.model, self.key, self.target_batch_size)

    def revived_overrides(self) -> dict[str, Any]:
        return {name: revive(value) for name, value in self.overrides}

    def fingerprint(self) -> dict:
        from ..experiments.configs import get_spec

        spec = get_spec(self.key)
        return {
            "schema": CACHE_SCHEMA,
            "fingerprint_version": FINGERPRINT_VERSION,
            "kind": self.kind,
            "experiment": self.key,
            "groups": [list(group) for group in spec.groups],
            "model": self.model,
            "target_batch_size": self.target_batch_size,
            "epochs": self.epochs,
            "spot": self.spot,
            "overrides": {name: value for name, value in self.overrides},
            "calibration": calibration_digest(),
        }

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "key": self.key,
            "model": self.model,
            "target_batch_size": self.target_batch_size,
            "epochs": self.epochs,
            "spot": self.spot,
            "overrides": [[name, value] for name, value in self.overrides],
        }


@dataclass(frozen=True)
class BaselineJob:
    """One ``centralized_baseline`` invocation (no simulation)."""

    name: str
    model: str
    spot: bool = True

    kind = "baseline"

    @property
    def label(self) -> str:
        return f"{self.name}/{self.model}"

    def fingerprint(self) -> dict:
        return {
            "schema": CACHE_SCHEMA,
            "fingerprint_version": FINGERPRINT_VERSION,
            "kind": self.kind,
            "baseline": self.name,
            "model": self.model,
            "spot": self.spot,
            "calibration": calibration_digest(),
        }

    def to_wire(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "model": self.model,
            "spot": self.spot,
        }


Job = Union[ExperimentJob, BaselineJob]


def job_from_wire(doc: dict) -> Job:
    kind = doc.get("kind")
    if kind == "experiment":
        return ExperimentJob(
            key=doc["key"],
            model=doc["model"],
            target_batch_size=doc["target_batch_size"],
            epochs=doc["epochs"],
            spot=doc["spot"],
            overrides=tuple(
                (name, value) for name, value in doc.get("overrides", [])
            ),
        )
    if kind == "baseline":
        return BaselineJob(name=doc["name"], model=doc["model"],
                           spot=doc["spot"])
    raise ValueError(f"unknown job kind {kind!r}")


def job_key(job: Job) -> str:
    """The content address of a job's result."""
    return fingerprint_key(job.fingerprint())


# -- failure records --------------------------------------------------------

@dataclass
class JobFailure:
    """Why a job produced no result; preserved across process hops."""

    error: str
    error_type: str
    traceback: str
    #: How many executor attempts were burned (1 for inline failures).
    attempts: int = 1
    #: "exception" | "timeout" | "broken-pool"
    kind: str = "exception"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "JobFailure":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in known})


def format_failure(error: BaseException) -> JobFailure:
    """A :class:`JobFailure` with a deterministic, trimmed traceback.

    Frames above :func:`execute_job` (the pytest stack, the pool
    worker's service loop, the sweep driver) are dropped, so the same
    simulated failure formats identically whether it was raised inline
    or inside a worker process.
    """
    tb = error.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "execute_job":
            break
        tb = tb.tb_next
    lines = traceback_module.format_exception(type(error), error,
                                              tb or error.__traceback__)
    return JobFailure(
        error=str(error),
        error_type=type(error).__name__,
        traceback="".join(lines),
    )


# -- execution --------------------------------------------------------------

def execute_job(job: Job):
    """Run one job in this process; returns an ``ExperimentResult``."""
    from ..experiments.runner import centralized_baseline, run_experiment

    if isinstance(job, BaselineJob):
        return centralized_baseline(job.name, job.model, spot=job.spot)
    return run_experiment(
        job.key, job.model,
        target_batch_size=job.target_batch_size,
        epochs=job.epochs,
        spot=job.spot,
        **job.revived_overrides(),
    )


def run_job(wire: dict) -> dict:
    """Execute one wire-format job; never raises for sim errors.

    The only function the process pool executes. It takes a plain-JSON
    job dict (safe to pickle under any start method) and returns an
    outcome dict: ``{"ok": True, "record": ...}`` on success or
    ``{"ok": False, "failure": ...}`` when the simulation raised, with
    the same trimmed traceback the inline path produces. Workers never
    touch the cache: reads and writes stay in the parent, so the store
    needs no cross-process locking.
    """
    job = job_from_wire(wire)
    try:
        result = execute_job(job)
    except Exception as error:
        return {"ok": False, "failure": format_failure(error).to_dict()}
    return {"ok": True, "record": result_to_record(job, result)}


# -- result (de)serialization -----------------------------------------------

_EXPERIMENT_SCALARS = (
    "key", "model", "target_batch_size", "num_gpus", "throughput_sps",
    "local_throughput_sps", "granularity", "calc_s", "matchmaking_s",
    "transfer_s", "hourly_cost_usd", "usd_per_million_samples",
    "baseline_sps",
)

_RUN_SCALARS = (
    "duration_s", "monitor_samples", "interruptions", "state_syncs",
    "peak_active_flows", "rounds_retried", "degraded_epochs",
    "transfers_aborted",
)


def _traffic_to_payload(traffic: dict) -> dict:
    """``rows`` of ``[src, dst, tag, bytes]`` in table order, each name an
    index into ``names``, so a revived table shares one string per name."""
    index: dict[str, int] = {}
    rows = [
        [index.setdefault(src, len(index)), index.setdefault(dst, len(index)),
         index.setdefault(tag, len(index)), nbytes]
        for (src, dst, tag), nbytes in traffic.items()
    ]
    return {"names": list(index), "rows": rows}


def _run_to_payload(run) -> dict:
    payload = {name: getattr(run, name) for name in _RUN_SCALARS}
    payload.update({
        "epochs": [asdict(epoch) for epoch in run.epochs],
        "traffic": _traffic_to_payload(run.traffic),
        "data_ingress_bytes_by_site": dict(run.data_ingress_bytes_by_site),
        "metrics": [asdict(sample) for sample in run.metrics],
        "fault_counts": dict(run.fault_counts),
        "uptime_intervals_by_site": {
            site: [[start, end] for start, end in intervals]
            for site, intervals in run.uptime_intervals_by_site.items()
        },
        "decisions": [asdict(decision) for decision in run.decisions],
        "control_actions": dict(run.control_actions),
    })
    return payload


def result_to_record(job: Job, result) -> dict:
    """Serialize an ``ExperimentResult`` into a cacheable JSON record."""
    doc = {name: getattr(result, name) for name in _EXPERIMENT_SCALARS}
    # Baselines carry granularity == inf, which strict JSON rejects.
    if doc["granularity"] == float("inf"):
        doc["granularity"] = "inf"
    return {
        "schema": CACHE_SCHEMA,
        "kind": job.kind,
        "job": job.to_wire(),
        "result": doc,
        "run": _run_to_payload(result.run) if result.run is not None else None,
    }


def _run_from_payload(job: ExperimentJob, payload: dict):
    from ..controlplane import Decision
    from ..experiments.configs import build_run_config
    from ..hivemind.run import EpochStats, MetricSample, RunResult

    config = build_run_config(
        job.key, job.model, job.target_batch_size, job.epochs,
        **job.revived_overrides(),
    )
    names = payload["traffic"]["names"]
    return RunResult(
        config=config,
        epochs=[EpochStats(**epoch) for epoch in payload["epochs"]],
        traffic={
            (names[src], names[dst], names[tag]): nbytes
            for src, dst, tag, nbytes in payload["traffic"]["rows"]
        },
        data_ingress_bytes_by_site=dict(payload["data_ingress_bytes_by_site"]),
        metrics=[MetricSample(**sample) for sample in payload["metrics"]],
        fault_counts=dict(payload["fault_counts"]),
        uptime_intervals_by_site={
            site: [(start, end) for start, end in intervals]
            for site, intervals in payload["uptime_intervals_by_site"].items()
        },
        decisions=[Decision(**doc) for doc in payload["decisions"]],
        control_actions=dict(payload["control_actions"]),
        **{name: payload[name] for name in _RUN_SCALARS},
    )


def result_from_record(record: dict):
    """Rehydrate an ``ExperimentResult`` (and its run) from a record."""
    from ..experiments.runner import ExperimentResult

    if record.get("schema") != CACHE_SCHEMA:
        raise ValueError(
            f"unsupported record schema {record.get('schema')!r}; "
            f"expected {CACHE_SCHEMA!r}"
        )
    job = job_from_wire(record["job"])
    doc = dict(record["result"])
    if doc.get("granularity") == "inf":
        doc["granularity"] = float("inf")
    run = None
    if record.get("run") is not None:
        if not isinstance(job, ExperimentJob):
            raise ValueError("baseline records cannot carry a run payload")
        run = _run_from_payload(job, record["run"])
    return ExperimentResult(run=run, **doc)
