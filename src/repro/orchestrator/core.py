"""The orchestrator: cache-aware, optionally parallel job execution.

:class:`Orchestrator` is the single front door for running experiment
and baseline jobs. Every call path — ``repro sweep``, figure
generation, the resilience reports, the benchmark harness — funnels
through it, so caching and parallelism are implemented once:

* :meth:`run` runs one job with the full lookup chain (in-memory memo
  → on-disk cache → execute) and raises simulation errors exactly like
  the underlying function; :meth:`experiment` builds the job from
  ``run_experiment``'s arguments and runs it;
* :meth:`map` runs many jobs, resolving hits first and fanning the
  misses out over a process pool when ``jobs > 1``; outcomes come back
  in input order, and failures are returned as records, not raised.
  Each report body submits its whole point list as one batch.

The ambient orchestrator (:func:`use_orchestrator` /
:func:`current_orchestrator`) lets the figure code find the active
instance without threading it through every helper. When none is
installed, :func:`current_orchestrator` returns a fresh, cache-less,
serial instance — i.e. calling ``figure5()`` directly behaves exactly
as it did before the orchestrator existed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from .executor import default_worker_count, run_wire_jobs
from .fingerprint import Uncacheable
from .jobs import (
    ExperimentJob,
    Job,
    JobFailure,
    execute_job,
    format_failure,
    job_key,
    result_from_record,
    result_to_record,
)
from .store import RunCache

__all__ = [
    "JobOutcome",
    "Orchestrator",
    "current_orchestrator",
    "use_orchestrator",
]


@dataclass
class JobOutcome:
    """What happened to one job in a :meth:`Orchestrator.map` batch."""

    job: Job
    result: Optional[Any] = None
    failure: Optional[JobFailure] = None
    #: "memo" | "cache" | "executed"
    source: str = "executed"

    @property
    def ok(self) -> bool:
        return self.failure is None


class Orchestrator:
    """Runs jobs through memo → disk cache → (parallel) execution."""

    def __init__(
        self,
        cache: Optional[RunCache] = None,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        mp_context=None,
    ):
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.retries = retries
        self.mp_context = mp_context
        self._memo: dict[str, Any] = {}
        self.memo_hits = 0
        self.executed = 0
        self.uncacheable = 0

    # -- stats -------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.memo_hits + (self.cache.hits if self.cache else 0)

    @property
    def misses(self) -> int:
        return self.cache.misses if self.cache else self.executed

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "uncacheable": self.uncacheable,
            "cache_puts": self.cache.puts if self.cache else 0,
            "cache_errors": self.cache.errors if self.cache else 0,
        }

    # -- single-job API ----------------------------------------------------

    def experiment(self, key: str, model: str,
                   target_batch_size: int = 32768, epochs: int = 3,
                   spot: bool = True, **overrides):
        """Cache-aware ``run_experiment``; raises like the original."""
        try:
            job = ExperimentJob.make(
                key, model, target_batch_size=target_batch_size,
                epochs=epochs, spot=spot, **overrides,
            )
        except Uncacheable:
            # An override the fingerprint cannot capture (a telemetry
            # sink, an ad-hoc object): run uncached rather than guess.
            from ..experiments.runner import run_experiment

            self.uncacheable += 1
            self.executed += 1
            return run_experiment(
                key, model, target_batch_size=target_batch_size,
                epochs=epochs, spot=spot, **overrides,
            )
        return self.run(job)

    def run(self, job: Job):
        """One job through memo → disk cache → execute; raises like
        ``run_experiment`` / ``centralized_baseline``."""
        key = job_key(job)
        if key in self._memo:
            self.memo_hits += 1
            return self._memo[key]
        if self.cache is not None:
            record = self.cache.get(key)
            if record is not None:
                result = result_from_record(record)
                self._memo[key] = result
                return result
        self.executed += 1
        result = execute_job(job)  # simulation errors propagate
        if self.cache is not None:
            self.cache.put(key, job.fingerprint(), result_to_record(job, result))
        self._memo[key] = result
        return result

    # -- batch API ---------------------------------------------------------

    def map(self, jobs: Sequence[Job],
            progress: Optional[callable] = None) -> list[JobOutcome]:
        """Run a batch; outcomes in input order, failures as records.

        Hits (memo, then disk) are resolved up front; the remaining
        misses execute — on a process pool when this orchestrator was
        built with ``jobs > 1``, inline otherwise. Results always enter
        the memo (and the disk cache when one is attached), so a later
        batch over the same points is pure hits.
        """
        jobs = list(jobs)
        outcomes: list[Optional[JobOutcome]] = [None] * len(jobs)
        pending: list[int] = []
        keys: list[Optional[str]] = []
        for index, job in enumerate(jobs):
            try:
                key = job_key(job)
            except Uncacheable:
                self.uncacheable += 1
                keys.append(None)
                pending.append(index)
                continue
            except Exception:
                # Invalid job (e.g. unknown experiment key): run it
                # inline so the failure surfaces as an ordinary record
                # with the same traceback a serial run produces.
                keys.append(None)
                pending.append(index)
                continue
            keys.append(key)
            if key in self._memo:
                self.memo_hits += 1
                outcomes[index] = JobOutcome(job, result=self._memo[key],
                                             source="memo")
                continue
            if self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    result = result_from_record(record)
                    self._memo[key] = result
                    outcomes[index] = JobOutcome(job, result=result,
                                                 source="cache")
                    continue
            pending.append(index)

        poolable = [i for i in pending if keys[i] is not None]
        inline = [i for i in pending if keys[i] is None]
        if self.jobs > 1 and len(poolable) > 1:
            wires = [jobs[i].to_wire() for i in poolable]
            raw = run_wire_jobs(
                wires,
                max_workers=default_worker_count(self.jobs),
                timeout_s=self.timeout_s,
                retries=self.retries,
                mp_context=self.mp_context,
            )
            for index, outcome in zip(poolable, raw):
                self.executed += 1
                outcomes[index] = self._absorb(jobs[index], keys[index],
                                               outcome)
        else:
            inline = pending
            poolable = []
        for index in inline:
            self.executed += 1
            outcomes[index] = self._execute_inline(jobs[index], keys[index])

        if progress is not None:
            for outcome in outcomes:
                if outcome is not None and outcome.ok:
                    progress(outcome.result)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _execute_inline(self, job: Job, key: Optional[str]) -> JobOutcome:
        try:
            result = execute_job(job)
        except Exception as error:
            return JobOutcome(job, failure=format_failure(error))
        if key is not None:
            if self.cache is not None:
                self.cache.put(key, job.fingerprint(),
                               result_to_record(job, result))
            self._memo[key] = result
        return JobOutcome(job, result=result)

    def _absorb(self, job: Job, key: str, outcome: dict) -> JobOutcome:
        if not outcome.get("ok"):
            return JobOutcome(
                job, failure=JobFailure.from_dict(outcome["failure"])
            )
        record = outcome["record"]
        if self.cache is not None:
            self.cache.put(key, job.fingerprint(), record)
        result = result_from_record(record)
        self._memo[key] = result
        return JobOutcome(job, result=result)


# -- ambient orchestrator ---------------------------------------------------

_ACTIVE: list[Orchestrator] = []


def current_orchestrator() -> Orchestrator:
    """The innermost ambient orchestrator, or a fresh passthrough one.

    The fallback instance is serial and cache-less and is *not*
    retained, so code that never opts in (direct ``figure5()`` calls,
    old tests) behaves exactly as before the orchestrator existed.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    return Orchestrator()


@contextmanager
def use_orchestrator(orchestrator: Orchestrator) -> Iterator[Orchestrator]:
    """Install ``orchestrator`` as the ambient instance for a block."""
    _ACTIVE.append(orchestrator)
    try:
        yield orchestrator
    finally:
        _ACTIVE.pop()
