"""The orchestrator: cache-aware, optionally parallel job execution.

:class:`Orchestrator` is the one place a run is looked up, executed and
stored. Every call path — ``repro sweep``, figure generation, the
resilience reports, the benchmark harness — funnels through it, so
caching and parallelism are implemented once:

* :meth:`run` runs one job with the full lookup chain (in-memory memo
  → on-disk cache → execute) and raises simulation errors exactly like
  the underlying function; :meth:`experiment` builds the job from
  ``run_experiment``'s arguments and runs it;
* :meth:`map` runs many jobs, resolving hits first and fanning the
  misses out over a process pool when ``jobs > 1``; outcomes come back
  in input order, and failures are returned as records, not raised.
  Each report body submits its whole point list as one batch.

Both go through one lookup (``_hit``) and one store (``_keep``). A job
whose overrides the fingerprint cannot carry is rejected when it is
built (:class:`~repro.orchestrator.Uncacheable`); there is no uncached
side path. Telemetry reaches runs through
:func:`~repro.telemetry.use_telemetry`, not through an override.

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
            "cache_puts": self.cache.puts if self.cache else 0,
            "cache_errors": self.cache.errors if self.cache else 0,
        }

    # -- lookup and store --------------------------------------------------

    def _hit(self, job: Job, key: str) -> Optional[JobOutcome]:
        """The memo's or the disk cache's result for ``key``, if any."""
        if key in self._memo:
            self.memo_hits += 1
            return JobOutcome(job, result=self._memo[key], source="memo")
        if self.cache is not None:
            record = self.cache.get(key)
            if record is not None:
                result = result_from_record(record)
                self._memo[key] = result
                return JobOutcome(job, result=result, source="cache")
        return None

    def _keep(self, job: Job, key: str, result,
              record: Optional[dict] = None):
        """Store an executed result in the disk cache and the memo."""
        if self.cache is not None:
            if record is None:
                record = result_to_record(job, result)
            self.cache.put(key, job.fingerprint(), record)
        self._memo[key] = result
        return result

    # -- single-job API ----------------------------------------------------

    def experiment(self, key: str, model: str,
                   target_batch_size: int = 32768, epochs: int = 3,
                   spot: bool = True, **overrides):
        """Cache-aware ``run_experiment``; raises like the original, and
        :class:`Uncacheable` for an override the fingerprint cannot
        carry."""
        return self.run(ExperimentJob.make(
            key, model, target_batch_size=target_batch_size,
            epochs=epochs, spot=spot, **overrides,
        ))

    def run(self, job: Job):
        """One job through memo → disk cache → execute; raises like
        ``run_experiment`` / ``centralized_baseline``."""
        key = job_key(job)
        hit = self._hit(job, key)
        if hit is not None:
            return hit.result
        self.executed += 1
        return self._keep(job, key, execute_job(job))  # errors propagate

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
        outcomes: list[Optional[JobOutcome]] = []
        keys: list[Optional[str]] = []
        for job in jobs:
            try:
                key = job_key(job)
            except Exception:
                # Invalid job (e.g. unknown experiment key): run it
                # inline so the failure surfaces as an ordinary record
                # with the same traceback a serial run produces.
                key = None
            keys.append(key)
            outcomes.append(None if key is None else self._hit(job, key))

        pending = [i for i, outcome in enumerate(outcomes) if outcome is None]
        pooled = [i for i in pending if keys[i] is not None]
        if self.jobs > 1 and len(pooled) > 1:
            # Only a pool needs multiprocessing and concurrent.futures.
            from .executor import default_worker_count, run_wire_jobs

            raw = run_wire_jobs(
                [jobs[i].to_wire() for i in pooled],
                max_workers=default_worker_count(self.jobs),
                timeout_s=self.timeout_s,
                retries=self.retries,
                mp_context=self.mp_context,
            )
            for index, outcome in zip(pooled, raw):
                outcomes[index] = self._absorb(jobs[index], keys[index],
                                               outcome)
        for index in pending:
            if outcomes[index] is None:
                outcomes[index] = self._execute_inline(jobs[index],
                                                       keys[index])

        if progress is not None:
            for outcome in outcomes:
                if outcome is not None and outcome.ok:
                    progress(outcome.result)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _execute_inline(self, job: Job, key: Optional[str]) -> JobOutcome:
        self.executed += 1
        try:
            result = execute_job(job)
        except Exception as error:
            return JobOutcome(job, failure=format_failure(error))
        if key is not None:
            self._keep(job, key, result)
        return JobOutcome(job, result=result)

    def _absorb(self, job: Job, key: str, outcome: dict) -> JobOutcome:
        self.executed += 1
        if not outcome.get("ok"):
            return JobOutcome(
                job, failure=JobFailure.from_dict(outcome["failure"])
            )
        record = outcome["record"]
        result = result_from_record(record)
        return JobOutcome(job, result=self._keep(job, key, result, record))


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
