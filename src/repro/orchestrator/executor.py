"""Process-pool execution of wire-format jobs, merged in grid order.

:func:`run_wire_jobs` fans a list of job dicts out over a
``ProcessPoolExecutor`` and returns one outcome dict per job **in the
input order**, regardless of completion order — the property behind
the ``--jobs N`` == serial byte-identity guarantee (simulations are
deterministic per seed, so ordering is the only thing parallelism
could perturb).

Failure handling is two-level:

* *simulation* errors are caught inside the worker
  (:func:`repro.orchestrator.jobs.run_job`) and come back as ordinary
  ``{"ok": False}`` outcomes; they are never retried, because a
  deterministic sim fails the same way every time;
* *infrastructure* errors — a per-job timeout, a worker process dying
  and breaking the pool — are retried up to ``retries`` times with a
  fresh pool; jobs that exhaust the budget yield a ``timeout`` /
  ``broken-pool`` failure outcome that preserves the last error.

A timed-out worker may still be burning CPU; the pool is therefore
torn down hard (kill, not join) whenever a timeout fires, and the
surviving attempts resume on a fresh pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from .jobs import JobFailure, run_job

__all__ = ["run_wire_jobs", "default_worker_count"]


def default_worker_count(jobs: int) -> int:
    """Clamp a ``--jobs`` request to something the host can service."""
    return max(1, min(jobs, os.cpu_count() or 1, 64))


def _force_shutdown(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on stuck workers.

    The worker handles are read before ``shutdown``, which drops the
    pool's reference to them. Killed workers are joined so none
    outlives the call.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except (OSError, AttributeError):  # already gone
            pass
    for process in processes:
        process.join()


def _infra_failure(kind: str, message: str, error_type: str,
                   attempts: int) -> dict:
    failure = JobFailure(error=message, error_type=error_type,
                         traceback=f"{error_type}: {message}\n",
                         attempts=attempts, kind=kind)
    return {"ok": False, "failure": failure.to_dict()}


def run_wire_jobs(
    wire_jobs: list[dict],
    max_workers: int,
    worker: Callable[[dict], dict] = run_job,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    mp_context=None,
) -> list[dict]:
    """Run jobs on a process pool; outcomes come back in input order.

    ``worker`` must be a module-level (picklable) callable taking one
    wire dict and returning an outcome dict; tests inject misbehaving
    workers through it. ``timeout_s`` bounds the wait on each job,
    measured from the moment the merger starts waiting on it (jobs run
    concurrently, so earlier finishes shorten later waits).
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    outcomes: list[Optional[dict]] = [None] * len(wire_jobs)
    pending = list(enumerate(wire_jobs))
    last_infra: dict[int, tuple[str, str, str]] = {}
    attempt = 0
    while pending and attempt <= retries:
        attempt += 1
        failed: list[tuple[int, dict]] = []
        pool = ProcessPoolExecutor(
            max_workers=min(max_workers, len(pending)) or 1,
            mp_context=mp_context,
        )
        dirty = False
        try:
            futures = [
                (index, wire, pool.submit(worker, wire))
                for index, wire in pending
            ]
            for index, wire, future in futures:
                try:
                    outcomes[index] = future.result(timeout=timeout_s)
                except FutureTimeoutError:
                    dirty = True
                    future.cancel()
                    failed.append((index, wire))
                    last_infra[index] = (
                        "timeout",
                        f"job exceeded the {timeout_s}s per-job timeout",
                        "TimeoutError",
                    )
                except BrokenProcessPool as error:
                    dirty = True
                    failed.append((index, wire))
                    last_infra[index] = (
                        "broken-pool",
                        f"worker process died: {error}",
                        "BrokenProcessPool",
                    )
        finally:
            if dirty:
                _force_shutdown(pool)
            else:
                pool.shutdown(wait=True)
        pending = failed
    for index, wire in pending:
        kind, message, error_type = last_infra[index]
        outcomes[index] = _infra_failure(kind, message, error_type,
                                         attempts=attempt)
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]
