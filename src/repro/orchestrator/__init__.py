"""Experiment orchestration: fingerprints, run cache, parallel sweeps.

The orchestrator turns every simulated run into a *job* — a plain-data
request that can be fingerprinted, cached, shipped to a worker process
and replayed — and funnels all experiment execution (sweeps, figures,
resilience reports, benchmarks) through one cache-aware, optionally
parallel front door. See :mod:`repro.orchestrator.core` for the facade
and :mod:`repro.orchestrator.fingerprint` for the cache-key contract.
"""

from .core import (
    JobOutcome,
    Orchestrator,
    current_orchestrator,
    use_orchestrator,
)
from .executor import default_worker_count, run_wire_jobs
from .fingerprint import (
    FINGERPRINT_VERSION,
    Uncacheable,
    calibration_digest,
    canonical,
    canonical_json,
    fingerprint_key,
    revive,
)
from .jobs import (
    BaselineJob,
    ExperimentJob,
    Job,
    JobFailure,
    execute_job,
    format_failure,
    job_from_wire,
    job_key,
    result_from_record,
    result_to_record,
    run_job,
)
from .store import CACHE_SCHEMA, CacheEntry, RunCache, resolve_cache_dir

__all__ = [
    "BaselineJob",
    "CACHE_SCHEMA",
    "CacheEntry",
    "ExperimentJob",
    "FINGERPRINT_VERSION",
    "Job",
    "JobFailure",
    "JobOutcome",
    "Orchestrator",
    "RunCache",
    "Uncacheable",
    "calibration_digest",
    "canonical",
    "canonical_json",
    "current_orchestrator",
    "default_worker_count",
    "execute_job",
    "fingerprint_key",
    "format_failure",
    "job_from_wire",
    "job_key",
    "resolve_cache_dir",
    "result_from_record",
    "result_to_record",
    "revive",
    "run_job",
    "run_wire_jobs",
    "use_orchestrator",
]
