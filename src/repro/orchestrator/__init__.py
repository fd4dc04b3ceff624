"""Experiment orchestration: fingerprints, run cache, parallel sweeps.

The orchestrator turns every simulated run into a *job* — a plain-data
request that can be fingerprinted, cached, shipped to a worker process
and replayed — and funnels all experiment execution (sweeps, figures,
resilience reports, benchmarks) through one cache-aware, optionally
parallel front door. See :mod:`repro.orchestrator.core` for the facade
and :mod:`repro.orchestrator.fingerprint` for the cache-key contract.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    core=("JobOutcome", "Orchestrator", "current_orchestrator", "use_orchestrator"),
    executor=("default_worker_count", "run_wire_jobs"),
    fingerprint=(
        "FINGERPRINT_VERSION",
        "Uncacheable",
        "calibration_digest",
        "canonical",
        "canonical_json",
        "fingerprint_key",
        "revive",
    ),
    jobs=(
        "BaselineJob",
        "ExperimentJob",
        "Job",
        "JobFailure",
        "execute_job",
        "format_failure",
        "job_from_wire",
        "job_key",
        "result_from_record",
        "result_to_record",
        "run_job",
    ),
    store=("CACHE_SCHEMA", "CacheEntry", "RunCache", "resolve_cache_dir"),
)
