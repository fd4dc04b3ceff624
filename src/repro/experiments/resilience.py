"""Chaos/resilience experiments: fault injection vs. throughput.

:func:`run_chaos` executes one named experiment under a deterministic
fault schedule (generated from a seed and an intensity knob, or
supplied explicitly) and returns both the :class:`~repro.hivemind.run.
RunResult` and the schedule that produced it, so a run can be replayed
bit-exactly.

:func:`resilience_report` sweeps the fault intensity and reports the
throughput penalty next to the resilience counters (rounds retried,
degraded epochs, forced interruptions, state re-syncs, aborted
transfers) — the simulator's answer to Section 7's "what does an
unreliable substrate actually cost?". The clean point and the faulted
points go to the ambient orchestrator as one batch, so the report is
cached and parallelized like the paper's figures; the clean job carries
no schedule, so it shares its cache entry with a plain run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..faults import FaultSchedule, generate_schedule
from ..hivemind import RunResult
from ..orchestrator import ExperimentJob, current_orchestrator
from .configs import get_spec

if TYPE_CHECKING:
    from .figures import Report

__all__ = ["run_chaos", "resilience_report", "chaos_schedule_for"]


def chaos_schedule_for(
    key: str,
    *,
    seed: int = 0,
    intensity: float = 0.5,
    horizon_s: float = 7200.0,
) -> FaultSchedule:
    """Generate the deterministic fault schedule for a named experiment.

    Sites and zone membership come from the experiment spec's topology,
    so identical ``(key, seed, intensity, horizon_s)`` always yield an
    identical schedule.
    """
    spec = get_spec(key)
    topology = spec.topology()
    sites = [peer.site for peer in spec.peers()]
    zones = {site: topology.get(site).zone for site in sites}
    return generate_schedule(sites, seed=seed, intensity=intensity,
                             horizon_s=horizon_s, zones=zones)


def run_chaos(
    key: str,
    model: str,
    *,
    epochs: int = 3,
    intensity: float = 0.5,
    seed: int = 0,
    horizon_s: float = 7200.0,
    schedule: Optional[FaultSchedule] = None,
    target_batch_size: int = 32768,
    **overrides,
) -> tuple[RunResult, FaultSchedule]:
    """Run one experiment under fault injection.

    When ``schedule`` is None one is generated deterministically from
    ``(seed, intensity, horizon_s)`` over the experiment's sites.
    Returns the run result and the schedule actually used.

    Execution goes through the ambient orchestrator, so chaos runs are
    cached and parallelized like any other experiment job (schedules
    are part of the fingerprint).
    """
    if schedule is None:
        schedule = chaos_schedule_for(key, seed=seed, intensity=intensity,
                                      horizon_s=horizon_s)
    result = current_orchestrator().experiment(
        key, model, target_batch_size=target_batch_size, epochs=epochs,
        fault_schedule=schedule, **overrides,
    )
    return result.run, schedule


def _chaos_row(intensity: float, result: RunResult,
               baseline_sps: float) -> dict:
    penalty = (
        (1.0 - result.throughput_sps / baseline_sps) * 100.0
        if baseline_sps > 0 else None
    )
    return {
        "intensity": intensity,
        "sps": round(result.throughput_sps, 1),
        "penalty_pct": round(penalty, 1) if penalty is not None else None,
        "retried": result.rounds_retried,
        "degraded": result.degraded_epochs,
        "interruptions": result.interruptions,
        "state_syncs": result.state_syncs,
        "aborted": result.transfers_aborted,
        "faults": sum(result.fault_counts.values()),
    }


def resilience_report(
    key: str = "B-8",
    model: str = "conv",
    intensities: Sequence[float] = (0.5, 1.0, 2.0),
    *,
    epochs: int = 3,
    seed: int = 0,
    horizon_s: float = 7200.0,
    target_batch_size: int = 32768,
) -> Report:
    """Fault intensity → throughput penalty sweep for one experiment.

    The first row is the clean baseline (intensity 0, no schedule); the
    penalty column is relative to it. The clean point and every faulted
    point run as one batch on the ambient orchestrator.
    """
    # Imported here: schedules and single chaos runs must not load the
    # report machinery.
    from .figures import Report, _results

    def job(**overrides) -> ExperimentJob:
        return ExperimentJob.make(key, model,
                                  target_batch_size=target_batch_size,
                                  epochs=epochs, **overrides)

    jobs = [job()] + [
        job(fault_schedule=chaos_schedule_for(
            key, seed=seed, intensity=intensity, horizon_s=horizon_s))
        for intensity in intensities
    ]
    clean, *faulted = (result.run for result in _results(jobs))
    rows = [_chaos_row(0.0, clean, clean.throughput_sps)]
    for intensity, result in zip(intensities, faulted):
        rows.append(_chaos_row(intensity, result, clean.throughput_sps))
    return Report(
        "resilience",
        f"Fault intensity vs. throughput ({key}, {model}, seed {seed})",
        rows,
        notes=[
            "intensity scales the expected fault count per hour; "
            "schedules are deterministic in (sites, seed, intensity)",
            "penalty_pct is relative to the clean (intensity 0) run",
        ],
    )
