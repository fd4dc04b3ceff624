"""Deterministic fault injection: schedules, injector, survival policy.

See :mod:`repro.faults.schedule` for the fault vocabulary and seeded
schedule generation, and :mod:`repro.faults.injector` for the process
that applies a schedule to a live simulation.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    injector=("PARTITION_FLOOR_BPS", "FaultInjector"),
    schedule=(
        "FAULT_SCHEDULE_SCHEMA",
        "ComputeFault",
        "CrashFault",
        "FaultSchedule",
        "FaultTolerance",
        "LinkFault",
        "ZoneOutage",
        "generate_schedule",
    ),
)
