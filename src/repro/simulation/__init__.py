"""Discrete-event simulation kernel used by every timed subsystem."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    engine=(
        "AllOf",
        "AnyOf",
        "Environment",
        "Event",
        "Interrupt",
        "Process",
        "SimulationError",
        "Timeout",
    ),
    rng=("RandomStreams",),
)
