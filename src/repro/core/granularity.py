"""The granularity metric and what it predicts (Sections 3 and 8).

Granularity — the ratio of calculation time to communication time per
hivemind epoch — is the paper's central tool for judging whether a
model/hardware/network combination can scale with more spot VMs:

* with granularity exactly 1, doubling the VMs yields at best a 1.33x
  speedup (only the calculation half shrinks);
* with granularity 10, doubling yields at best 1.83x.

Both follow from ``epoch = calc + comm`` with ``calc`` inversely
proportional to the peer count and ``comm`` constant, which is how the
paper uses the metric to estimate training performance with additional
resources (Section 8, "Granularity is important to evaluate
scalability").
"""

from __future__ import annotations

__all__ = [
    "granularity",
    "speedup_from_scaling",
    "best_speedup_when_doubling",
    "per_gpu_contribution",
]


def granularity(calc_time_s: float, comm_time_s: float) -> float:
    """calc/comm ratio; ``inf`` when communication is free."""
    if calc_time_s < 0 or comm_time_s < 0:
        raise ValueError("times must be >= 0")
    if comm_time_s == 0:
        return float("inf")
    return calc_time_s / comm_time_s


def speedup_from_scaling(granularity_value: float, scale_factor: float) -> float:
    """Best-case speedup when multiplying the peer count by ``scale``.

    Derivation: epoch time goes from ``calc + comm`` to
    ``calc/scale + comm``; with ``g = calc/comm`` the ratio is
    ``(g + 1) / (g/scale + 1)``.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    if granularity_value < 0:
        raise ValueError("granularity must be >= 0")
    if granularity_value == float("inf"):
        return scale_factor
    g = granularity_value
    return (g + 1.0) / (g / scale_factor + 1.0)


def best_speedup_when_doubling(granularity_value: float) -> float:
    """The paper's rule of thumb (Section 8): 1.33x at g=1, 1.83x at g=10."""
    return speedup_from_scaling(granularity_value, 2.0)


def per_gpu_contribution(speedup: float, num_gpus: int) -> float:
    """The paper's per-GPU contribution metric: speedup / #GPUs."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    return speedup / num_gpus
