"""Adaptive control plane: closed-loop placement, scaling and TBS control.

The subsystem the paper's Section 9 sketches but the static experiments
never exercise: a deterministic, sim-time controller that watches a
live :func:`~repro.hivemind.run.run_hivemind` simulation and steers it —
migrating peers to cheaper or steadier spot markets, growing/shrinking
the peer count by the planner's doubling-speedup rule, and adapting the
target batch size when measured granularity drifts below the usefulness
floor.

Three layers:

* :mod:`~repro.controlplane.policy` — pure, frozen decision functions
  (:class:`MigrationPolicy`, :class:`TbsPolicy`, :class:`ScalingPolicy`
  and the composite :class:`AdaptivePolicy`) plus the
  Observation/Action/Decision vocabulary;
* :mod:`~repro.controlplane.controller` — the mutable
  :class:`Controller` that validates and actuates policy actions
  against the run loop at every epoch boundary;
* :mod:`~repro.controlplane.market` — deterministic per-location
  diurnal spot-price models derived from the Table 1 catalog.

Set ``HivemindRunConfig.policy`` (plus ``standby_peers`` /
``price_models``) to opt in; without a policy the run loop behaves byte
for byte as before.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    controller=("Controller",),
    market=("TZ_OFFSET_HOURS", "default_price_models"),
    policy=(
        "POLICIES",
        "Action",
        "AdaptivePolicy",
        "Decision",
        "MigrationPolicy",
        "Observation",
        "ScalingPolicy",
        "TbsPolicy",
        "get_policy",
        "policy_names",
    ),
)
