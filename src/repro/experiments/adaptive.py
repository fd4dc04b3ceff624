"""Static vs adaptive placement: does closing the loop pay?

The paper's experiments pin a placement up front and hold it for the
whole run. This report replays the same geo / multi-cloud setups twice
— once static, once with a :mod:`repro.controlplane` policy watching
the run — and compares throughput and cost-per-sample. The adaptive
runs get a pool of standby VMs at the cheapest location (by the t=0
spot price) plus per-location diurnal price models, so the controller
has both a reason to move (price ratios, Table 1) and somewhere to
move to.

Both arms of every setup execute as one batch on the ambient
orchestrator: the policy (or its absence) is part of the run
fingerprint, so static and adaptive results occupy distinct cache
entries and replays stay byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..controlplane import default_price_models, get_policy
from ..hivemind import PeerSpec
from ..orchestrator import ExperimentJob
from .configs import get_spec

if TYPE_CHECKING:
    from .figures import Report

__all__ = [
    "DEFAULT_ADAPTIVE_SETUPS",
    "adaptive_market",
    "adaptive_report",
    "standby_peers_for",
]

#: Setups with a price gradient worth exploiting: D-2/D-3 cross a
#: provider boundary (AWS and Azure T4 spot prices bracket GC's), B-4
#: crosses the Atlantic (the EU zone sleeps while the US works).
DEFAULT_ADAPTIVE_SETUPS = ("D-2", "D-3", "B-4")


def adaptive_market(key: str) -> dict:
    """Per-location diurnal spot-price models for a named setup."""
    spec = get_spec(key)
    return default_price_models([loc for loc, __, __ in spec.groups])


def standby_peers_for(key: str) -> tuple[PeerSpec, ...]:
    """Spare VMs at the setup's cheapest location (t=0 spot price).

    Enough spares to absorb every peer not already there, so the
    controller could in principle consolidate the whole run onto the
    cheap market. Spare sites extend the location's index range
    (``loc/2``, ``loc/3``, ... after an existing ``loc/0``, ``loc/1``).
    """
    spec = get_spec(key)
    market = adaptive_market(key)
    priced = [(loc, count, gpu) for loc, count, gpu in spec.groups
              if loc in market]
    if not priced:
        return ()
    cheapest, start, gpu = min(
        priced, key=lambda g: (market[g[0]].price_at(0.0), g[0])
    )
    spares = spec.total_gpus - start
    return tuple(
        PeerSpec(f"{cheapest}/{start + i}", gpu) for i in range(spares)
    )


def adaptive_report(epochs: int = 3, *, keys=DEFAULT_ADAPTIVE_SETUPS,
                    model: str = "conv",
                    policy: str = "adaptive") -> Report:
    """Static-vs-adaptive comparison over geo and multi-cloud setups."""
    # Imported here: the market and standby helpers, which every
    # adaptive run needs, must not load the report machinery.
    from .figures import Report, _results

    pol = get_policy(policy)
    jobs = []
    for key in keys:
        market = adaptive_market(key)
        jobs += [
            ExperimentJob.make(key, model, epochs=epochs,
                               price_models=market),
            ExperimentJob.make(key, model, epochs=epochs,
                               price_models=market, policy=pol,
                               standby_peers=standby_peers_for(key)),
        ]
    results = iter(_results(jobs))
    rows = []
    notes = []
    for key in keys:
        arms = {"static": next(results), policy: next(results)}
        for mode, result in arms.items():
            run = result.run
            actions = run.control_actions if run is not None else {}
            rows.append({
                "experiment": key,
                "mode": mode,
                "sps": round(result.throughput_sps, 1),
                "usd_per_1m": round(result.usd_per_million_samples, 3),
                "peers": (run.epochs[-1].live_peers
                          if run is not None and run.epochs else 0),
                "migrations": actions.get("migrate", 0),
                "scale": (actions.get("scale_up", 0)
                          - actions.get("scale_down", 0)),
                "tbs_changes": actions.get("set_tbs", 0),
                "decisions": len(run.decisions) if run is not None else 0,
            })
        static_cost = arms["static"].usd_per_million_samples
        adaptive_cost = arms[policy].usd_per_million_samples
        if static_cost > 0:
            delta = (adaptive_cost / static_cost - 1.0) * 100.0
            notes.append(
                f"{key}: adaptive cost-per-sample {delta:+.1f}% vs static"
            )
    notes.append(
        "both arms bill VM hours by integrating the diurnal spot price "
        "over each VM's uptime; spares cost nothing until activated"
    )
    return Report(
        "adaptive",
        f"Static vs {policy} control over geo/multi-cloud setups",
        rows,
        notes=notes,
    )

