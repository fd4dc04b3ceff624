"""Closed-form performance model mirroring the discrete-event simulator.

Implements the same mechanics as the simulated run — calibrated compute
rates, the 5 s matchmaking floor, two intra-group butterfly stages plus
a hub exchange, each constrained by the per-VM serialization cap and
the single-stream TCP limit — but as arithmetic instead of events.
The paper's practitioners need exactly this: predicting throughput for
a setup *before* renting it (Section 8, estimating training performance
with additional spot VMs). Tests cross-validate it against the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware import get_gpu, local_sps
from ..hivemind.compression import compressed_nbytes
from ..hivemind.matchmaking import (
    MAX_EXCHANGE_STREAMS,
    MIN_MATCHMAKING_S,
    form_groups,
)
from ..models import get_model
from ..network import Topology

__all__ = ["Prediction", "predict"]


@dataclass(frozen=True)
class Prediction:
    """Predicted steady-state behaviour of one hivemind epoch."""

    throughput_sps: float
    local_throughput_sps: float
    calc_s: float
    matchmaking_s: float
    transfer_s: float
    granularity: float

    @property
    def comm_s(self) -> float:
        return self.matchmaking_s + self.transfer_s

    @property
    def epoch_s(self) -> float:
        return self.calc_s + self.comm_s


def _intra_stage_s(
    topology: Topology,
    group: tuple[str, ...],
    payload_bytes: float,
    caps: dict[str, float],
) -> float:
    """One butterfly stage inside a group: each member ships
    ``(g-1)/g`` of the payload, bounded by its serialization cap and the
    slowest member-to-member stream."""
    g = len(group)
    if g < 2:
        return 0.0
    worst = 0.0
    for src in group:
        bytes_out = payload_bytes * (g - 1) / g
        pair_rate = min(
            topology.single_stream_bps(src, dst)
            for dst in group
            if dst != src
        ) * (g - 1)
        rate = min(caps.get(src, float("inf")), pair_rate,
                   topology.get(src).nic_bps)
        worst = max(worst, bytes_out * 8.0 / rate)
    return worst


def _hub_stage_s(
    topology: Topology,
    groups: list[tuple[str, ...]],
    hub: tuple[str, ...],
    payload_bytes: float,
    caps: dict[str, float],
) -> float:
    """The full-duplex hub exchange (gather and scatter pipelined).

    Each non-hub group ships its aggregate over ``max(|G|, |hub|)``
    parallel streams (one TCP stream per peer, Section 7), bounded by
    each side's total serialization budget; the hub's budget is shared
    by all concurrently exchanging groups.
    """
    rates: dict[tuple[str, ...], float] = {}
    for group in groups:
        if group == hub:
            continue
        streams = min(max(len(group), len(hub)), MAX_EXCHANGE_STREAMS)
        raw = sum(
            min(
                topology.single_stream_bps(group[k % len(group)],
                                           hub[k % len(hub)]),
                caps.get(group[k % len(group)], float("inf")),
            )
            for k in range(streams)
        )
        group_budget = sum(caps.get(site, float("inf")) for site in group)
        rates[group] = min(raw, group_budget)
    if not rates:
        return 0.0
    hub_budget = sum(caps.get(site, float("inf")) for site in hub)
    demand = sum(rates.values())
    contention = min(1.0, hub_budget / demand) if demand > 0 else 1.0
    return max(
        payload_bytes * 8.0 / (rate * contention) for rate in rates.values()
    )


def predict(
    model_key,
    peers: list[tuple[str, str]],
    topology: Topology,
    target_batch_size: int = 32768,
    codec: str = "fp16",
    min_matchmaking_s: float = MIN_MATCHMAKING_S,
) -> Prediction:
    """Predict epoch timing for peers given as ``(site, gpu_key)``.

    ``model_key`` is a zoo key or a :class:`~repro.models.ModelSpec`
    (e.g. a synthetic scaling-family member).
    """
    from ..models import ModelSpec

    if not peers:
        raise ValueError("need at least one peer")
    model = model_key if isinstance(model_key, ModelSpec) else get_model(
        model_key
    )
    payload = compressed_nbytes(model.parameters, codec)
    rates = {site: local_sps(gpu, model) for site, gpu in peers}
    caps = {site: get_gpu(gpu).avg_stream_cap_bps for site, gpu in peers}
    calc_s = target_batch_size / sum(rates.values())

    if len(peers) == 1:
        # A single peer never averages: baseline behaviour.
        sps = rates[peers[0][0]] / model.local_penalty  # undo the penalty
        return Prediction(
            throughput_sps=sps,
            local_throughput_sps=sps,
            calc_s=target_batch_size / sps,
            matchmaking_s=0.0,
            transfer_s=0.0,
            granularity=float("inf"),
        )

    plan = form_groups(topology, [site for site, __ in peers])
    groups = list(plan.groups)
    hub = plan.hub
    transfer_s = 2.0 * max(
        (_intra_stage_s(topology, group, payload, caps) for group in groups),
        default=0.0,
    )
    if len(groups) > 1:
        transfer_s += _hub_stage_s(topology, groups, hub, payload, caps)
    matchmaking_s = min_matchmaking_s
    if calc_s < min_matchmaking_s:
        # Expected value of the instability penalty (uniform up to one
        # extra matchmaking period).
        matchmaking_s += min_matchmaking_s / 2.0
    epoch_s = calc_s + matchmaking_s + transfer_s
    return Prediction(
        throughput_sps=target_batch_size / epoch_s,
        local_throughput_sps=target_batch_size / calc_s,
        calc_s=calc_s,
        matchmaking_s=matchmaking_s,
        transfer_s=transfer_s,
        granularity=calc_s / (matchmaking_s + transfer_s),
    )
