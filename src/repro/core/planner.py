"""The experiment planner: the paper's "lessons learned", codified.

Given a model, candidate peers, and a topology, the planner predicts
throughput and granularity with the analytical model, prices the setup,
and emits the guidance a practitioner needs (Section 8):

* is the task granular enough to scale at all?
* will adding VMs help, and how many are worth adding?
* do egress costs overshadow the VM costs (geo-distributed NLP)?
* should local cloud-only be preferred over hybrid (Section 6)?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cloud import get_instance_type
from ..hivemind.compression import compressed_nbytes
from ..hivemind.matchmaking import form_groups
from ..models import get_model
from ..network import Topology
from .analytical import Prediction, predict
from .granularity import best_speedup_when_doubling

__all__ = ["Advice", "evaluate_setup"]

#: Below this granularity the paper considers the task no longer
#: suitable for distributed training (C-8 NLP sat at 0.4 and stopped
#: scaling; a granularity >= ~1 is where speedups remain meaningful).
MIN_USEFUL_GRANULARITY = 1.0


@dataclass
class Advice:
    """Planner output: prediction, economics, and human-readable notes."""

    prediction: Prediction
    scalable: bool
    best_doubling_speedup: float
    hourly_vm_usd: float
    hourly_egress_usd_estimate: float
    notes: list[str] = field(default_factory=list)


def _estimate_hourly_egress(
    model_key: str,
    peers: list[tuple[str, str]],
    topology: Topology,
    prediction: Prediction,
    codec: str,
) -> float:
    """Rough egress bill: one butterfly + hub round per epoch, priced
    per traffic class at the source provider's rate."""
    from ..cloud import egress_price_per_gb

    model = get_model(model_key)
    payload_gb = compressed_nbytes(model.parameters, codec) / 1e9
    if len(peers) < 2 or prediction.epoch_s <= 0:
        return 0.0
    rounds_per_hour = 3600.0 / prediction.epoch_s
    plan = form_groups(topology, [site for site, __ in peers])
    total = 0.0
    for group in plan.groups:
        g = len(group)
        if g >= 2:
            chunk_gb = payload_gb / g
            for src in group:
                for dst in group:
                    if src != dst:
                        price = egress_price_per_gb(
                            topology.get(src), topology.get(dst)
                        )
                        total += 2.0 * chunk_gb * price
        if len(plan.groups) > 1 and group != plan.hub:
            src, dst = group[0], plan.hub[0]
            up = egress_price_per_gb(topology.get(src), topology.get(dst))
            down = egress_price_per_gb(topology.get(dst), topology.get(src))
            total += payload_gb * (up + down)
    return total * rounds_per_hour


def evaluate_setup(
    model_key: str,
    peers: list[tuple[str, str]],
    topology: Topology,
    target_batch_size: int = 32768,
    codec: str = "fp16",
    instance_keys: dict[str, str] | None = None,
    spot: bool = True,
) -> Advice:
    """Evaluate a candidate training setup; peers are (site, gpu_key)."""
    prediction = predict(model_key, peers, topology, target_batch_size, codec)
    instance_keys = instance_keys or {}
    hourly_vm = 0.0
    for site, gpu in peers:
        key = instance_keys.get(site)
        if key is None:
            provider = site.split(":", 1)[0]
            key = {
                "gc": "gc-t4", "aws": "aws-t4", "azure": "azure-t4",
                "lambda": "lambda-a10", "onprem": "onprem-rtx8000",
            }.get(provider, "gc-t4")
        hourly_vm += get_instance_type(key).price_per_hour(spot=spot)
    hourly_egress = _estimate_hourly_egress(
        model_key, peers, topology, prediction, codec
    )

    notes: list[str] = []
    scalable = prediction.granularity >= MIN_USEFUL_GRANULARITY
    if not scalable:
        notes.append(
            f"granularity {prediction.granularity:.2f} < 1: the task is "
            "communication-bound; adding VMs will not give a useful speedup"
        )
    else:
        notes.append(
            f"granularity {prediction.granularity:.2f}: doubling the VMs "
            f"yields at best {best_speedup_when_doubling(prediction.granularity):.2f}x"
        )
    if hourly_egress > hourly_vm and len(peers) > 1:
        notes.append(
            f"egress (${hourly_egress:.2f}/h) exceeds VM cost "
            f"(${hourly_vm:.2f}/h): prefer a single region, AWS's capped "
            "egress, or a provider that does not charge egress"
        )
    continents = {topology.get(site).continent for site, __ in peers}
    if len(continents) > 1:
        notes.append(
            "peers span continents: the intercontinental penalty is paid "
            "once and is not amortized by adding local hardware"
        )
    if prediction.calc_s < 5.0:
        notes.append(
            "the target batch size is reached faster than the minimum "
            "matchmaking time (5 s): averaging will be unstable — raise "
            "the TBS or use fewer peers"
        )
    return Advice(
        prediction=prediction,
        scalable=scalable,
        best_doubling_speedup=best_speedup_when_doubling(prediction.granularity),
        hourly_vm_usd=hourly_vm,
        hourly_egress_usd_estimate=hourly_egress,
        notes=notes,
    )

