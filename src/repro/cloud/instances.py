"""Instance catalog: the VM shapes the paper rented (or owned).

Each :class:`InstanceType` ties together a provider, an accelerator,
host resources and the pricing-table row used to bill it. The host RAM
matters: the paper had to use the 30 GB ``n1-standard-8`` template
because 15 GB was insufficient for gradient application on the CPU with
the biggest models (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware import GpuSpec, get_gpu
from .pricing import instance_price_per_hour

__all__ = ["InstanceType", "INSTANCE_TYPES", "get_instance_type"]


@dataclass(frozen=True)
class InstanceType:
    key: str
    provider: str
    display_name: str
    gpu_key: str
    vcpus: int
    ram_gb: float
    #: Row of the pricing table this instance bills under.
    price_kind: str
    #: Whether a spot tier exists for this instance.
    has_spot: bool = True

    @property
    def gpu(self) -> GpuSpec:
        return get_gpu(self.gpu_key)

    def price_per_hour(self, spot: bool = True) -> float:
        if spot and not self.has_spot:
            spot = False
        return instance_price_per_hour(self.provider, self.price_kind, spot=spot)


INSTANCE_TYPES: dict[str, InstanceType] = {
    inst.key: inst
    for inst in [
        # Google Cloud n1-standard-8 + T4 (Section 4). The 15 GB
        # variant is kept to document why it was rejected.
        InstanceType("gc-t4", "gc", "n1-standard-8 (1xT4)", "t4", 8, 30.0, "t4"),
        InstanceType("gc-t4-small", "gc", "n1-standard-4 (1xT4)", "t4", 4, 15.0, "t4"),
        InstanceType("aws-t4", "aws", "g4dn.2xlarge (1xT4)", "t4", 8, 32.0, "t4"),
        InstanceType("azure-t4", "azure", "NC4as_T4_v3 (1xT4)", "t4", 4, 30.0, "t4"),
        InstanceType("lambda-a10", "lambda", "1xA10", "a10", 30, 200.0, "a10",
                     has_spot=False),
        InstanceType("gc-dgx2", "gc", "DGX-2 (8xV100)", "dgx2", 96, 1500.0, "dgx2"),
        InstanceType("gc-4xt4", "gc", "4xT4 node", "4xt4", 32, 120.0, "4xt4"),
        InstanceType("gc-a100", "gc", "a2-ultragpu-1g (1xA100 80GB)", "a100",
                     12, 170.0, "a100"),
        InstanceType("onprem-rtx8000", "onprem", "RTX8000 workstation",
                     "rtx8000", 16, 128.0, "rtx8000", has_spot=False),
        InstanceType("onprem-dgx2", "onprem", "DGX-2 (8xV100, on-premise)",
                     "dgx2", 96, 1500.0, "dgx2", has_spot=False),
    ]
}


def get_instance_type(key: str) -> InstanceType:
    if key not in INSTANCE_TYPES:
        raise KeyError(f"unknown instance type {key!r}; known: {sorted(INSTANCE_TYPES)}")
    return INSTANCE_TYPES[key]
