"""Cloud substrate: providers, pricing, instances, spot lifecycle."""

from .allocator import FleetEvent, SpotFleet, VmSlot
from .instances import (
    INSTANCE_TYPES,
    InstanceType,
    get_instance_type,
    host_ram_required_gb,
)
from .pricing import (
    B2_EGRESS_PER_GB,
    B2_STORAGE_PER_GB_MONTH,
    PRICING,
    ProviderPricing,
    egress_price_per_gb,
    instance_price_per_hour,
)
from .spot import (
    InterruptionModel,
    expected_downtime_fraction,
    expected_throughput_penalty,
)
from .spot_market import SpotPriceModel, integrate_price_usd, price_series

__all__ = [
    "B2_EGRESS_PER_GB",
    "B2_STORAGE_PER_GB_MONTH",
    "FleetEvent",
    "SpotPriceModel",
    "integrate_price_usd",
    "price_series",
    "INSTANCE_TYPES",
    "InstanceType",
    "InterruptionModel",
    "PRICING",
    "ProviderPricing",
    "SpotFleet",
    "VmSlot",
    "egress_price_per_gb",
    "expected_downtime_fraction",
    "expected_throughput_penalty",
    "get_instance_type",
    "host_ram_required_gb",
    "instance_price_per_hour",
]
