"""Cloud substrate: providers, pricing, instances, spot lifecycle."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    allocator=("FleetEvent", "SpotFleet", "VmSlot"),
    instances=("INSTANCE_TYPES", "InstanceType", "get_instance_type"),
    pricing=(
        "B2_EGRESS_PER_GB",
        "B2_STORAGE_PER_GB_MONTH",
        "PRICING",
        "ProviderPricing",
        "egress_price_per_gb",
        "instance_price_per_hour",
    ),
    spot=("InterruptionModel",),
    spot_market=("SpotPriceModel", "integrate_price_usd"),
)
