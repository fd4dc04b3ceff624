"""Accelerator catalog and calibrated throughput table."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    calibration=(
        "CALIBRATED_SPS",
        "UnsupportedConfiguration",
        "baseline_sps",
        "local_sps",
        "supports",
    ),
    gpus=("GPUS", "GpuSpec", "get_gpu"),
)
