"""Data substrate: dataset specs and the simulated object-store link."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    datasets=("DATASETS", "DatasetSpec", "get_dataset"),
    storage=("StoreLink",),
)
