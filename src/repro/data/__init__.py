"""Data substrate: dataset specs and the simulated object-store link."""

from .datasets import DATASETS, DatasetSpec, get_dataset
from .storage import StoreLink

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "StoreLink",
    "get_dataset",
]
