"""Dataset descriptors for the three training domains.

Per-sample payloads are calibrated against the paper's data-loading
costs (Figure 11a: $0.144/h per VM for CV, $0.083/h for NLP at
$0.01/GB from Backblaze): ImageNet JPEG samples average ~110 KB and the
Wikipedia MLM samples ~31 KB as stored in the tar shards. CommonVoice
samples are preprocessed Log-Mel spectrograms (Section 11).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models import Domain

__all__ = ["DatasetSpec", "DATASETS", "get_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    key: str
    name: str
    domain: str
    num_samples: int
    bytes_per_sample: float
    task: str

    @property
    def total_bytes(self) -> float:
        return self.num_samples * self.bytes_per_sample

    @property
    def total_gb(self) -> float:
        return self.total_bytes / 1e9


DATASETS: dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in [
        DatasetSpec(
            key="imagenet1k", name="ImageNet-1K", domain=Domain.CV,
            num_samples=1_281_167, bytes_per_sample=110_000.0,
            task="classification (1000 classes)",
        ),
        DatasetSpec(
            key="wikipedia", name="Wikipedia (March 2022)", domain=Domain.NLP,
            num_samples=6_800_000, bytes_per_sample=30_700.0,
            task="masked language modeling",
        ),
        DatasetSpec(
            key="commonvoice", name="CommonVoice (Log-Mel)", domain=Domain.ASR,
            num_samples=1_700_000, bytes_per_sample=480_000.0,
            task="speech transcription",
        ),
    ]
}


def get_dataset(key: str) -> DatasetSpec:
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {key!r}; known: {sorted(DATASETS)}")
    return DATASETS[key]
