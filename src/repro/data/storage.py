"""The simulated ingress link from a Backblaze-B2-style object store.

The paper hosts its datasets on an independent S3-compatible provider
(Backblaze B2) because spot VMs cannot rely on provider-local storage:
replicated data centers serve a reasonable ingress rate from every
continent at $0.01/GB egress and $0.005/GB/month storage (Section 3).

:class:`StoreLink` is the pipe from the store to one VM. The training
simulation uses it to cap the local rate at the link's bandwidth and to
count the bytes each VM fetches; :func:`repro.core.costs.cost_report`
is the one place those bytes are priced (at ``B2_EGRESS_PER_GB``). The
paper observed ~33 Mb/s ingress per VM while training CV
(demand-limited, far below the link capacity).
"""

from __future__ import annotations

from dataclasses import dataclass

from .datasets import DatasetSpec

__all__ = ["StoreLink"]


@dataclass
class StoreLink:
    """Simulated ingress from the replicated store to one VM.

    The store is replicated worldwide, so the per-VM ingress capacity is
    the same everywhere (Section 3); consumption is demand-limited by
    the training throughput. Every fetched byte lands in the local disk
    cache, so once the whole dataset has been fetched no further ingress
    accrues (the paper's "one-time cost" observation).
    """

    dataset: DatasetSpec
    link_capacity_bps: float = 2e9
    #: Bytes fetched from the store so far; also what the cache holds.
    ingress_bytes: float = 0.0

    @property
    def cache_complete(self) -> bool:
        """Whole dataset cached locally."""
        return self.ingress_bytes >= self.dataset.total_bytes

    def demand_bps(self, samples_per_second: float) -> float:
        """Ingress rate needed to sustain a training throughput."""
        if self.cache_complete:
            return 0.0
        return min(
            samples_per_second * self.dataset.bytes_per_sample * 8.0,
            self.link_capacity_bps,
        )

    def consume(self, num_samples: float) -> float:
        """Account ``num_samples`` worth of data; returns bytes fetched.

        Samples already in the local cache are free; fresh data is
        fetched from the store and added to the cache, which the paper
        assumes large enough for the one-time-cost argument.
        """
        if num_samples < 0:
            raise ValueError("num_samples must be >= 0")
        remaining = max(self.dataset.total_bytes - self.ingress_bytes, 0.0)
        fetched = min(num_samples * self.dataset.bytes_per_sample, remaining)
        self.ingress_bytes += fetched
        return fetched
