"""Chunked all-reduce algorithms, executed peer-by-peer.

The averager's timing side already moves the right bytes through the
fabric; this module supplies the *numeric* side with the same
communication structure, instead of a centralized shortcut: every peer
owns a vector, exchanges real chunks, and finishes with the complete
reduction — so tests can assert byte-level agreement between what was
"sent" and what each peer ends up holding.

Implemented strategies:

* :func:`butterfly_all_reduce` — reduce-scatter + all-gather, the
  pattern Hivemind uses inside one averaging group;
* :func:`hierarchical_all_reduce` — regional groups reduce internally,
  exchange aggregates via a hub group, and broadcast back (the Moshpit
  pattern the paper reconstructs from its egress measurements).

Each function returns per-peer results plus a transcript of
``(src, dst, nbytes)`` transfers, which the tests reconcile against the
closed-form byte counts used by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Transcript",
    "butterfly_all_reduce",
    "hierarchical_all_reduce",
]


@dataclass
class Transcript:
    """Record of every point-to-point transfer of an all-reduce."""

    transfers: list[tuple[int, int, float]] = field(default_factory=list)

    def send(self, src: int, dst: int, nbytes: float) -> None:
        self.transfers.append((src, dst, nbytes))

    @property
    def total_bytes(self) -> float:
        return sum(nbytes for __, __, nbytes in self.transfers)


def _chunks(size: int, parts: int) -> list[slice]:
    """Split ``size`` elements into ``parts`` contiguous slices."""
    bounds = np.linspace(0, size, parts + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def butterfly_all_reduce(
    vectors: Sequence[np.ndarray],
    bytes_per_value: float = 2.0,
) -> tuple[list[np.ndarray], Transcript]:
    """Reduce-scatter + all-gather among ``n`` peers.

    Peer ``i`` becomes the owner of chunk ``i``: every other peer sends
    it their slice (reduce-scatter), peer ``i`` reduces it, then sends
    the reduced slice back to everyone (all-gather). Each peer ships
    ``2 (n-1)/n`` of its vector — the factor the cost model uses.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("need at least one vector")
    size = vectors[0].size
    for vector in vectors:
        if vector.size != size:
            raise ValueError("vectors must share a size")
    transcript = Transcript()
    if n == 1:
        return [vectors[0].copy()], transcript
    slices = _chunks(size, n)

    # Reduce-scatter: owner i accumulates chunk i from everyone.
    reduced_chunks: list[np.ndarray] = []
    for owner, chunk in enumerate(slices):
        accumulator = vectors[owner][chunk].copy()
        for peer in range(n):
            if peer == owner:
                continue
            transcript.send(peer, owner,
                            (chunk.stop - chunk.start) * bytes_per_value)
            accumulator += vectors[peer][chunk]
        reduced_chunks.append(accumulator)

    # All-gather: owners broadcast their reduced chunk.
    results = [np.empty(size) for __ in range(n)]
    for owner, chunk in enumerate(slices):
        for peer in range(n):
            if peer != owner:
                transcript.send(owner, peer,
                                (chunk.stop - chunk.start) * bytes_per_value)
            results[peer][chunk] = reduced_chunks[owner]
    return results, transcript


def hierarchical_all_reduce(
    vectors: Sequence[np.ndarray],
    groups: Sequence[Sequence[int]],
    hub_index: int = 0,
    bytes_per_value: float = 2.0,
) -> tuple[list[np.ndarray], Transcript]:
    """Moshpit-style two-level reduction.

    Each group reduces internally (butterfly); group leaders exchange
    group sums with the hub group's leader; the global sum is broadcast
    back down. All peers end with the identical global sum.
    """
    n = len(vectors)
    members = sorted(index for group in groups for index in group)
    if members != list(range(n)):
        raise ValueError("groups must partition the peers exactly")
    transcript = Transcript()
    size = vectors[0].size
    nbytes = size * bytes_per_value

    # Level 1: intra-group butterfly (reuse, merging transcripts).
    group_sums: list[np.ndarray] = []
    for group in groups:
        inner, inner_transcript = butterfly_all_reduce(
            [vectors[i] for i in group], bytes_per_value
        )
        for local_src, local_dst, chunk_bytes in inner_transcript.transfers:
            transcript.send(group[local_src], group[local_dst], chunk_bytes)
        group_sums.append(inner[0])

    # Level 2: leaders exchange with the hub leader.
    hub_leader = groups[hub_index][0]
    global_sum = group_sums[hub_index].copy()
    for gi, group in enumerate(groups):
        if gi == hub_index:
            continue
        transcript.send(group[0], hub_leader, nbytes)
        global_sum += group_sums[gi]
    for gi, group in enumerate(groups):
        if gi == hub_index:
            continue
        transcript.send(hub_leader, group[0], nbytes)

    # Level 3: leaders broadcast inside their groups.
    results = [np.empty(size) for __ in range(n)]
    for group in groups:
        for member in group:
            if member != group[0]:
                transcript.send(group[0], member, nbytes)
            results[member] = global_sum.copy()
    return results, transcript

