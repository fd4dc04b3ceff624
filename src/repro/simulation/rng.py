"""Seeded random-number streams for reproducible simulations.

Every stochastic component (spot interruptions, matchmaking delays)
draws from its own named stream so that adding randomness to one
subsystem never perturbs another. Streams are derived from a single
base seed via :class:`numpy.random.SeedSequence` spawning, which is the
recommended way to build independent generators.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A registry of independent, named :class:`numpy.random.Generator` s."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._base = np.random.SeedSequence(self.seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream's seed is derived from the base seed and a stable hash
        of the name, so the same (seed, name) pair always yields the same
        sequence regardless of creation order.
        """
        if name not in self._streams:
            # Stable, platform-independent digest of the name.
            digest = 0
            for char in name:
                digest = (digest * 131 + ord(char)) % (2**63)
            child = np.random.SeedSequence(
                entropy=self._base.entropy, spawn_key=(digest,)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)
