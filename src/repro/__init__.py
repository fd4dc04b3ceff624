"""Reproduction of "How Can We Train Deep Learning Models Across Clouds
and Continents? An Experimental Study" (PVLDB 17(6), 2024).

The package simulates decentralized, Hivemind-style spot training across
zones, continents and cloud providers, and regenerates every table and
figure of the paper's evaluation. Subpackages:

- :mod:`repro.simulation` — discrete-event kernel,
- :mod:`repro.network` — WAN topology, TCP model, flow fabric,
- :mod:`repro.cloud` — providers, pricing, spot interruptions,
- :mod:`repro.hardware` / :mod:`repro.models` — calibrated workloads,
- :mod:`repro.data` — dataset specs + object-store ingress link,
- :mod:`repro.training` — numpy autograd, SGD/LAMB,
- :mod:`repro.hivemind` — DHT, matchmaking, Moshpit averaging, runs,
- :mod:`repro.core` — granularity, prediction, costs, planner,
- :mod:`repro.experiments` — experiment specs and figure regeneration.
"""

__version__ = "1.0.0"

from .core import evaluate_setup, predict
from .experiments import generate, render, run_experiment
from .hivemind import HivemindRunConfig, PeerSpec, run_hivemind
from .network import build_topology

__all__ = [
    "HivemindRunConfig",
    "PeerSpec",
    "__version__",
    "build_topology",
    "evaluate_setup",
    "generate",
    "predict",
    "render",
    "run_experiment",
    "run_hivemind",
]
