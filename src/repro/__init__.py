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
- :mod:`repro.training` — numpy autograd, SGD/LAMB for the
  large-batch ablation (the simulated runs train no model),
- :mod:`repro.hivemind` — DHT, matchmaking, Moshpit averaging, runs,
- :mod:`repro.core` — granularity, prediction, costs, planner,
- :mod:`repro.experiments` — experiment specs and figure regeneration.

Every package loads its public names on first use, so ``import repro``
loads no subpackage and no numpy.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    core=("evaluate_setup", "predict"),
    experiments=("generate", "render", "run_experiment"),
    hivemind=("HivemindRunConfig", "PeerSpec", "run_hivemind"),
    network=("build_topology",),
)
__all__.append("__version__")
