"""Host-time benchmark of the ``repro`` simulator.

``python3 perfbench/run.py --workload <paper|swarm|chaos> --seed N
--seconds S --trace <0|1>`` runs one workload for ``S`` seconds and
prints, as its last line, one JSON object with the operations attempted
and failed and either the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a separate traced pass (``--trace 1``).

* :mod:`perfbench.workloads` — the three workloads and the
  simulated-output digests that gate correctness;
* :mod:`perfbench.layers` — wrappers around the public functions of each
  layer module, giving per-layer self time and exact work counters;
* :mod:`perfbench.run` — the command line and the measurement loop;
* :mod:`perfbench.setup_probe` — set-up time in a fresh interpreter.

The benchmark changes nothing under ``src/``; it measures each layer
from outside and restores every function it wrapped.
"""
