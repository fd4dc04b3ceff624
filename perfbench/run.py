"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload swarm --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``
and exits with code 2, printing no result, when there is none.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s`` — median host seconds of one pass over the workload
  (``paper``: the cold pass plus validation);
* ``setup_s`` — median host seconds, over several fresh interpreters
  started one after another, to import ``repro`` and build the inputs;
* ``peak_rss_mb`` — peak resident memory of the process running the
  passes;
* ``cache_warm_s`` — median host seconds for a fresh orchestrator to
  serve the workload's runs from a run cache that already holds them.

Host seconds are reported at reference speed (see
:mod:`perfbench.calibrate`): each is scaled by the reference loop timed
right around it, so the load of a shared machine cancels out. The
unscaled medians are printed above the result.

``--trace 1`` alternates untraced passes with traced ones (telemetry on,
layer wrappers installed) and reports the per-layer metrics of
:mod:`perfbench.layers`: counts, which must repeat exactly across the
traced passes, median self times, and ``telemetry.overhead_ratio``.

Every pass checks its simulated output: an operation fails when it
raises, when its digest differs from the first pass of the run (traced
passes included), or when a workload-specific check fails. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Run caches live in a
temporary directory under ``.perfbench-tmp/`` in the checkout, removed
before exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calibrate import calibration_s, scale  # noqa: E402

TMP_DIR = ROOT / ".perfbench-tmp"
WORKLOAD_NAMES = ("paper", "swarm", "chaos")
#: Fresh interpreters timed for ``setup_s`` (after one untimed probe).
SETUP_PROBES = 7
#: Fewest timed passes per run, however short ``--seconds`` is.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
HASH_SEED = "0"


class Checker:
    """Counts operations and failures over every pass of one run."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, result, label: str) -> None:
        for op, digest in result.digests.items():
            self.attempted += 1
            reason = result.errors.get(op)
            if reason is None and digest is None:
                reason = "produced no output"
            if reason is None:
                expected = self.reference.setdefault(op, digest)
                if digest != expected:
                    reason = f"digest {digest} differs from {expected}"
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{label} {op}: {reason}")

    @property
    def digest(self) -> str:
        """One digest over every operation's reference output."""
        text = "\n".join(f"{op} {d}" for op, d in sorted(self.reference.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:20]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4f} [{q1:.4f} .. {q3:.4f}] over {len(values)}"


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, tmp_root: Path):
        self.workload = workload
        self.seed = seed
        self.tmp_root = tmp_root
        self.checker = Checker()
        self.notes: list[str] = []
        #: Counter drift or leftover wrappers: each makes the run
        #: incorrect, like a failed operation.
        self.problems: list[str] = []
        #: The reference loop's seconds right after the latest pass.
        self._calibration = calibration_s()

    def _pass(self, inputs, label: str, tracing=None, telemetry=None):
        """One pass, traced when given a tracing and a telemetry sink.

        Returns the result and the factor that scales its seconds to
        reference speed, from the reference loop timed on either side.
        """
        gc.collect()
        before = self._calibration
        if tracing is None:
            result = self.workload.run_pass(inputs)
        else:
            from repro.telemetry import use_telemetry

            with tracing, use_telemetry(telemetry):
                result = self.workload.run_pass(inputs)
        self._calibration = calibration_s()
        self.checker.add(result, label)
        return result, scale(1.0, before, self._calibration)

    def setup_times(self) -> list[float]:
        """Set-up seconds at reference speed, one per fresh interpreter."""
        command = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                   self.workload.name, str(self.seed), str(self.tmp_root)]
        times = []
        # The first probe fills the bytecode and page caches; untimed.
        for probe in range(SETUP_PROBES + 1):
            done = subprocess.run(command, check=True, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S,
                                  cwd=ROOT)
            setup_s, calibration = map(float, done.stdout.split()[-2:])
            if probe:
                times.append(scale(setup_s, calibration))
        return times

    def end_to_end(self, seconds: float) -> dict:
        setup = self.setup_times()
        inputs = self.workload.build(self.seed, str(self.tmp_root))
        try:
            self._pass(inputs, "warm-up")
            walls, warm, unscaled = [], [], []
            deadline = time.perf_counter() + seconds
            while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
                result, factor = self._pass(inputs, f"pass {len(walls) + 1}")
                walls.append(result.wall_s * factor)
                warm.append(result.cache_warm_s * factor)
                unscaled.append(result.wall_s)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            self.workload.close(inputs)
        self.notes += [f"wall_s {_quartiles(walls)}; unscaled "
                       f"{_quartiles(unscaled)}",
                       f"setup_s {_quartiles(setup)}",
                       f"cache_warm_s {_quartiles(warm)}"]
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cache_warm_s": (statistics.median(warm), "s"),
        }

    def traced(self, seconds: float) -> dict:
        from perfbench import layers
        from repro.telemetry import Telemetry

        inputs = self.workload.build(self.seed, str(self.tmp_root))
        untraced, traced, per_pass = [], [], []
        try:
            self._pass(inputs, "warm-up")
            deadline = time.perf_counter() + seconds
            while len(traced) < 2 or time.perf_counter() < deadline:
                label = f"pass {len(traced) + 1}"
                result, factor = self._pass(inputs, label)
                untraced.append(result.wall_s * factor)
                tracing, telemetry = layers.Tracing(), Telemetry()
                result, factor = self._pass(inputs, f"traced {label}",
                                            tracing, telemetry)
                traced.append(result.wall_s * factor)
                metrics = layers.layer_metrics(tracing, telemetry,
                                               result.executed)
                for name in layers.TIME_METRICS:
                    metrics[name] *= factor
                per_pass.append(metrics)
                left = layers.installed_wrappers()
                if left:
                    self.problems.append(f"wrappers left installed: {left}")
        finally:
            self.workload.close(inputs)
        metrics = {}
        for name, unit in layers.COUNT_METRICS.items():
            values = [m[name] for m in per_pass]
            if len(set(values)) > 1:
                self.problems.append(f"behaviour change: {name} drifted "
                                     f"across traced passes: {values}")
            metrics[name] = (values[0], unit)
        for name in layers.TIME_METRICS:
            metrics[name] = (statistics.median(m[name] for m in per_pass), "s")
        metrics["telemetry.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced), "ratio")
        self.notes += [f"untraced wall_s {_quartiles(untraced)}",
                       f"traced wall_s {_quartiles(traced)}"]
        return metrics

    @property
    def correct(self) -> bool:
        return self.checker.failed == 0 and not self.problems


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (paper has none and ignores it)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep running timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro/ under {ROOT}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Some fault-injected runs iterate sets of site names, so their
        # output depends on string hashing; pin it so counts and digests
        # repeat across processes. exec keeps this process, no child.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    TMP_DIR.mkdir(exist_ok=True)
    run_tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    bench = Bench(workload, args.seed, run_tmp)
    try:
        if args.trace:
            metrics = bench.traced(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:  # another run still uses it
            pass

    checker = bench.checker
    seed = (f"seed {args.seed}" if workload.seeded
            else "no seed (the paper setups fix the output)")
    print(f"perfbench {workload.name}: {seed}, trace {args.trace}")
    print(f"  operations: {checker.attempted} attempted, "
          f"{checker.failed} failed; output digest {checker.digest}")
    for line in bench.problems + bench.notes + checker.failures[:20]:
        print(f"  {line}")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
