"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <tmp_root>

Prints the host seconds from the start of this script until the
workload's inputs are built (importing ``repro`` plus the configs,
topologies and fault schedules the first operation needs), then the
median seconds of three runs of the reference loop, which ``run.py``
uses to scale the first to reference speed. ``run.py`` starts several
probes one after another and reports their median as ``setup_s``.
"""

import time

START = time.perf_counter()

import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    name, seed, tmp_root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.build(seed, tmp_root)
    elapsed = time.perf_counter() - START
    workload.close(inputs)
    from perfbench.calibrate import calibration_s

    calibration = statistics.median(calibration_s() for __ in range(3))
    print(repr(elapsed), repr(calibration))
    return 0


if __name__ == "__main__":
    sys.exit(main())
