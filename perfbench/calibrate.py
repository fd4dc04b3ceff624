"""A fixed reference loop that measures how fast the host runs right now.

On a shared machine the host's speed drifts by tens of percent over
seconds to minutes, moving every timing of a run together: in one set
of chaos runs on a shared 2-vCPU Xeon VM, pass medians spread 37%
between quartiles while the ratio of each pass to this loop, timed next
to it, spread 4%. So
``run.py`` times this loop before and after every pass and reports
host seconds *at reference speed*: measured seconds times
``REFERENCE_S`` over the loop's seconds around that pass. A change to
the simulator moves the scaled numbers exactly as it moves the raw
ones; a change in the machine's load moves both the loop and the pass.

The loop is stdlib only, and does what the simulator does most: pushes
and pops timestamped tuples on a heap, updates dicts and adds floats.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "calibration_s", "scale"]

#: Seconds :func:`calibration_s` takes on a quiet host (a 2-vCPU
#: Xeon VM); scaled timings are in seconds on such a host.
REFERENCE_S = 0.025

_EVENTS = 30_000


def calibration_s() -> float:
    """Host seconds of one run of the reference loop."""
    start = time.perf_counter()
    queue: list[tuple[float, int, str]] = []
    totals: dict[str, float] = {}
    now = 0.0
    for index in range(_EVENTS):
        heapq.heappush(queue, (now + (index * 7919 % 1000) * 1e-3, index,
                               f"e{index % 97}"))
        if len(queue) > 64:
            now, __, name = heapq.heappop(queue)
            totals[name] = totals.get(name, 0.0) + now * 0.5
    return time.perf_counter() - start


def scale(seconds: float, *calibrations: float) -> float:
    """``seconds`` at reference speed, given the loop's times around it."""
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)
