"""Parameter sweeps: grids over models, fleets and batch sizes.

The paper's figures are hand-picked slices of a large design space;
this module exposes the general tool: sweep any grid of (model ×
experiment × TBS), collect flat result rows, and export them. Used by
the broader examples and handy for anyone extending the study.

Sweeps execute through the :mod:`repro.orchestrator`: every grid point
becomes an :class:`~repro.orchestrator.ExperimentJob`, previously
simulated points are served from the content-addressed run cache, and
``jobs > 1`` fans the misses out over a process pool. Outcomes are
merged back in grid order, so a parallel sweep's exports are
byte-identical to a serial one's.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from ..orchestrator import ExperimentJob, Orchestrator, RunCache
from .runner import ExperimentResult

__all__ = ["SweepFailure", "SweepGrid", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepGrid:
    """A cartesian grid of experiment parameters."""

    models: tuple[str, ...]
    experiments: tuple[str, ...]
    target_batch_sizes: tuple[int, ...] = (32768,)

    def __post_init__(self):
        if not (self.models and self.experiments and self.target_batch_sizes):
            raise ValueError("grid axes must be non-empty")

    def points(self) -> Iterable[tuple[str, str, int]]:
        for model in self.models:
            for experiment in self.experiments:
                for tbs in self.target_batch_sizes:
                    yield model, experiment, tbs

    def __len__(self) -> int:
        return (len(self.models) * len(self.experiments)
                * len(self.target_batch_sizes))


@dataclass
class SweepFailure:
    """One grid point that raised instead of producing a result."""

    point: tuple[str, str, int]
    error: str
    error_type: str = "Exception"
    traceback: str = ""

    def __iter__(self) -> Iterator:
        # Unpacks like the historical ``(point, error)`` tuple.
        return iter((self.point, self.error))

    def to_dict(self) -> dict:
        return {
            "point": list(self.point),
            "error": self.error,
            "error_type": self.error_type,
            "traceback": self.traceback,
        }


@dataclass
class SweepResult:
    """All rows of a sweep plus export helpers."""

    results: list[ExperimentResult] = field(default_factory=list)
    failures: list[SweepFailure] = field(default_factory=list)
    #: Lookup counters from the orchestrator that ran the sweep.
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0

    def rows(self) -> list[dict]:
        return [result.row() for result in self.results]

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        rows = self.rows()
        with open(path, "w", newline="") as handle:
            if rows:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        return path

    def to_json(self, path: str | Path) -> Path:
        # Deliberately excludes the cache counters: the exported file
        # must be byte-identical between cold, warm and parallel runs.
        path = Path(path)
        with open(path, "w") as handle:
            json.dump({"rows": self.rows(),
                       "failures": [f.to_dict() for f in self.failures]},
                      handle, indent=2)
        return path


def run_sweep(
    grid: SweepGrid,
    epochs: int = 3,
    progress: Optional[callable] = None,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    orchestrator: Optional[Orchestrator] = None,
    **overrides,
) -> SweepResult:
    """Execute every grid point; failures are recorded, not raised.

    ``jobs > 1`` runs cache misses on a process pool; results and
    failure records are merged in grid order, so the sweep's exports do
    not depend on the worker count. Pass ``cache`` to reuse results
    across invocations, or a preconfigured ``orchestrator`` (which
    wins over both knobs). An override the fingerprint cannot carry
    raises :class:`~repro.orchestrator.Uncacheable` before any point
    runs.
    """
    grid_jobs = [
        ExperimentJob.make(experiment, model, target_batch_size=tbs,
                           epochs=epochs, **overrides)
        for model, experiment, tbs in grid.points()
    ]
    if orchestrator is None:
        orchestrator = Orchestrator(cache=cache, jobs=jobs)
    sweep = SweepResult()
    for outcome in orchestrator.map(grid_jobs, progress=progress):
        if outcome.ok:
            sweep.results.append(outcome.result)
        else:
            sweep.failures.append(SweepFailure(
                point=outcome.job.point,
                error=outcome.failure.error,
                error_type=outcome.failure.error_type,
                traceback=outcome.failure.traceback,
            ))
    sweep.cache_hits = orchestrator.hits
    sweep.cache_misses = orchestrator.misses
    sweep.executed = orchestrator.executed
    return sweep
