"""Sim-time span tracing.

A :class:`Span` is a named interval on a *track* (one track per peer,
plus auxiliary tracks for the kernel, the network and the spot fleet).
All timestamps are simulation seconds taken from the bound clock —
never wall clock — so two runs with the same seed produce bit-identical
traces.

Spans can be recorded three ways:

* as a context manager (``with tracer.span("calc", ...)``) — works from
  inside generator-based simulation processes because the ``with`` block
  stays open across ``yield``s and closes when the generator is resumed
  past it (including via :class:`~repro.simulation.Interrupt` unwinding);
* explicitly paired (:meth:`Tracer.begin` / :meth:`Tracer.finish`) for
  callback-driven lifecycles such as network flows;
* retrospectively (:meth:`Tracer.add_span`) when the interval is only
  known after the fact (per-epoch splits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Span", "Tracer"]


def _zero_clock() -> float:
    return 0.0


class Span:
    """One traced interval in simulated time.

    Also its own context manager (``with tracer.span(...) as span:``):
    spans are recorded thousands of times per simulated run, so this is
    a ``__slots__`` class and the ``with`` protocol closes the span
    without a wrapper allocation.
    """

    __slots__ = ("name", "category", "track", "start_s", "end_s", "run",
                 "attrs", "_tracer")

    def __init__(self, name: str, category: str, track: str,
                 start_s: float, end_s: Optional[float] = None,
                 run: int = 0, attrs: Optional[dict[str, Any]] = None):
        self.name = name
        self.category = category
        self.track = track
        self.start_s = start_s
        self.end_s = end_s
        #: Run index (one per bound Environment); becomes the trace pid.
        self.run = run
        self.attrs = {} if attrs is None else attrs
        self._tracer: Optional["Tracer"] = None

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if tracer is not None and self.end_s is None:
            # Inline of Tracer.finish's live-run path; the stale-run
            # path (GC-finalized generators) stays in finish().
            if self.run == tracer._run:
                self.end_s = tracer._clock()
            else:
                tracer.finish(self)
        return False

    def __repr__(self) -> str:
        return (f"Span(name={self.name!r}, category={self.category!r}, "
                f"track={self.track!r}, start_s={self.start_s!r}, "
                f"end_s={self.end_s!r}, run={self.run!r}, "
                f"attrs={self.attrs!r})")


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (e.g. a spot preemption)."""

    name: str
    category: str
    track: str
    time_s: float
    run: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects spans and instant events in deterministic order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self._clock: Callable[[], float] = _zero_clock
        self._run = 0
        #: Final clock reading of each finished run; stale spans from an
        #: earlier run close against this instead of the live clock.
        self._final_times: dict[int, float] = {}

    # -- clock binding -----------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> int:
        """Use ``clock`` for timestamps; returns the new run index.

        Called once per simulation :class:`Environment`; each binding
        starts a new run (a separate process group in the Chrome trace).
        The previous run's clock is read one last time so spans left
        open by abandoned generator processes — whose ``with`` blocks
        only exit when the garbage collector finalizes the generator,
        possibly while a *later* run's clock is bound — still close at
        the simulated time their run actually ended.
        """
        if self._run > 0:
            final = self._final_times.setdefault(self._run, self._clock())
            for span in self.spans:
                if span.run == self._run and not span.closed:
                    span.end_s = max(final, span.start_s)
        self._clock = clock
        self._run += 1
        return self._run

    @property
    def now(self) -> float:
        return self._clock()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, category: str = "", track: str = "main",
             **attrs: Any) -> Span:
        """Open a span closed when the ``with`` block exits."""
        span = Span(name, category, track, self._clock(), None,
                    self._run, attrs)
        span._tracer = self
        self.spans.append(span)
        return span

    def begin(self, name: str, category: str = "", track: str = "main",
              **attrs: Any) -> Span:
        span = Span(name, category, track, self._clock(), None,
                    self._run, attrs)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> Span:
        if span.end_s is None:
            if span.run != self._run and span.run in self._final_times:
                span.end_s = max(self._final_times[span.run], span.start_s)
            else:
                span.end_s = self._clock()
        return span

    def add_span(self, name: str, category: str, track: str,
                 start_s: float, end_s: float, **attrs: Any) -> Span:
        """Record a span whose interval is already known."""
        span = Span(name=name, category=category, track=track,
                    start_s=start_s, end_s=end_s, run=self._run, attrs=attrs)
        self.spans.append(span)
        return span

    def seal(self) -> int:
        """Close every open span at its run's final simulated time.

        Exporters call this so the output never depends on *when* the
        garbage collector finalizes abandoned generator processes (whose
        ``with`` blocks would otherwise close spans at an arbitrary
        later point, or not at all before export). Returns the number
        of spans closed. Idempotent.
        """
        sealed = 0
        for span in self.spans:
            if not span.closed:
                end = self._final_times.get(span.run, self._clock())
                span.end_s = max(end, span.start_s)
                sealed += 1
        return sealed

    def instant(self, name: str, category: str = "", track: str = "main",
                **attrs: Any) -> InstantEvent:
        event = InstantEvent(name=name, category=category, track=track,
                             time_s=self._clock(), run=self._run, attrs=attrs)
        self.instants.append(event)
        return event

    # -- queries -----------------------------------------------------------

    def tracks(self) -> list[tuple[int, str]]:
        """(run, track) pairs in order of first appearance."""
        seen: dict[tuple[int, str], None] = {}
        for span in self.spans:
            seen.setdefault((span.run, span.track))
        for event in self.instants:
            seen.setdefault((event.run, event.track))
        return list(seen)

    def by_category(self, category: str) -> list[Span]:
        return [span for span in self.spans if span.category == category]

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
