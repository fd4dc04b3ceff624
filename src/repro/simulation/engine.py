"""Deterministic discrete-event simulation kernel.

This module provides a small, SimPy-flavoured event loop that the rest of
the library builds on: network transfers, VM lifecycles, training peers,
matchmaking and averaging rounds are all expressed as generator-based
processes scheduled on an :class:`Environment`.

The kernel is intentionally minimal but complete enough for the study:

* :class:`Event` — one-shot events with success/failure values,
* :class:`Timeout` — events triggered after a simulated delay,
* :class:`Process` — a generator that yields events and is resumed with
  their values; processes can be interrupted,
* :class:`AllOf` / :class:`AnyOf` — condition events over multiple events.
  A condition binds its observer once and appends that one object to
  every sub-event, so waiting on a fan-out of n transfers allocates one
  bound method rather than n, and an :class:`AllOf`'s observer only
  counts down. A condition that triggers takes its observer off the
  sub-events still pending, so those do not hold it in a cycle.

Every event class declares ``__slots__``, so an event carries no
instance ``__dict__``; a subclass (the fabric's flow is one) adds its
own slots. A timer that nothing waits on needs no event at all:
:meth:`Environment.defer` and :meth:`Environment.call_later` queue a
*bare entry*, a slotted object that holds one no-argument callable and
takes one ``(time, sequence)`` slot like any event. Its class-level
``_ok`` marks it as succeeded, so the run loops treat it like an event.
:attr:`Environment.events_scheduled` counts every queue entry, bare
entries included. :meth:`Environment.close` ends a simulation: it drops
the queue and closes every unfinished process (detaching a condition it
waited on from that condition's sub-events), so a finished simulation
is freed by reference counting.

Time is a ``float`` in seconds. Scheduling is deterministic: events firing
at the same timestamp are processed in the order they were scheduled.
The queue orders entries by ``(time, sequence)`` alone, so a run of
same-instant events with consecutive sequence numbers can share one
queue entry without changing what runs when:
:meth:`Environment.succeed_all` triggers a list of events through a
single entry that runs their callbacks in list order (the fabric
completes a fan-out's finished flows this way), and a subsystem may
let one timer do the work of several when nothing else was queued
between them (the fabric's batched flow admission).

An :class:`Environment` optionally carries a telemetry sink (any object
implementing the hook protocol of
:class:`repro.telemetry.Telemetry`): its ``on_process_spawn`` /
``on_process_finish`` / ``on_process_interrupt`` hooks are called on
process lifecycle transitions when the sink's ``capture_processes``
flag is set; otherwise the kernel updates the sink's plain integer
tallies (``processes_spawned`` / ``processes_finished`` /
``processes_failed``, and per event ``queue_depth_high_water``) in
place — a method call per event or process would dominate the tracing
overhead. The sink reads its scheduled-event count from
:attr:`Environment.events_scheduled`. With no sink attached every hook
site is a single ``is None`` check.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries whatever object the interrupter passed.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinels for the state of an event's value.
_PENDING = object()


class Event:
    """A one-shot event that processes can wait on.

    Events move through three states: *pending* (just created),
    *triggered* (scheduled to fire, value decided), and *processed*
    (callbacks ran). Waiting processes register callbacks; when the event
    fires, each callback receives the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: True once a failure value has been retrieved or handled; used to
        #: surface unhandled failures at the end of a run.
        self.defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._queue_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._queue_event(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._queue_event(self, delay=delay)


class _Batch(Event):
    """One queue entry standing for several already-triggered events.

    Firing it runs each member's callbacks in list order, exactly as
    consecutive queue entries at this instant would have.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: list[Event]):
        super().__init__(env)
        self._ok = True
        self._value = None
        self._events = events
        env._queue_event(self)

    def _run_callbacks(self) -> None:
        # Each member's ``Event._run_callbacks``, inlined: a fan-out's
        # batch runs one iteration per flow.
        self.callbacks = None
        for event in self._events:
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)


class _Call:
    """A bare queue entry: calls ``fn()`` when it fires.

    It takes one ``(time, sequence)`` slot like any event but is nothing
    to wait on: no value, no callbacks list. Its class-level ``_ok`` lets
    the run loops treat it as a succeeded event.
    """

    __slots__ = ("_fn",)
    _ok = True

    def __init__(self, fn: Callable[[], None]):
        self._fn = fn

    def _run_callbacks(self) -> None:
        self._fn()


class _Initialize(Event):
    """Kick-starts a process at the current simulation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._queue_event(self)


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator yields :class:`Event` instances. When a yielded
    event succeeds, the generator is resumed with the event's value; when
    it fails, the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError("process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        env._processes[self] = None
        tel = env._telemetry
        if tel is not None:
            # Full hook only when the sink records process spans; the
            # plain tally is inlined otherwise (hundreds of processes
            # per run make the method call measurable).
            if tel.capture_processes:
                tel.on_process_spawn(self)
            else:
                tel.processes_spawned += 1
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    @property
    def name(self) -> str:
        return getattr(self._generator, "__name__", repr(self._generator))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        if self.env._telemetry is not None:
            self.env._telemetry.on_process_interrupt(self, cause)
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env._queue_event(interrupt_event)

    def _resume(self, event: Event) -> None:
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event.value)
            else:
                event.defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.env._queue_event(self)
            self.env._processes.pop(self, None)
            tel = self.env._telemetry
            if tel is not None:
                if tel.capture_processes:
                    tel.on_process_finish(self, ok=True)
                else:
                    tel.processes_finished += 1
            return
        except BaseException as error:
            self._ok = False
            self._value = error
            self.env._queue_event(self)
            self.env._processes.pop(self, None)
            tel = self.env._telemetry
            if tel is not None:
                if tel.capture_processes:
                    tel.on_process_finish(self, ok=False)
                else:
                    tel.processes_finished += 1
                    tel.processes_failed += 1
            return

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name} yielded a non-event: {next_event!r}"
            )
        if next_event.processed:
            # Already fired and processed: resume immediately via a proxy.
            proxy = Event(self.env)
            proxy._ok = next_event._ok
            proxy._value = next_event.value
            if not next_event._ok:
                next_event.defused = True
                proxy.defused = True
            proxy.callbacks.append(self._resume)
            self.env._queue_event(proxy)
            self._target = proxy
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event


class _Condition(Event):
    """Base for events combining several sub-events.

    Every sub-event is checked to belong to this environment before the
    condition observes any. ``_count`` starts at the number of
    sub-events still to succeed; :class:`AllOf` counts it down as each
    one is observed, so its observer does one count and one compare.
    A condition that triggers while some sub-events are still pending
    takes its observer off them: an abort signal that never fires, or a
    timer still queued when the simulation ends, then holds no
    reference to the condition, and the two do not keep each other
    alive in a reference cycle.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = events = list(events)
        # Only *processed* events count: a Timeout has its value decided
        # at construction but has not yet occurred in simulated time.
        done = 0
        failed = None
        for event in events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
            if event.callbacks is None:
                if event._ok:
                    done += 1
                elif failed is None:
                    failed = event
        if self._satisfied(done):
            self.succeed(self._collect())
        elif failed is not None:
            self._fail_with(failed)
        else:
            self._count = len(events) - done
            # One bound method serves every sub-event: a fan-out of n
            # transfers allocates one observer, not n.
            observe = self._observe
            for event in events:
                if event.callbacks is not None:
                    event.callbacks.append(observe)

    def _satisfied(self, done: int) -> bool:
        """Whether the condition holds once ``done`` sub-events have
        been processed successfully."""
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _fail_with(self, event: Event) -> None:
        """Fail with a failed sub-event's error, which is handled here."""
        event.defused = True
        self.fail(event._value)
        self._detach()

    def _detach(self) -> None:
        """Take this condition's observer off every pending sub-event."""
        observe = self._observe
        for event in self._events:
            callbacks = event.callbacks
            if callbacks and observe in callbacks:
                callbacks.remove(observe)

    def _collect(self) -> dict:
        return {
            index: event.value
            for index, event in enumerate(self._events)
            if event.callbacks is None and event._ok
        }


class AllOf(_Condition):
    """Fires when every sub-event has fired; value maps index → value."""

    __slots__ = ()

    def _satisfied(self, done: int) -> bool:
        return done >= len(self._events)

    def _observe(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self._fail_with(event)
            return
        count = self._count - 1
        self._count = count
        if not count:
            self.succeed(self._collect())

    def _collect(self) -> dict:
        # Only called once every sub-event has been processed and
        # succeeded, so none needs testing.
        return {index: event.value for index, event in enumerate(self._events)}


class AnyOf(_Condition):
    """Fires when at least one sub-event has fired."""

    __slots__ = ()

    def _satisfied(self, done: int) -> bool:
        return done >= 1 or not self._events

    def _observe(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self._fail_with(event)
            return
        self.succeed(self._collect())
        self._detach()


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0, telemetry=None):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event | _Call]] = []
        self._sequence = 0
        #: Processes that have not finished, in creation order.
        self._processes: dict[Process, None] = {}
        #: Optional telemetry sink (duck-typed; see module docstring).
        self._telemetry = telemetry
        if telemetry is not None:
            telemetry.bind(self)

    @property
    def now(self) -> float:
        return self._now

    @property
    def telemetry(self):
        return self._telemetry

    @property
    def events_scheduled(self) -> int:
        """Queue entries pushed so far: every event and bare timer
        scheduled, counting a :meth:`succeed_all` batch once."""
        return self._sequence

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def defer(self, fn: Callable[[], None]) -> None:
        """Call ``fn`` at the *current* timestamp, after every event
        already queued for this instant.

        This is the timer-coalescing primitive: a subsystem that would
        otherwise reschedule work on every state change within one
        instant (e.g. the fabric recomputing fair shares as each flow
        of a fan-out arrives) can instead mark itself dirty and defer a
        single recomputation to the end of the instant. The entry is a
        bare queue entry, not an event: nothing can wait on it.
        """
        self._queue_event(_Call(fn))

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Call ``fn`` after ``delay`` simulated seconds.

        Takes the queue slot a ``timeout(delay)`` with ``fn`` as its one
        callback would take, but allocates no event and no callbacks
        list, and nothing can wait on it. Raises
        :class:`SimulationError` when ``delay`` is negative or NaN.
        """
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._queue_event(_Call(fn), delay)

    def succeed_all(
        self, events: list[Event], values: Optional[list[Any]] = None
    ) -> None:
        """Trigger each of ``events`` successfully with the matching
        entry of ``values`` (``None`` for each when omitted), through
        one queue entry.

        Equivalent to ``event.succeed(value)`` for each pair in order:
        the per-event entries would have had consecutive sequence
        numbers at this instant, and anything their callbacks queue
        sorts after all of them either way. Each event is triggered
        (its value readable) on return; its callbacks run in list order
        when the entry fires. ``run(until=member)`` therefore returns
        only after the remaining members' callbacks have run too.

        Raises :class:`SimulationError`, triggering nothing, when any
        event is already triggered. The events must be distinct; an
        empty list queues nothing.
        """
        for event in events:
            if event._value is not _PENDING:
                raise SimulationError("event already triggered")
        if values is None:
            for event in events:
                event._ok = True
                event._value = None
        else:
            for event, value in zip(events, values, strict=True):
                event._ok = True
                event._value = value
        if events:
            _Batch(self, events)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------

    def _queue_event(self, event: Event | _Call, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))
        self._sequence += 1
        # Hottest path in the kernel: only the queue-depth high-water
        # mark is tracked here (as a plain-int attribute update, not a
        # method call); the scheduled-event count is ``_sequence``
        # (:attr:`events_scheduled`), so it costs nothing extra.
        tel = self._telemetry
        if tel is not None:
            depth = len(self._queue)
            if depth > tel.queue_depth_high_water:
                tel.queue_depth_high_water = depth

    def close(self) -> None:
        """End the simulation and release what it still holds.

        Drops every queued entry, unlinks each unfinished process from
        the event it waits on (dropping that event's callbacks, and a
        condition's observer on its pending sub-events) and closes its
        generator, which raises ``GeneratorExit`` at its
        ``yield``, so its ``with`` blocks exit: a traced span closes at
        the final clock, as :meth:`repro.telemetry.Tracer.seal` would
        close it. A waiting process and its event, or a queued event and
        the environment, would otherwise hold each other (and the
        environment) until the cyclic collector ran. Nothing may run
        afterwards.
        """
        self._queue.clear()
        processes, self._processes = self._processes, {}
        for process in processes:
            target, process._target = process._target, None
            if target is not None and target.callbacks:
                target.callbacks.clear()
            if isinstance(target, _Condition):
                target._detach()
            process._generator.close()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event; raises when the queue is empty."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, __, event = heapq.heappop(self._queue)
        self._now = when
        event._run_callbacks()
        if event._ok is False and not event.defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until a time, an event fires, or the queue drains.

        * ``until`` is ``None`` — run until no events remain.
        * ``until`` is a number — run until the clock reaches it.
        * ``until`` is an :class:`Event` — run until it fires and return
          its value (raising the exception if it failed). An event
          triggered through :meth:`succeed_all` returns once its whole
          batch has run.
        """
        # The three loops below are `self.step()` inlined: the pop /
        # dispatch pair runs once per scheduled event, so the method
        # call and property lookups it saves are measurable on large
        # fan-out simulations.
        queue = self._queue
        pop = heapq.heappop
        if isinstance(until, Event):
            stop_on = until
            while queue and stop_on.callbacks is not None:
                when, __, event = pop(queue)
                self._now = when
                event._run_callbacks()
                if event._ok is False and not event.defused:
                    raise event._value
            if not stop_on.triggered:
                raise SimulationError(
                    "simulation ran out of events before 'until' fired"
                )
            if not stop_on._ok:
                stop_on.defused = True
                raise stop_on._value
            return stop_on.value
        if until is None:
            while queue:
                when, __, event = pop(queue)
                self._now = when
                event._run_callbacks()
                if event._ok is False and not event.defused:
                    raise event._value
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError("cannot run into the past")
        while queue and queue[0][0] <= horizon:
            when, __, event = pop(queue)
            self._now = when
            event._run_callbacks()
            if event._ok is False and not event.defused:
                raise event._value
        self._now = max(self._now, horizon)
        return None
