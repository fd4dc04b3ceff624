"""Unit tests for the discrete-event simulation kernel."""

import gc
import weakref

import pytest

from repro.simulation import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    result = env.run(env.process(proc()))
    assert result == 5.0
    assert env.now == 5.0


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        value = yield env.timeout(1.0, value="hello")
        return value

    assert env.run(env.process(proc())) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_events_fire_in_fifo_order_at_same_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value + 1

    assert env.run(env.process(parent())) == 43


def test_nested_processes_compose_time():
    env = Environment()

    def leaf(duration):
        yield env.timeout(duration)

    def root():
        yield env.process(leaf(1.0))
        yield env.process(leaf(2.0))
        return env.now

    assert env.run(env.process(root())) == 3.0


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(3.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(3.0, "open")]


def test_event_failure_propagates_into_process():
    env = Environment()
    gate = env.event()

    def waiter():
        try:
            yield gate
        except ValueError as error:
            return f"caught {error}"

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("boom"))

    proc = env.process(waiter())
    env.process(failer())
    assert env.run(proc) == "caught boom"


def test_unhandled_process_failure_raises_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("exploded")

    env.process(bad())
    with pytest.raises(RuntimeError, match="exploded"):
        env.run()


def test_waiting_on_failed_process_reraises():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("inner")

    def parent():
        try:
            yield env.process(bad())
        except RuntimeError:
            return "handled"

    assert env.run(env.process(parent())) == "handled"


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            causes.append((env.now, interrupt.cause))

    def interrupter(target):
        yield env.timeout(4.0)
        target.interrupt("preempted")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert causes == [(4.0, "preempted")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(10.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        return env.now

    def interrupter(target):
        yield env.timeout(2.0)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    assert env.run(target) == 3.0


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        values = yield env.all_of([t1, t2])
        return env.now, sorted(values.values())

    now, values = env.run(env.process(proc()))
    assert now == 5.0
    assert values == ["a", "b"]


def test_any_of_fires_on_first_event():
    env = Environment()

    def proc():
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(9.0, value="slow")
        values = yield env.any_of([fast, slow])
        return env.now, values

    now, values = env.run(env.process(proc()))
    assert now == 1.0
    assert values == {0: "fast"}


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_past_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=-1.0)


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(iter([]))  # type: ignore[arg-type]


def test_run_until_untriggered_event_exhausts_queue():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(never)


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42  # type: ignore[misc]

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == 0.0 or env.peek() == 7.0  # timeout queued at +7
    env.run()
    assert env.peek() == float("inf")


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        __ = event.value


def test_succeed_twice_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yielding_already_processed_event_resumes():
    env = Environment()
    done = env.event()
    done.succeed("ready")

    def proc():
        # The event fires before this process gets to wait on it.
        yield env.timeout(2.0)
        value = yield done
        return value

    assert env.run(env.process(proc())) == "ready"


def _batch_scenario(trigger):
    """Log every callback of a same-instant trigger of five events.

    Member callbacks queue same-instant events of their own; a process
    and an ``AllOf`` wait on members. ``trigger(env, events, values)``
    triggers the members at t=1.
    """
    env = Environment()
    log = []
    events = [env.event() for _ in range(5)]
    for index, event in enumerate(events):
        event.callbacks.append(
            lambda ev, index=index: log.append(("member", index, ev.value)))
    # A member callback that queues a same-instant event.
    events[1].callbacks.append(
        lambda _ev: env.event().succeed().callbacks.append(
            lambda _e: log.append(("queued", 1))))

    def waiter():
        value = yield events[2]
        log.append(("resumed", value))
        return value

    process = env.process(waiter())
    process.callbacks.append(lambda _p: log.append(("process", "done")))
    both = env.all_of([events[0], events[3]])
    both.callbacks.append(lambda ev: log.append(("all_of", sorted(ev.value))))

    def kick():
        yield env.timeout(1.0)
        trigger(env, events, [f"v{i}" for i in range(5)])
        log.append(("triggered", [event.triggered for event in events]))

    env.process(kick())
    env.run()
    return log


def test_succeed_all_matches_sequential_succeed():
    def sequential(env, events, values):
        for event, value in zip(events, values):
            event.succeed(value)

    def batched(env, events, values):
        env.succeed_all(events, values)

    log = _batch_scenario(batched)
    assert log == _batch_scenario(sequential)
    members = [i for i, entry in enumerate(log) if entry[0] == "member"]
    assert [log[i][1] for i in members] == [0, 1, 2, 3, 4]
    # Events queued by the members' callbacks (the same-instant event,
    # the process's completion, the AllOf) run after the whole batch.
    for kind in ("queued", "process", "all_of"):
        (position,) = [i for i, entry in enumerate(log) if entry[0] == kind]
        assert position > members[-1], kind
    # The waiting process itself resumes inside its member's callbacks.
    assert members[2] < log.index(("resumed", "v2")) < members[3]
    assert ("triggered", [True] * 5) in log


def test_succeed_all_uses_one_queue_entry():
    env = Environment()
    events = [env.event() for _ in range(4)]
    env.succeed_all(events, [1, 2, 3, 4])
    assert env._sequence == 1
    assert [event.value for event in events] == [1, 2, 3, 4]
    assert not any(event.processed for event in events)
    env.succeed_all([], [])
    assert env._sequence == 1
    env.run()
    assert all(event.processed for event in events)


def test_succeed_all_rejects_triggered_events():
    env = Environment()
    first, second = env.event(), env.event()
    second.succeed("early")
    with pytest.raises(SimulationError):
        env.succeed_all([first, second], [1, 2])
    assert not first.triggered
    assert second.value == "early"


def test_run_until_member_finishes_the_batch():
    env = Environment()
    events = [env.event() for _ in range(3)]
    env.succeed_all(events, ["a", "b", "c"])
    later = env.timeout(0.0)
    assert env.run(until=events[0]) == "a"
    assert all(event.processed for event in events)
    assert not later.processed


@pytest.mark.parametrize("combine", ["all_of", "any_of"])
def test_condition_shares_one_observer_across_sub_events(combine):
    env = Environment()
    events = [env.event() for _ in range(6)]
    condition = getattr(env, combine)(events)
    observers = [event.callbacks[-1] for event in events]
    assert all(observer is observers[0] for observer in observers)
    assert observers[0] == condition._observe


def test_condition_observes_a_duplicated_sub_event_twice():
    env = Environment()
    event, other = env.event(), env.event()
    both = env.all_of([event, event, other])
    assert event.callbacks.count(both._observe) == 2
    event.succeed("x")
    env.run()
    assert not both.triggered
    other.succeed("y")
    env.run()
    assert both.value == {0: "x", 1: "x", 2: "y"}


def test_condition_counts_already_processed_sub_events():
    env = Environment()
    done, pending = env.event(), env.event()
    done.succeed("early")
    env.run()
    both = env.all_of([done, pending])
    assert done.callbacks is None and len(pending.callbacks) == 1
    pending.succeed("late")
    env.run()
    assert both.value == {0: "early", 1: "late"}
    # Already satisfied at construction: fires without observing.
    either = env.any_of([done, env.event()])
    env.run()
    assert either.value == {0: "early"}


def test_condition_fails_on_the_first_failed_sub_event():
    env = Environment()
    first, second, third = env.event(), env.event(), env.event()
    both = env.all_of([first, second, third])
    second.fail(ValueError("first failure"))
    with pytest.raises(ValueError, match="first failure"):
        env.run(both)
    assert second.defused
    # A triggered condition leaves a later failure to its own waiters.
    first.fail(KeyError("later failure"))
    with pytest.raises(KeyError, match="later failure"):
        env.run()
    assert isinstance(both.value, ValueError)
    # An already-processed failure fails a new condition at once.
    after = env.any_of([second, env.event()])
    assert after.triggered and not after.ok
    assert isinstance(after.value, ValueError)


def test_condition_rejects_events_of_another_environment():
    env, other = Environment(), Environment()
    mine = env.event()
    with pytest.raises(SimulationError, match="different environments"):
        env.all_of([mine, other.event()])
    assert mine.callbacks == []


class TestAllOfEdgeCases:
    def test_already_processed_sub_events_count(self):
        env = Environment()
        early = [env.event() for _ in range(3)]
        for index, event in enumerate(early):
            event.succeed(index)
        env.run()
        late = env.event()
        both = env.all_of([early[0], late, early[1], early[2]])
        # Only the pending sub-event is observed; one success fires it.
        assert late.callbacks == [both._observe]
        assert both._count == 1
        late.succeed("late")
        env.run()
        assert both.value == {0: 0, 1: "late", 2: 1, 3: 2}

    def test_failing_sub_event_fails_and_is_defused(self):
        env = Environment()
        events = [env.event() for _ in range(4)]
        both = env.all_of(events)
        events[0].succeed("ok")
        events[2].fail(RuntimeError("lost"))
        with pytest.raises(RuntimeError, match="lost"):
            env.run(both)
        assert events[2].defused and not both.ok
        # The failed condition keeps no observer on the pending ones.
        assert events[1].callbacks == [] and events[3].callbacks == []

    def test_foreign_event_raises_before_any_observer(self):
        env, other = Environment(), Environment()
        before, after = env.event(), env.event()
        with pytest.raises(SimulationError, match="different environments"):
            env.all_of([before, other.event(), after])
        assert before.callbacks == [] and after.callbacks == []

    def test_value_maps_each_index_to_its_value(self):
        env = Environment()
        events = [env.timeout(delay, value=f"v{delay}") for delay in (3, 1, 2)]
        both = env.all_of(events)
        assert env.run(both) == {i: e.value for i, e in enumerate(events)}
        assert both.value == {0: "v3", 1: "v1", 2: "v2"}

    def test_empty_list_fires_at_once(self):
        env = Environment()
        nothing = env.all_of([])
        assert nothing.triggered and nothing.ok
        assert env.run(nothing) == {}
        assert env.now == 0.0


def test_triggered_condition_leaves_no_observer_on_pending_sub_events():
    env = Environment()
    fired, abort, timer = env.event(), env.event(), env.timeout(5.0)
    either = env.any_of([fired, abort, timer])
    fired.succeed("done")
    env.run(either)
    assert either.value == {0: "done"}
    # The abort signal that never fires and the queued timer no longer
    # refer to the condition, so neither holds it in a cycle.
    assert abort.callbacks == [] and timer.callbacks == []


def test_close_detaches_the_condition_a_process_waits_on():
    env = Environment()
    message, timer = env.event(), env.timeout(5.0)

    def rpc():
        yield env.any_of([message, timer])

    env.process(rpc())
    env.run(until=1.0)
    assert len(message.callbacks) == 1
    env.close()
    assert message.callbacks == [] and timer.callbacks == []


def test_kernel_events_have_no_instance_dict():
    env = Environment()

    def once():
        yield env.timeout(0.0)

    proc = env.process(once())
    entries = [env._queue[-1][2]]  # the process's _Initialize
    env.succeed_all([env.event()])
    entries.append(env._queue[-1][2])  # the batch
    env.defer(lambda: None)
    entries.append(env._queue[-1][2])  # a bare entry
    events = [env.event(), env.timeout(1.0), proc,
              env.all_of([env.event()]), env.any_of([env.event()])]
    for obj in entries + events:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    with pytest.raises(AttributeError):
        env.event().label = "x"


def test_bare_entries_and_timeouts_run_in_scheduling_order():
    env = Environment()
    log = []

    def timeout(delay, name):
        env.timeout(delay).callbacks.append(lambda _event: log.append(name))

    def bare(delay, name):
        env.call_later(delay, lambda: log.append(name))

    def at_zero(name):
        env.defer(lambda: log.append(name))

    steps = [
        (bare, 1.0, "c0"), (timeout, 1.0, "t0"), (bare, 1.0, "c1"),
        (timeout, 0.5, "t-early"), (timeout, 1.0, "t1"), (bare, 1.0, "c2"),
        (at_zero, None, "d0"), (timeout, 0.0, "t-now"), (at_zero, None, "d1"),
    ]
    for kind, delay, name in steps:
        before = env.events_scheduled
        if kind is at_zero:
            kind(name)
        else:
            kind(delay, name)
        # One queue entry per timer, bare or not; a bare one is no event.
        assert env.events_scheduled == before + 1
        entry = max(env._queue, key=lambda item: item[1])[2]
        assert isinstance(entry, Event) == (kind is timeout)
    env.run()
    assert log == ["d0", "t-now", "d1", "t-early",
                   "c0", "t0", "c1", "t1", "c2"]
    assert env.now == 1.0


def test_call_later_rejects_negative_and_nan_delays():
    env = Environment()
    for delay in (-1e-9, float("nan")):
        with pytest.raises(SimulationError):
            env.call_later(delay, lambda: None)
    assert env.events_scheduled == 0 and env.peek() == float("inf")


def test_events_scheduled_counts_every_queue_entry():
    from repro.telemetry import Telemetry

    tel = Telemetry()
    env = Environment(telemetry=tel)
    env.timeout(1.0)
    env.defer(lambda: None)
    env.call_later(2.0, lambda: None)
    env.succeed_all([env.event(), env.event()])
    assert env.events_scheduled == 4
    assert tel.events_scheduled == 4
    env.run()
    assert env.events_scheduled == 4


def test_succeed_all_without_values_stores_none():
    env = Environment()
    events = [env.event() for _ in range(3)]
    env.succeed_all(events)
    assert [event.value for event in events] == [None] * 3
    assert env.events_scheduled == 1


def test_close_releases_unfinished_processes():
    env = Environment()
    never = env.event()
    unwound = []

    def waiter(event):
        try:
            yield event
        finally:
            unwound.append(event)

    def finished():
        yield env.timeout(0.5)

    done = env.process(finished())
    generators = [waiter(never), waiter(env.timeout(10.0))]
    refs = [weakref.ref(generator) for generator in generators]
    processes = [env.process(generator) for generator in generators]
    del generators
    env.run(until=1.0)
    assert list(env._processes) == processes and env._queue
    gc.collect()
    gc.disable()
    try:
        env.close()
        # Each generator unwound at its yield, in creation order.
        assert unwound[0] is never and len(unwound) == 2
        assert not env._queue and not env._processes
        assert never.callbacks == []
        del processes
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    assert done.processed
