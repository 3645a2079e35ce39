"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import Environment, SimulationError, all_of


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(5.0)
        fired.append(env.now)

    env.process(proc())
    env.run(until=100)
    assert fired == [5.0]


def test_timeouts_fire_in_order():
    env = Environment()
    order = []

    def proc(delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(proc(30, "c"))
    env.process(proc(10, "a"))
    env.process(proc(20, "b"))
    env.run(until=100)
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(label):
        yield env.timeout(5.0)
        order.append(label)

    for label in ("first", "second", "third"):
        env.process(proc(label))
    env.run(until=10)
    assert order == ["first", "second", "third"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value * 2

    parent_proc = env.process(parent())
    env.run(until=10)
    assert parent_proc.value == 84


def test_yield_from_composition():
    env = Environment()

    def inner():
        yield env.timeout(2.0)
        return "inner-result"

    def outer():
        result = yield from inner()
        return result.upper()

    proc = env.process(outer())
    env.run(until=10)
    assert proc.value == "INNER-RESULT"


def test_event_succeed_and_value():
    env = Environment()
    event = env.event()
    results = []

    def waiter():
        value = yield event
        results.append(value)

    env.process(waiter())
    event.succeed("payload", delay=3.0)
    env.run(until=10)
    assert results == ["payload"]
    assert event.value == "payload"


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_event_fail_propagates_exception_to_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter():
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    event.fail(ValueError("boom"))
    env.run(until=10)
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_process_exception_fails_the_process_event():
    env = Environment()

    def broken():
        yield env.timeout(1.0)
        raise RuntimeError("broken process")

    proc = env.process(broken())
    env.run(until=10)
    assert not proc.ok
    assert isinstance(proc._value, RuntimeError)


def test_waiting_on_failed_process_reraises():
    env = Environment()

    def broken():
        yield env.timeout(1.0)
        raise RuntimeError("inner failure")

    outcome = []

    def parent():
        try:
            yield env.process(broken())
        except RuntimeError as exc:
            outcome.append(str(exc))

    env.process(parent())
    env.run(until=10)
    assert outcome == ["inner failure"]


def test_run_until_stops_the_clock_exactly():
    env = Environment()
    fired = []

    def proc():
        while True:
            yield env.timeout(7.0)
            fired.append(env.now)

    env.process(proc())
    env.run(until=100.0)
    assert env.now == 100.0
    assert fired[-1] == 98.0  # the wakeup at 105 is still pending
    env.run(until=110.0)
    assert fired[-1] == 105.0


def test_run_into_the_past_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def child(delay, value):
        yield env.timeout(delay)
        return value

    def parent():
        procs = [env.process(child(d, d)) for d in (5, 1, 3)]
        values = yield all_of(env, procs)
        results.append((env.now, values))

    env.process(parent())
    env.run(until=100)
    assert results == [(5.0, [5, 1, 3])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = all_of(env, [])
    env.run(until=1)
    assert done.triggered and done.value == []


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    env.run(until=10)
    assert not proc.ok


def test_process_requires_a_generator():
    env = Environment()
    with pytest.raises(SimulationError, match="generator"):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_run_without_until_drains_and_returns_the_last_event_time():
    env = Environment()

    def proc():
        yield env.timeout(3.0)
        yield env.timeout(4.5)

    env.process(proc())
    assert env.run() == 7.5
    assert env.now == 7.5
    # An empty queue with a horizon still moves the clock to it.
    assert env.run(until=20.0) == 20.0
    assert env.now == 20.0


def test_processes_start_at_creation_time_in_creation_order():
    env = Environment()
    env.run(until=12.0)
    started = []

    def proc(label):
        started.append((label, env.now))
        yield env.timeout(0.0)

    for label in ("a", "b", "c"):
        env.process(proc(label))
    assert started == []  # a process only starts once the loop runs
    env.run()
    assert started == [("a", 12.0), ("b", 12.0), ("c", 12.0)]


def test_callback_added_after_dispatch_runs_at_once():
    env = Environment()
    event = env.event()
    event.succeed("v")
    env.run()
    assert event.processed
    seen = []
    event.add_callback(lambda e: seen.append((e.value, env.now)))
    assert seen == [("v", 0.0)]


def test_waiting_on_a_finished_process_resumes_at_the_current_time():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "done"

    child_proc = env.process(child())
    env.run(until=5.0)
    resumed = []

    def late_waiter():
        value = yield child_proc
        resumed.append((value, env.now))

    env.process(late_waiter())
    env.run(until=9.0)
    assert resumed == [("done", 5.0)]


def test_fail_with_delay_reaches_the_waiter_at_that_time():
    env = Environment()
    event = env.event()
    caught = []

    def waiter():
        try:
            yield event
        except KeyError as exc:
            caught.append((exc.args[0], env.now))

    env.process(waiter())
    event.fail(KeyError("late"), delay=6.0)
    env.run()
    assert caught == [("late", 6.0)]


def test_all_of_puts_a_failed_events_exception_in_its_slot():
    env = Environment()
    good = env.timeout(2.0, value="ok")
    bad = env.event()
    bad.fail(ValueError("lost"), delay=1.0)
    done = all_of(env, [good, bad])
    env.run()
    first, second = done.value
    assert first == "ok"
    assert isinstance(second, ValueError) and str(second) == "lost"


def test_a_finished_process_is_freed_without_the_cycle_collector():
    """Finishing drops the bound resume method that points back at the
    process, so reference counting alone reclaims it."""
    import gc

    def drive():
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        for _ in range(10):
            env.process(proc())
        env.run()

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        drive()
        assert gc.collect() == 0  # nothing was left for the collector
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Ordering invariants the zero-delay fast-dispatch lane must preserve.
# ---------------------------------------------------------------------------


def test_zero_delay_events_fire_fifo_with_heap_events_at_the_same_time():
    """Events succeeded with delay=0 must not overtake same-time heap events.

    A timeout scheduled earlier that lands at time T fires before an event
    succeeded with zero delay at time T, and vice versa, strictly in
    scheduling order.
    """
    env = Environment()
    order = []

    def waiter(event, label):
        yield event
        order.append(label)

    # heap event landing at t=5 (scheduled first).
    early_timeout = env.timeout(5.0)
    env.process(waiter(early_timeout, "heap-early"))

    trigger = env.event()

    def at_five():
        yield env.timeout(5.0)  # scheduled after early_timeout
        # Now at t=5: succeed a zero-delay event; a later heap timeout at the
        # exact same simulated time must still fire after it.
        trigger.succeed("now")
        late = env.timeout(0.0)
        env.process(waiter(late, "fast-late"))

    env.process(waiter(trigger, "fast-trigger"))
    env.process(at_five())
    env.run(until=10)
    assert order == ["heap-early", "fast-trigger", "fast-late"]


def test_zero_delay_chain_preserves_scheduling_order():
    """A chain of immediate succeed() calls runs FIFO, not LIFO."""
    env = Environment()
    order = []
    events = [env.event() for _ in range(5)]

    def waiter(index):
        yield events[index]
        order.append(index)

    for i in range(5):
        env.process(waiter(i))
    for i in (2, 0, 4, 1, 3):
        events[i].succeed(i)
    env.run(until=1)
    assert order == [2, 0, 4, 1, 3]


def test_all_of_with_pre_triggered_events():
    env = Environment()
    done = []
    a = env.event()
    a.succeed("a")
    b = env.event()

    def parent():
        values = yield all_of(env, [a, b])
        done.append((env.now, values))

    def complete_b():
        yield env.timeout(3.0)
        b.succeed("b")

    env.process(parent())
    env.process(complete_b())
    env.run(until=10)
    assert done == [(3.0, ["a", "b"])]


def test_all_of_with_all_events_already_processed():
    env = Environment()
    a = env.event()
    a.succeed(1)
    b = env.event()
    b.succeed(2)
    env.run(until=1)  # both events fire and are processed
    assert a.processed and b.processed
    done = all_of(env, [a, b])
    # Every callback ran synchronously on already-processed events.
    assert done.triggered and done.value == [1, 2]


def test_multiple_waiters_on_one_event_run_in_subscription_order():
    env = Environment()
    order = []
    shared = env.event()

    def waiter(label):
        yield shared
        order.append(label)

    for label in ("a", "b", "c", "d"):
        env.process(waiter(label))
    shared.succeed(None)
    env.run(until=1)
    assert order == ["a", "b", "c", "d"]


def test_run_interleaves_fast_and_heap_lanes_in_global_order():
    """A timeout due now that was scheduled *earlier* beats a zero-delay
    event scheduled *later*: same-timestamp events run in scheduling order.
    (The id names the two queues the engine once merged.)"""
    env = Environment()
    order = []
    first = env.timeout(5.0)
    second = env.timeout(5.0)
    zero_delay = env.event()

    def a():
        yield first
        order.append("heap-1")
        # Fired at t=5; `second` (scheduled before this event) is still
        # pending at t=5 and must run before the zero-delay event.
        zero_delay.succeed(None)

    def b():
        yield second
        order.append("heap-2")

    def c():
        yield zero_delay
        order.append("fast")

    env.process(a())
    env.process(b())
    env.process(c())
    env.run()
    assert order == ["heap-1", "heap-2", "fast"]


def test_succeed_with_delay_goes_through_the_heap():
    env = Environment()
    seen = []
    ev = env.event()
    ev.succeed("later", delay=4.0)
    ev.add_callback(lambda e: seen.append(env.now))
    env.run(until=10)
    assert seen == [4.0]


# -- batch releases (a loop of event.succeed) --------------------------------


def _batch_release_scenario(n_waiters, with_heap_interleave):
    """Waiters park on events that a releaser succeeds in one loop
    mid-simulation, the way the durability schemes and the lock manager
    release a batch.

    Returns the observed wakeup order, including interleaved heap timeouts.
    """
    env = Environment()
    order = []
    events = [env.event() for _ in range(n_waiters)]

    def waiter(i):
        value = yield events[i]
        order.append(("woke", i, value, env.now))
        yield env.timeout(0.0)
        order.append(("after", i, env.now))

    def heap_observer(delay, label):
        yield env.timeout(delay)
        order.append(("heap", label, env.now))

    def releaser():
        yield env.timeout(5.0)
        for event in events:
            event.succeed("go")
        order.append(("released", env.now))

    for i in range(n_waiters):
        env.process(waiter(i))
    if with_heap_interleave:
        env.process(heap_observer(5.0, "same-time"))
        env.process(heap_observer(6.0, "later"))
    env.process(releaser())
    env.run()
    return order


@pytest.mark.parametrize("n_waiters", [1, 2, 7])
@pytest.mark.parametrize("with_heap_interleave", [False, True])
def test_batch_release_wakes_waiters_in_batch_order(n_waiters, with_heap_interleave):
    """The releaser finishes its loop first; then every waiter wakes in batch
    order, and each one's zero-delay continuation runs after the whole batch
    has woken. A heap timeout at the release time fires before the release."""
    woke = [("woke", i, "go", 5.0) for i in range(n_waiters)]
    after = [("after", i, 5.0) for i in range(n_waiters)]
    expected = [("released", 5.0)] + woke + after
    if with_heap_interleave:
        expected = [("heap", "same-time", 5.0)] + expected + [("heap", "later", 6.0)]
    assert _batch_release_scenario(n_waiters, with_heap_interleave) == expected


def test_succeed_marks_the_event_triggered_before_its_callbacks_run():
    env = Environment()
    events = [env.event() for _ in range(3)]
    for event in events:
        event.succeed("v")
    assert all(event.triggered for event in events)
    assert all(event.value == "v" for event in events)
    # Callbacks have not run yet: each dispatch is still queued.
    assert not any(event.processed for event in events)
    env.run()
    assert all(event.processed for event in events)


def test_waiters_may_subscribe_between_succeed_and_dispatch():
    """A callback added after succeed but before dispatch still fires."""
    env = Environment()
    event = env.event()
    other = env.event()
    seen = []
    for each in (event, other):
        each.succeed(42)
    event.add_callback(lambda e: seen.append(e.value))
    env.run()
    assert seen == [42]
