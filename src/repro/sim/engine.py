"""Discrete-event simulation engine: the scheduler every simulated run sits on.

The whole reproduction runs on simulated time: partitions, worker threads,
network messages, log flushes and replication rounds are all events scheduled
on a single :class:`Environment`.  Processes are plain Python generators that
yield :class:`Event` objects (typically produced by :meth:`Environment.timeout`
or by the networking / locking substrates) and are resumed when the event
fires.

The design intentionally mirrors a small subset of SimPy so that the protocol
code reads like straight-line pseudo code from the paper:

    def worker(env):
        yield env.timeout(10.0)
        value = yield from network.rpc(src, dst, handler, payload)

Only the features the reproduction needs are implemented: timeouts, generic
events, processes (which are themselves events and can therefore be awaited),
and process failure propagation.

Scheduling internals
--------------------

Regenerating a figure pushes tens of millions of events through this module,
so the dispatcher is the single hottest code in the repo.  There is one
queue: a binary heap of ``(time, seqno, event)``.  Every event that is
triggered — a timeout, a ``succeed()`` or ``fail()``, a process kick-off —
is one push of ``(now + delay, next seqno, event)``, where the sequence
number comes from one monotone counter, and :meth:`Environment.run` pops the
smallest pair.  Event order is therefore FIFO among same-timestamp events
and globally sorted by time.

There is one way to wake a waiter: ``event.succeed(value)``.  Code that
releases a batch (a group commit acknowledging an epoch, an unlock granting
a run of shared readers) loops it in batch order; the released events draw
consecutive sequence numbers, so anything their callbacks schedule lands
after the whole batch.

This docstring is the one place event ordering is specified;
``tests/sim/test_dispatch_order.py`` pins the wake traces of randomized
schedules to recorded digests.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]


# Both names below survive only for the benchmark under perf/, which no PR to
# this repo may edit: perf/harness.py prints ENGINE_BACKEND in its report
# header, and perf.run's engine flag (with its tier-1 test) expects importing
# repro under REPRO_ENGINE=c to raise ImportError.  There is one scheduler and
# nothing to select, so a stale REPRO_ENGINE=c in someone's shell fails loudly
# rather than being silently ignored.  Both go when perf/ drops that flag
# (ROADMAP item 3).
ENGINE_BACKEND = "py"

if os.environ.get("REPRO_ENGINE") not in (None, "", "py", "auto"):
    raise ImportError(
        f"REPRO_ENGINE={os.environ['REPRO_ENGINE']} is set, but the compiled "
        "scheduler kernel was removed and repro.sim.engine is the only "
        "scheduler; unset REPRO_ENGINE (py and auto are still accepted)"
    )


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. yielding a non-event)."""


# Event state markers.
_PENDING = object()
# Marker stored in Event.callbacks once the event has been dispatched.  A
# fresh event's callbacks field is ``None``; a single waiter is stored bare
# (most events have exactly one), and a list is only allocated for the rare
# event with several waiters.
_PROCESSED: tuple = ()


class Event:
    """A single occurrence a process can wait for.

    An event starts *untriggered*; once :meth:`succeed` (or :meth:`fail`) is
    called it is scheduled on the environment and every waiting callback runs
    at the current simulated time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        # None = no waiters; a bare callable = one waiter; list = several
        # waiters; _PROCESSED = already fired.
        self.callbacks: Any = None
        self._value: Any = _PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value accessed before it was triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        env = self.env
        heappush(env._queue, (env._now + delay, env._next_seq(), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now + delay, env._next_seq(), self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif callbacks is _PROCESSED:
            # Already processed: run immediately at the current time.
            callback(self)
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.3f}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + Event.succeed: a timeout is born triggered
        # and scheduled, and this constructor runs once per simulated wait.
        self.env = env
        self.callbacks = None
        self._value = value
        self._ok = True
        self.delay = delay
        heappush(env._queue, (env._now + delay, env._next_seq(), self))


class Process(Event):
    """Wraps a generator and drives it through the events it yields.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, so processes can wait for each other
    (``result = yield env.process(child())``).
    """

    __slots__ = ("name", "_generator", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # The bound resume method is allocated once and reused for every wait.
        resume = self._resume
        self._resume_cb = resume
        # Kick off the process at the current simulated time.
        env._immediate(resume)

    def _finish(self) -> None:
        """Drop completion-time references so a finished process is acyclic.

        A live process is inherently cyclic (``self._resume_cb`` is a bound
        method back to ``self``, and the generator frame's locals reference
        events whose callbacks reference the process).  Dropping the
        generator and the bound method here lets reference counting reclaim
        the frame and its locals immediately — finished processes otherwise
        pile up as cyclic garbage and force expensive full GC passes (a
        measurable fraction of end-to-end run time).
        """
        self._generator = None
        self._resume_cb = None

    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish()
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._finish()
            self.fail(exc)
            return
        try:
            callbacks = target.callbacks
        except AttributeError:
            error = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            self._generator.close()
            self._finish()
            self.fail(error)
            return
        if callbacks is None:
            target.callbacks = self._resume_cb
        elif callbacks is _PROCESSED:
            # Target already processed: resume immediately at the current time.
            self._resume(target)
        elif type(callbacks) is list:
            callbacks.append(self._resume_cb)
        else:
            target.callbacks = [callbacks, self._resume_cb]


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_queue", "_next_seq")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        # Bound once: every scheduled event draws its sequence number here.
        self._next_seq = count().__next__

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by convention in this repo)."""
        return self._now

    # -- event creation -------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    # -- scheduling -----------------------------------------------------
    def _immediate(self, callback: Callable[[Event], None]) -> None:
        """Run ``callback`` at the current time (a pre-succeeded
        single-callback event; how a process kicks off)."""
        event = Event(self)
        event._value = None
        event.callbacks = callback
        heappush(self._queue, (self._now, self._next_seq(), event))

    def run(self, until: Optional[float] = None) -> float:
        """Run until simulated time ``until`` (or until the queue drains)."""
        if until is not None and until < self._now:
            raise SimulationError("cannot run into the past")
        # The dispatch loop is deliberately inlined (no method call per
        # event): it is the hottest loop in the repo.
        queue = self._queue
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self._now = until
                return until
            self._now = when
            event = heappop(queue)[2]
            callbacks = event.callbacks
            event.callbacks = _PROCESSED
            if callbacks is not None:
                if type(callbacks) is list:
                    for callback in callbacks:
                        callback(event)
                else:
                    callbacks(event)
        if until is not None:
            self._now = until
        return self._now


def all_of(env: Environment, events: Iterable[Event]) -> Event:
    """Return an event that fires after every event in ``events`` has fired."""
    events = list(events)
    done = env.event()
    remaining = len(events)
    results: list[Any] = [None] * remaining
    if remaining == 0:
        done.succeed([])
        return done

    def make_callback(index: int) -> Callable[[Event], None]:
        def callback(event: Event) -> None:
            nonlocal remaining
            results[index] = event.value if event.ok else event._value
            remaining -= 1
            if remaining == 0 and not done.triggered:
                done.succeed(results)

        return callback

    for i, event in enumerate(events):
        event.add_callback(make_callback(i))
    return done
