"""Discrete-event simulation kernel.

Everything time-related in this package runs on the virtual clock owned by a
:class:`Simulator`.  Concurrent activities are plain Python generators
("processes") that yield one of:

* a number  -- advance the virtual clock by that many milliseconds,
* an :class:`Event` -- suspend until the event is triggered.

A process waits for another through its ``finished`` event.

Scheduling is deterministic: simultaneous wakeups run in FIFO order by
default.  Passing ``interleave_seed`` randomizes the relative order of
same-timestamp wakeups (seeded), which is how schedule-interleaving tests
explore alternative executions without giving up reproducibility.
"""

from __future__ import annotations

import heapq
import itertools
from random import Random
from typing import Any, Callable, Generator, Iterable, Optional

ProcessGen = Generator[Any, Any, Any]

_CALL = object()  # marks a heap entry that calls its action rather than resuming it


class SimError(RuntimeError):
    pass


class ClockStalled(BaseException):
    """A wait that would never move the virtual clock forward.

    Not an ``Exception``: it can arise inside a handler's storage call, and
    handler and invocation code that catches ``Exception`` must not take it
    for a handler error and retry; it ends the run.
    """


class Event:
    """One-shot event; waiters resume (via the scheduler) when triggered."""

    __slots__ = ("_triggered", "_value", "_callbacks")

    def __init__(self):
        self._triggered = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimError("event already triggered")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def on_trigger(self, cb: Callable[[Any], None]) -> None:
        if self._triggered:
            cb(self._value)
        else:
            self._callbacks.append(cb)


class Process:
    """A running generator on the simulator timeline."""

    __slots__ = ("gen", "name", "finished")

    def __init__(self, gen: ProcessGen, name: str = ""):
        self.gen = gen
        self.name = name
        self.finished = Event()

    @property
    def result(self) -> Any:
        if not self.finished.triggered:
            raise SimError(f"process {self.name!r} still running")
        return self.finished.value


class Simulator:
    """Virtual clock, event heap and process pump."""

    def __init__(self, interleave_seed: Optional[int] = None):
        self._now = 0.0
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._tiebreak: Optional[Random] = (
            Random(interleave_seed) if interleave_seed is not None else None
        )

    def now(self) -> float:
        return self._now

    # -- scheduling ------------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> list:
        """Run ``fn`` at the absolute instant ``when``.  Returns a cancellable
        handle.  It takes an instant, not a delay: ``now + (when - now)`` can
        differ from ``when`` in the last bit."""
        if when < self._now:
            raise SimError(f"instant {when} is before now {self._now}")
        return self._push(when, fn, _CALL)

    def _push(self, when: float, action: Any, value: Any) -> list:
        """Queue ``action``: a callable when ``value`` is ``_CALL``, else a
        ``Process`` to resume with ``value``.  An entry names the process
        itself, not a closure over the simulator, so a pending resume of a
        closed process keeps nothing of the run alive."""
        jitter = self._tiebreak.random() if self._tiebreak is not None else 0.0
        entry = [when, jitter, next(self._seq), action, value]
        heapq.heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(handle: list) -> None:
        handle[3] = None

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        proc = Process(gen, name)
        self._schedule_resume(proc, 0.0, None)
        return proc

    def event(self) -> Event:
        return Event()

    def all_of(self, items: Iterable[Event | Process]) -> Event:
        """Event that triggers once every given event/process has finished."""
        events = [it.finished if isinstance(it, Process) else it for it in items]
        done = Event()
        state = {"n": len(events)}
        if state["n"] == 0:
            done.trigger(None)
            return done

        def on_one(_value: Any) -> None:
            state["n"] -= 1
            if state["n"] == 0:
                done.trigger(None)

        for ev in events:
            ev.on_trigger(on_one)
        return done

    # -- process pump ----------------------------------------------------

    def _schedule_resume(self, proc: Process, delay: float, value: Any) -> None:
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        self._push(self._now + delay, proc, value)

    def _wait_on(self, proc: Process, ev: Event) -> None:
        ev.on_trigger(lambda value: self._schedule_resume(proc, 0.0, value))

    def _resume(self, proc: Process, value: Any) -> None:
        try:
            item = proc.gen.send(value)
        except StopIteration as stop:
            proc.finished.trigger(stop.value)
            return
        self._dispatch_yield(proc, item)

    def _dispatch_yield(self, proc: Process, item: Any) -> None:
        if isinstance(item, (int, float)):
            self._schedule_resume(proc, float(item), None)
        elif isinstance(item, Event):
            self._wait_on(proc, item)
        else:
            raise SimError(f"process {proc.name!r} yielded {item!r}")

    def run(self, until: Optional[Event] = None, max_time: Optional[float] = None) -> None:
        """Pump events until ``until`` triggers, the heap drains, or ``max_time``."""
        while self._heap:
            if until is not None and until.triggered:
                return
            entry = heapq.heappop(self._heap)
            time, _, _, action, value = entry
            if action is None:
                continue  # cancelled
            if max_time is not None and time > max_time:
                heapq.heappush(self._heap, entry)
                self._now = max_time
                return
            self._now = time
            if value is _CALL:
                action()
            else:
                self._resume(action, value)
        if until is not None and not until.triggered:
            raise SimError("simulation ran dry before completion event")
