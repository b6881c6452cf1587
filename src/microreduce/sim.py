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


class SimError(RuntimeError):
    pass


class Event:
    """One-shot event; waiters resume (via the scheduler) when triggered."""

    __slots__ = ("_sim", "_triggered", "_value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
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

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        self.gen = gen
        self.name = name
        self.finished = Event(sim)

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

    def call_in(self, delay: float, fn: Callable[[], None]) -> list:
        """Run ``fn`` after ``delay`` ms.  Returns a cancellable handle."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn)

    def call_at(self, when: float, fn: Callable[[], None]) -> list:
        """Run ``fn`` at the absolute instant ``when``.  Returns a cancellable
        handle.  ``now + (when - now)`` can differ from ``when`` in the last
        bit, so callers that must land on an exact instant use this."""
        if when < self._now:
            raise SimError(f"instant {when} is before now {self._now}")
        jitter = self._tiebreak.random() if self._tiebreak is not None else 0.0
        entry = [when, jitter, next(self._seq), fn]
        heapq.heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(handle: list) -> None:
        handle[-1] = None

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        proc = Process(self, gen, name)
        self._schedule_resume(proc, 0.0, None)
        return proc

    def event(self) -> Event:
        return Event(self)

    def all_of(self, items: Iterable[Event | Process]) -> Event:
        """Event that triggers once every given event/process has finished."""
        events = [it.finished if isinstance(it, Process) else it for it in items]
        done = Event(self)
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
        self.call_in(delay, lambda: self._resume(proc, value))

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
            time, _, _, action = entry
            if action is None:
                continue  # cancelled
            if max_time is not None and time > max_time:
                heapq.heappush(self._heap, entry)
                self._now = max_time
                return
            self._now = time
            action()
        if until is not None and not until.triggered:
            raise SimError("simulation ran dry before completion event")
