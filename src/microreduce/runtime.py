"""Simulated Function-as-a-Service executor.

Each invocation runs on the virtual clock: cold-start initialization,
compute charged through the calibration table with memory-derived worker
parallelism, a hard timeout, GB-ms billing, an account-wide concurrency
ceiling with FIFO overflow queuing, and queue-driven consumer pools that
scale by a fixed step per virtual minute.

An invocation runs its handler in its caller's process: the caller drives
it with ``yield from``, and ``FunctionRuntime.drive`` drives the handler
generator in turn.  A handler yields latencies and storage ops, tuples
``(name, *args)`` such as ``("kv_put", item)``; ``StorageClients`` is the one
table that says which store method an op calls, what it costs and when it
lands.  The driver passes one latency per yield on to the scheduler and
enforces the hard timeout itself: the first latency that would reach the
deadline becomes a wait to the deadline, where ``Interrupted`` is thrown into
the handler.  Any other yield, or an unknown op, raises ``SimError`` out of
the run.  The workflow's partition listing and gate go through the same
driver.  The queue consumers take every receive and delete from the same
table, an idle consumer's receive at its wake included, and apply them as
the driver does with no deadline.  An error record keeps its exception
chain without tracebacks.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from random import Random
from typing import Any, Callable, Optional

from .calibration import MAX_MEMORY_MB, MIN_MEMORY_MB, CalibrationTable, vcpus
from .core import new_execution_id
from .sim import ClockStalled, Event, Process, SimError, Simulator
from .storage import KvStore, MessageQueue, ObjectStore

LEDGER_COLUMNS = (
    "function",
    "execution_id",
    "instance_id",
    "cold_start",
    "init_ms",
    "duration_ms",
    "billed_gb_ms",
    "max_mem_used_mb",
    "outcome",
)

MAX_TIMEOUT_MS = 900_000


class Interrupted(Exception):
    """Thrown into a handler at its invocation's deadline."""


@dataclass(frozen=True, slots=True)
class FunctionConfig:
    name: str
    memory_mb: int
    timeout_ms: int = MAX_TIMEOUT_MS
    workers: int = 1
    #: The vCPUs at ``memory_mb``, worked out once: every work charge reads it.
    vcpus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not MIN_MEMORY_MB <= self.memory_mb <= MAX_MEMORY_MB:
            raise ValueError(
                f"memory_mb {self.memory_mb} outside [{MIN_MEMORY_MB}, {MAX_MEMORY_MB}]")
        if not 0 < self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms {self.timeout_ms} outside (0, {MAX_TIMEOUT_MS}]")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        object.__setattr__(self, "vcpus", vcpus(self.memory_mb))
        if self.workers > self.vcpus:
            raise ValueError(
                f"workers {self.workers} exceeds {self.vcpus} vCPUs at {self.memory_mb} MB")


@dataclass(frozen=True, slots=True)
class RuntimeLimits:
    account_concurrency: int = 1000
    queue_scale_per_min: int = 60
    queue_scale_cap: int = 1000


@dataclass(slots=True)
class InvocationRecord:
    function: str
    execution_id: str
    instance_id: str
    cold_start: bool
    init_ms: float
    duration_ms: float
    billed_gb_ms: float
    max_mem_used_mb: int
    outcome: str  # ok | timeout | error
    # not exported: used for concurrency accounting and diagnostics
    start_ms: float = 0.0
    exception: Any = None
    result: Any = None


def render_ledger_csv(records: list[InvocationRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LEDGER_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.function,
                r.execution_id,
                r.instance_id,
                "true" if r.cold_start else "false",
                f"{r.init_ms:.3f}",
                f"{r.duration_ms:.3f}",
                f"{r.billed_gb_ms:.3f}",
                r.max_mem_used_mb,
                r.outcome,
            ]
        )
    return buf.getvalue()


def load_ledger_csv(path: Path | str) -> list[InvocationRecord]:
    rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8"))))
    if not rows or tuple(rows[0]) != LEDGER_COLUMNS:
        raise ValueError(f"unexpected ledger header in {path}")
    out = []
    for row in rows[1:]:
        out.append(
            InvocationRecord(
                function=row[0],
                execution_id=row[1],
                instance_id=row[2],
                cold_start=row[3] == "true",
                init_ms=float(row[4]),
                duration_ms=float(row[5]),
                billed_gb_ms=float(row[6]),
                max_mem_used_mb=int(row[7]),
                outcome=row[8],
            )
        )
    return out


def _without_tracebacks(exc: BaseException) -> BaseException:
    """Clear the tracebacks along ``exc``'s cause and context chain, so an
    error record keeps the exceptions but not the frames they were raised in."""
    pending, seen = [exc], set()
    while pending:
        e = pending.pop()
        if e is None or id(e) in seen:
            continue
        seen.add(id(e))
        e.__traceback__ = None
        pending += (e.__cause__, e.__context__)
    return exc


class StorageClients:
    """One job's storage ops: ``name -> (applied at issue?, store method, price)``.

    A handler issues an op by yielding ``(name, *args)``, and
    ``FunctionRuntime.drive`` looks the name up here.  An op applied at issue
    (a read that lists or fetches) calls its store when it is yielded, is
    priced by the result and returns it after the latency; a missing object
    key raises before any time passes.  Every other op is priced by its args
    and calls its store once the latency has elapsed, so its state change
    lands at the op's completion instant.  An absent store serves no ops.
    """

    def __init__(
        self,
        cal: CalibrationTable,
        objects: Optional[ObjectStore] = None,
        raw_objects: Optional[ObjectStore] = None,
        kv: Optional[KvStore] = None,
        queue: Optional[MessageQueue] = None,
    ):
        self.cal = cal
        ops: dict[str, tuple[bool, Callable, Callable]] = {}
        if raw_objects is not None:
            ops["raw_object_get"] = (True, raw_objects.get,
                                     lambda body: cal.object_get_ms(len(body)))
        if objects is not None:
            ops.update(
                object_get=(True, objects.get, lambda body: cal.object_get_ms(len(body))),
                object_put=(False, objects.put,
                            lambda key, body: cal.object_put_ms(len(body))),
                object_delete=(False, objects.delete, lambda key: cal.object_put_ms(0)),
                object_list=(True, objects.list, lambda keys: cal.object_list_ms(len(keys))),
            )
        if kv is not None:
            ops.update(
                kv_put=(False, kv.put_item, lambda item: cal.kv_put_ms),
                kv_delete=(False, kv.delete_item, lambda hash_key, sort_key: cal.kv_put_ms),
                kv_query_lsi=(True, kv.query_lsi, lambda items: cal.kv_query_ms(len(items))),
                kv_scan=(True, kv.scan, lambda items: cal.kv_query_ms(len(items))),
                counter_add=(False, kv.counter_add,
                             lambda eid, fieldname, delta: cal.counter_add_ms),
                counter_get=(False, kv.counter_get, lambda eid: cal.counter_get_ms),
                results_put=(False, kv.put_result,
                             lambda eid, carrier, delay_sum, count: cal.kv_put_ms),
                results_list=(True, kv.list_results, lambda rows: cal.kv_query_ms(len(rows))),
            )
        if queue is not None:
            ops.update(
                queue_send=(False, queue.send, lambda body: cal.queue_send_ms),
                queue_receive=(False, queue.receive, lambda: cal.queue_receive_ms),
                queue_delete=(False, queue.delete, lambda receipt: cal.queue_delete_ms),
            )
        self.ops = ops


class InvocationContext:
    """What a handler sees: config, seeded RNG, work charging."""

    def __init__(
        self,
        config: FunctionConfig,
        cal: CalibrationTable,
        execution_id: str,
        instance_id: str,
        seed: int,
    ):
        self.config = config
        self.cal = cal
        self.execution_id = execution_id
        self.instance_id = instance_id
        self._seed = seed
        self._mem_watermark_mb = 35

    @cached_property
    def rng(self) -> Random:
        """The invocation's seeded RNG, built on first read: few handlers draw."""
        return Random(("invocation", self._seed, self.instance_id).__repr__())

    def work(self, units: float):
        """Charge ``units`` of compute, scaled by the worker pool."""
        ms = self.cal.work_ms(units, self.config.workers, self.config.vcpus)
        if ms > 0:
            yield ms
        return ms

    def note_memory(self, mb: float) -> None:
        used = min(self.config.memory_mb, int(mb))
        if used > self._mem_watermark_mb:
            self._mem_watermark_mb = used


#: A generator function ``handler(ctx, payload)`` run in the invoking
#: process.  It yields latencies (numbers) and storage ops (``(name, *args)``
#: tuples named in ``StorageClients.ops``); ``FunctionRuntime.drive`` applies
#: the ops, enforces the deadline between yields and raises ``SimError`` on
#: any other yield.  Its return value becomes the record's ``result``.  The pipeline's handlers
#: take a ``PipelineEnv`` first, bound with ``functools.partial``.
Handler = Callable[[InvocationContext, Any], Any]


class FunctionRuntime:
    """Executes handlers on the virtual clock and keeps the invocation ledger."""

    def __init__(
        self,
        sim: Simulator,
        clients: StorageClients,
        limits: RuntimeLimits = RuntimeLimits(),
        seed: int = 0,
    ):
        self.sim = sim
        self.clients = clients
        self.cal = clients.cal
        self.limits = limits
        self.ledger: list[InvocationRecord] = []
        self._pools: dict[str, list[float]] = {}
        self._init_rngs: dict[str, Random] = {}
        self._seed = seed
        self._id_rng = Random(("runtime-ids", seed).__repr__())
        self._active = 0
        self._admission_waiters: deque[Event] = deque()

    # -- cold-start bookkeeping -------------------------------------------

    def _init_rng(self, name: str) -> Random:
        rng = self._init_rngs.get(name)
        if rng is None:
            rng = Random(("init", self._seed, name).__repr__())
            self._init_rngs[name] = rng
        return rng

    def _acquire_instance(self, fn: FunctionConfig) -> tuple[bool, float]:
        pool = self._pools.setdefault(fn.name, [])
        now = self.sim.now()
        while pool:
            expiry = pool.pop()
            if expiry >= now:
                return False, 0.0
        init = max(0.0, self._init_rng(fn.name).gauss(
            self.cal.init_ms_mean, self.cal.init_ms_sigma))
        return True, init

    def _release_instance(self, fn: FunctionConfig) -> None:
        self._pools.setdefault(fn.name, []).append(
            self.sim.now() + self.cal.warm_pool_idle_ms
        )

    # -- invocation ---------------------------------------------------------

    def invocation(
        self,
        fn: FunctionConfig,
        handler: Handler,
        payload: Any,
        execution_id: str = "",
    ):
        """Run one invocation in the calling process; returns its InvocationRecord.

        The caller drives it with ``yield from``; ``drive`` runs the handler
        against the deadline ``start + timeout_ms``.
        """
        # Admission control: saturated invocations queue FIFO, never drop.
        if self._active >= self.limits.account_concurrency:
            gate = self.sim.event()
            self._admission_waiters.append(gate)
            yield gate  # slot handed over by a finishing invocation
        else:
            self._active += 1

        instance_id = new_execution_id(self._id_rng)
        cold, init_ms = self._acquire_instance(fn)
        if init_ms > 0:
            yield init_ms
        start = self.sim.now()
        ctx = InvocationContext(fn, self.cal, execution_id, instance_id, self._seed)
        result = error = None
        try:
            result = yield from self.drive(handler(ctx, payload), fn.name,
                                           start + fn.timeout_ms)
            status = "ok"
        except Interrupted:
            status = "timeout"
        except SimError:
            raise
        except Exception as exc:
            status, error = "error", _without_tracebacks(exc)

        duration = float(fn.timeout_ms) if status == "timeout" else self.sim.now() - start
        record = InvocationRecord(
            function=fn.name,
            execution_id=execution_id,
            instance_id=instance_id,
            cold_start=cold,
            init_ms=init_ms if cold else 0.0,
            duration_ms=duration,
            billed_gb_ms=(fn.memory_mb / 1024.0) * duration,
            max_mem_used_mb=ctx._mem_watermark_mb,
            outcome=status,
            start_ms=start,
            exception=error,
            result=result,
        )
        self.ledger.append(record)
        self._release_instance(fn)
        if self._admission_waiters:
            self._admission_waiters.popleft().trigger()  # slot handover
        else:
            self._active -= 1
        return record

    def drive(self, gen, name: str, deadline: float = math.inf):
        """Run ``gen`` in the calling process and return what it returns.

        The caller drives this with ``yield from``.  ``gen`` yields latencies
        and ops; each yield becomes exactly one latency for the scheduler,
        even a 0 ms one.  An op's result, or the exception its store raised,
        is sent or thrown into ``gen`` at its yield.  A latency that would
        reach ``deadline`` is cut to a wait for that instant, and
        ``Interrupted`` is thrown into ``gen`` there; what ``gen`` yields
        after that is its cleanup, passed on uncut.  Any other yield, or an
        op name that ``StorageClients.ops`` lacks, raises ``SimError``.
        """
        ops = self.clients.ops
        now = self.sim.now
        send, throw = gen.send, gen.throw
        step, arg = send, None
        interrupted = False
        while True:
            try:
                item = step(arg)
            except StopIteration as stop:
                return stop.value
            step, arg, apply = send, None, None
            if item.__class__ is tuple:
                try:
                    at_issue, apply, price = ops[item[0]]
                except (KeyError, IndexError, TypeError):
                    raise SimError(f"{name!r} yielded {item!r}, not a known op") from None
                args = item[1:]
                if at_issue:
                    try:
                        arg = apply(*args)
                    except Exception as exc:
                        step, arg = throw, exc
                        continue
                    latency, apply = price(arg), None
                else:
                    latency = price(*args)
            elif isinstance(item, (int, float)):
                latency = item
            else:
                raise SimError(f"{name!r} yielded {item!r}, not a latency or an op")
            if interrupted or now() + latency < deadline:
                yield latency
                if apply is not None:
                    try:
                        arg = apply(*args)
                    except Exception as exc:
                        step, arg = throw, exc
            else:
                # land on the deadline exactly: now + (deadline - now) may not
                expired = self.sim.event()
                handle = self.sim.call_at(deadline, expired.trigger)
                try:
                    yield expired
                finally:
                    # Closed while waiting: the pending trigger would keep
                    # the event, and through its waiter the simulator.
                    self.sim.cancel(handle)
                step, arg = throw, Interrupted(f"{name} timed out")
                interrupted = True


class QueueSource:
    """Polling consumer pool for one function, scaled per virtual minute.

    The pool starts at one consumer and, while a backlog is visible at the
    minute mark, grows by ``queue_scale_per_min`` up to ``queue_scale_cap``.

    A consumer that receives nothing polls again ``consumer_poll_interval_ms``
    later, and its receive lands ``queue_receive_ms`` after that.  Instead of
    running those empty polls, an idle consumer sleeps to the exact instant
    it would next have polled at or after the next send or the earliest
    visibility deadline, since nothing becomes visible in between, and
    receives there.  Every receive that delivers, and every sweep that
    expires a message, happens at the instant polling would give, so the
    ledger and the trace equal those of polling at every tick.
    """

    def __init__(self, runtime: FunctionRuntime, fn: FunctionConfig, queue: MessageQueue,
                 handler: Handler):
        self.runtime = runtime
        self.fn = fn
        self.queue = queue
        self.handler = handler
        self.pool_size = 0
        self.pool_history: list[tuple[float, int]] = []
        self._stopped = False
        self._awaiting_send: dict[_IdleConsumer, None] = {}  # in order of sleep
        self._procs: list[Process] = []  # the consumers and the scaler

    def start(self) -> None:
        self.queue.on_send = self._on_send
        self._grow(1)
        self._procs.append(self.runtime.sim.spawn(self._manager(), name="queue-scaler"))

    def stop(self) -> None:
        """Stop the pool where it stands, leaving no reference cycle behind.

        Clearing the send callback breaks the cycle queue -> source ->
        runtime -> queue.  Closing the consumers and the scaler drops their
        frames, which reach the runtime, and a closed idle consumer cancels
        its wake, which reaches the source.
        """
        self._stopped = True
        self.queue.on_send = None
        for proc in self._procs:
            proc.gen.close()

    def _on_send(self) -> None:
        waiting, self._awaiting_send = self._awaiting_send, {}
        for idle in waiting:
            idle.on_send()

    def _grow(self, n: int) -> None:
        sim = self.runtime.sim
        for _ in range(n):
            self._procs.append(sim.spawn(self._consumer(), name=f"consumer-{self.fn.name}"))
        self.pool_size += n
        self.pool_history.append((sim.now(), self.pool_size))

    def _manager(self):
        limits = self.runtime.limits
        while not self._stopped:
            yield 60_000.0
            if self._stopped:
                return
            if self.queue.visible_count() <= 0:
                continue
            room = min(limits.queue_scale_cap, limits.account_concurrency) - self.pool_size
            if room > 0:
                self._grow(min(limits.queue_scale_per_min, room))

    def _consumer(self):
        # Receive and delete are the table's ops, applied as ``drive`` applies
        # them with no deadline: the latency first, then the store call.
        runtime = self.runtime
        ops = runtime.clients.ops
        _, receive, receive_ms = ops["queue_receive"]
        _, delete, delete_ms = ops["queue_delete"]
        while not self._stopped:
            yield receive_ms()
            messages = receive()
            if not messages:
                idle = _IdleConsumer(self, runtime.sim.now())
                try:
                    messages = yield idle.delivered
                finally:
                    idle.cancel()  # closed while asleep: it must not wake
            for msg in messages:
                record = yield from runtime.invocation(
                    self.fn, self.handler, msg.body, getattr(msg.body, "execution_id", ""))
                if record.outcome == "ok":
                    yield delete_ms(msg.receipt)
                    delete(msg.receipt)
                # otherwise leave it; visibility expiry redelivers or retires


class _IdleConsumer:
    """One consumer asleep after an empty receive, until a receive delivers.

    Its would-be receive instants follow ``t <- (t + poll) + receive_ms``
    from its last receive, replayed with the same float additions.  It
    wakes at the first of them at or after the earliest visibility deadline,
    or, sooner, after the next send; a wake that receives nothing starts the
    count again from there.  ``delivered`` fires with the messages, or with
    none once the source has stopped.
    """

    __slots__ = ("source", "last", "wake_at", "handle", "delivered")

    def __init__(self, source: QueueSource, last: float):
        self.source = source
        self.last = last
        self.wake_at: Optional[float] = None
        self.handle: Optional[list] = None
        self.delivered = source.runtime.sim.event()
        self._sleep()

    def _tick_at_or_after(self, instant: float) -> float:
        cal = self.source.runtime.cal
        poll, receive = cal.consumer_poll_interval_ms, cal.queue_receive_ms
        t = (self.last + poll) + receive
        # A tick that does not move the clock at ``instant`` would crawl
        # towards it without end; one that does not move it at ``t`` stalls.
        crawls = (instant + poll) + receive == instant
        while t < instant:
            tick = (t + poll) + receive
            if tick == t or crawls:
                raise ClockStalled(f"a consumer poll of {poll} ms and receive of "
                                   f"{receive} ms does not advance the clock to {instant} ms")
            t = tick
        return t

    def _schedule(self, tick: float) -> None:
        sim = self.source.runtime.sim
        if self.handle is not None:
            sim.cancel(self.handle)
        self.wake_at = tick
        self.handle = sim.call_at(tick, self._wake)

    def _sleep(self) -> None:
        deadline = self.source.queue.next_deadline()
        if deadline is not None:
            self._schedule(self._tick_at_or_after(deadline))
        self.source._awaiting_send[self] = None

    def cancel(self) -> None:
        """Drop a pending wake and the wait for a send; no-op once delivered."""
        if self.handle is not None:
            self.source.runtime.sim.cancel(self.handle)
            self.handle = self.wake_at = None
        self.source._awaiting_send.pop(self, None)

    def on_send(self) -> None:
        tick = self._tick_at_or_after(self.source.runtime.sim.now())
        if self.wake_at is None or tick < self.wake_at:
            self._schedule(tick)

    def _wake(self) -> None:
        # The receive is the table's op; its latency is already in the tick.
        self.handle = self.wake_at = None
        source = self.source
        receive = source.runtime.clients.ops["queue_receive"][1]
        messages = [] if source._stopped else receive()
        if messages or source._stopped:
            source._awaiting_send.pop(self, None)
            self.delivered.trigger(messages)
        else:
            self.last = source.runtime.sim.now()
            self._sleep()
