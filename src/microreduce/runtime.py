"""Simulated Function-as-a-Service executor.

Each invocation runs on the virtual clock: cold-start initialization,
compute charged through the calibration table with memory-derived worker
parallelism, a hard timeout, GB-ms billing, an account-wide concurrency
ceiling with FIFO overflow queuing, and queue-driven consumer pools that
scale by a fixed step per virtual minute.

An invocation runs its handler in its caller's process: the caller drives
it with ``yield from``, and the invocation drives the handler generator in
turn.  It passes each latency the handler yields on to the scheduler and
enforces the hard timeout itself: the first latency that would reach the
deadline becomes a wait to the deadline, where ``Interrupted`` is thrown into
the handler.  A handler yields only latencies; any other yield raises
``SimError`` out of the run.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable, Optional

from .calibration import CalibrationTable, vcpus
from .core import new_execution_id
from .sim import Event, Process, SimError, Simulator
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
MIN_MEMORY_MB = 128
MAX_MEMORY_MB = 10_240


class Interrupted(Exception):
    """Thrown into a handler at its invocation's deadline."""


@dataclass(frozen=True, slots=True)
class FunctionConfig:
    name: str
    memory_mb: int
    timeout_ms: int = MAX_TIMEOUT_MS
    workers: int = 1

    def __post_init__(self):
        if not MIN_MEMORY_MB <= self.memory_mb <= MAX_MEMORY_MB:
            raise ValueError(f"memory_mb {self.memory_mb} outside [128, 10240]")
        if not 0 < self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms {self.timeout_ms} outside (0, {MAX_TIMEOUT_MS}]")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.workers > vcpus(self.memory_mb):
            raise ValueError(
                f"workers {self.workers} exceeds {vcpus(self.memory_mb)} vCPUs "
                f"at {self.memory_mb} MB"
            )

    @property
    def vcpus(self) -> int:
        return vcpus(self.memory_mb)


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


class StorageClients:
    """Latency-charging facades over the storage backends.

    Every method is a generator that advances the virtual clock by the op's
    modeled latency.  A read queries its backend once, at call time, prices
    that result and returns it after the latency; a missing object key
    raises before any time passes.  A write applies after the latency, so
    its state change lands at the op's completion instant.
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
        self.objects = objects
        self.raw_objects = raw_objects
        self.kv = kv
        self.queue = queue

    def object_get(self, key: str, store: Optional[ObjectStore] = None):
        body = (store if store is not None else self.objects).get(key)
        yield self.cal.object_get_ms(len(body))
        return body

    def raw_object_get(self, key: str):
        return self.object_get(key, store=self.raw_objects)

    def object_put(self, key: str, body: bytes, store: Optional[ObjectStore] = None):
        if store is None:
            store = self.objects
        yield self.cal.object_put_ms(len(body))
        store.put(key, body)

    def object_delete(self, key: str):
        yield self.cal.object_put_ms(0)
        self.objects.delete(key)

    def object_list(self, prefix: str):
        keys = self.objects.list(prefix)
        yield self.cal.object_list_ms(len(keys))
        return keys

    def kv_put(self, item):
        yield self.cal.kv_put_ms
        self.kv.put_item(item)  # may raise ThrottledError at completion time

    def kv_delete(self, hash_key: str, sort_key: str):
        yield self.cal.kv_put_ms
        self.kv.delete_item(hash_key, sort_key)

    def kv_query_lsi(self, hash_key: str, lsi_sort_key: str):
        items = self.kv.query_lsi(hash_key, lsi_sort_key)
        yield self.cal.kv_query_ms(len(items))
        return items

    def kv_scan(self, hash_key: str):
        items = self.kv.scan(hash_key)
        yield self.cal.kv_query_ms(len(items))
        return items

    def counter_add(self, execution_id: str, fieldname: str, delta: int):
        yield self.cal.counter_add_ms
        return self.kv.counter_add(execution_id, fieldname, delta)

    def counter_get(self, execution_id: str):
        yield self.cal.counter_get_ms
        return self.kv.counter_get(execution_id)

    def results_put(self, execution_id: str, carrier: str, delay_sum: int, count: int):
        yield self.cal.kv_put_ms
        self.kv.put_result(execution_id, carrier, delay_sum, count)

    def results_list(self, execution_id: str):
        rows = self.kv.list_results(execution_id)
        yield self.cal.kv_query_ms(len(rows))
        return rows

    def queue_send(self, body: str):
        yield self.cal.queue_send_ms
        self.queue.send(body)

    def queue_receive(self):
        yield self.cal.queue_receive_ms
        return self.queue.receive()

    def queue_delete(self, receipt: int):
        yield self.cal.queue_delete_ms
        return self.queue.delete(receipt)


class InvocationContext:
    """What a handler sees: config, clients, seeded RNG, work charging."""

    def __init__(
        self,
        config: FunctionConfig,
        cal: CalibrationTable,
        clients: StorageClients,
        execution_id: str,
        instance_id: str,
        rng: Random,
    ):
        self.config = config
        self.cal = cal
        self.clients = clients
        self.execution_id = execution_id
        self.instance_id = instance_id
        self.rng = rng
        self._mem_watermark_mb = 35

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
#: process.  It yields only latencies (numbers); the invocation enforces the
#: deadline between them and raises ``SimError`` on any other yield.  Its
#: return value becomes the record's ``result``.  The pipeline's handlers
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
        self.max_active_seen = 0

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

    def invoke(
        self,
        fn: FunctionConfig,
        handler: Handler,
        payload: Any,
        execution_id: str = "",
    ) -> Process:
        """Spawn one invocation; the process result is its InvocationRecord."""
        return self.sim.spawn(self.invocation(fn, handler, payload, execution_id),
                              name=f"invoke-{fn.name}")

    def invocation(
        self,
        fn: FunctionConfig,
        handler: Handler,
        payload: Any,
        execution_id: str = "",
    ):
        """Run one invocation in the calling process; returns its InvocationRecord.

        The caller drives it with ``yield from``.  A handler latency that
        would reach ``start + timeout_ms`` is cut to a wait for that instant,
        and ``Interrupted`` is thrown into the handler there.  What the
        handler yields after that is its cleanup, passed on uncut.
        """
        # Admission control: saturated invocations queue FIFO, never drop.
        if self._active >= self.limits.account_concurrency:
            gate = self.sim.event()
            self._admission_waiters.append(gate)
            yield gate  # slot handed over by a finishing invocation
        else:
            self._active += 1
        self.max_active_seen = max(self.max_active_seen, self._active)

        instance_id = new_execution_id(self._id_rng)
        cold, init_ms = self._acquire_instance(fn)
        if init_ms > 0:
            yield init_ms
        start = self.sim.now()
        rng = Random(("invocation", self._seed, instance_id).__repr__())
        ctx = InvocationContext(fn, self.cal, self.clients, execution_id, instance_id, rng)
        result = error = None
        deadline = start + fn.timeout_ms
        gen = handler(ctx, payload)
        step, arg = gen.send, None
        interrupted = False
        while True:
            try:
                latency = step(arg)
            except StopIteration as stop:
                result, status = stop.value, "ok"
                break
            except Interrupted:
                status = "timeout"
                break
            except Exception as exc:
                status, error = "error", exc
                break
            if not isinstance(latency, (int, float)):
                raise SimError(f"handler of {fn.name!r} yielded {latency!r}, not a latency")
            if interrupted or self.sim.now() + latency < deadline:
                yield latency
                step, arg = gen.send, None
            else:
                # land on the deadline exactly: now + (deadline - now) may not
                expired = self.sim.event()
                self.sim.call_at(deadline, expired.trigger)
                yield expired
                step, arg = gen.throw, Interrupted(f"{fn.name} timed out")
                interrupted = True

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

    def run_single(
        self, fn: FunctionConfig, handler: Handler, payload: Any, execution_id: str = ""
    ) -> InvocationRecord:
        """Convenience wrapper: run one invocation to completion."""
        proc = self.invoke(fn, handler, payload, execution_id)
        self.sim.run(until=proc.finished)
        return proc.result

    # -- queue event source --------------------------------------------------

    def attach_queue_source(
        self, fn: FunctionConfig, queue: MessageQueue, handler: Handler
    ) -> "QueueSource":
        source = QueueSource(self, fn, queue, handler)
        source.start()
        return source


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

    def start(self) -> None:
        self.queue.add_send_listener(self._on_send)
        self._grow(1)
        self.runtime.sim.spawn(self._manager(), name="queue-scaler")

    def stop(self) -> None:
        self._stopped = True

    def _on_send(self) -> None:
        waiting, self._awaiting_send = self._awaiting_send, {}
        for idle in waiting:
            idle.on_send()

    def _grow(self, n: int) -> None:
        sim = self.runtime.sim
        for _ in range(n):
            sim.spawn(self._consumer(), name=f"consumer-{self.fn.name}")
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
        clients = self.runtime.clients
        while not self._stopped:
            messages = yield from clients.queue_receive()
            if not messages:
                messages = yield _IdleConsumer(self, self.runtime.sim.now()).delivered
            for msg in messages:
                payload = json.loads(msg.body)
                execution_id = payload.get("execution_id", "") if isinstance(payload, dict) else ""
                record = yield from self.runtime.invocation(self.fn, self.handler, payload,
                                                            execution_id)
                if record.outcome == "ok":
                    yield from clients.queue_delete(msg.receipt)
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
        while t < instant:
            t = (t + poll) + receive
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

    def on_send(self) -> None:
        tick = self._tick_at_or_after(self.source.runtime.sim.now())
        if self.wake_at is None or tick < self.wake_at:
            self._schedule(tick)

    def _wake(self) -> None:
        self.handle = self.wake_at = None
        source = self.source
        messages = [] if source._stopped else source.queue.receive()
        if messages or source._stopped:
            source._awaiting_send.pop(self, None)
            self.delivered.trigger(messages)
        else:
            self.last = source.runtime.sim.now()
            self._sleep()
