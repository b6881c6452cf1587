"""The five pipeline functions: ingest, map, reduce gate, reduce
aggregate, reduce rank.

Handlers are generator functions ``handler(env, ctx, payload)`` executed by
the runtime once the workflow binds the job's ``PipelineEnv`` as ``env``.
They hold no store: every shared effect is a storage op they yield, a tuple
``(name, *args)`` that the runtime's driver prices and applies, so any number
of instances can run concurrently.  The gate runs as a workflow wait-loop,
not as a function invocation, and yields ops the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import kernels
from .core import DegenerateAggregateError, CarrierAggregate, rank_carriers
from .data import parse_csv
from .ports import ShuffleEntry
from .runtime import InvocationContext
from .storage import StorageFaultError, ThrottledError


class MapWriteError(RuntimeError):
    """Shuffle write still throttled/faulted after the single retry."""


class InjectedMapFailure(RuntimeError):
    """Deliberate fault from the failure-injection knob."""


@dataclass(frozen=True, slots=True)
class IngestEvent:
    execution_id: str
    bucket: str
    object_key: str


@dataclass(frozen=True, slots=True)
class Batch:
    """One micro-batch queue message: aligned slices of a parsed file's
    columns.  It crosses the queue as a value; ``str`` renders the JSON
    wire text that the dead-letter queue keeps."""

    execution_id: str
    seq: int
    source_file: str
    carriers: list[str]
    delays: list[int]

    def __str__(self) -> str:
        return json.dumps(
            {
                "execution_id": self.execution_id,
                "seq": self.seq,
                "source_file": self.source_file,
                "records": list(zip(self.carriers, self.delays)),
            },
            separators=(",", ":"),
        )


@dataclass(slots=True)
class GateState:
    execution_id: str
    ingested: int
    mapped: int
    attempts: int
    overridden: bool = False

    @property
    def passes(self) -> bool:
        return (self.ingested == self.mapped and self.ingested > 0) or self.overridden


@dataclass
class PipelineEnv:
    """Per-job wiring shared by all handler instances."""

    port: object  # a shuffle adapter
    batch_size: int = 100
    map_failure_rate: float = 0.0


def ingest_handler(env: PipelineEnv, ctx: InvocationContext, event: IngestEvent):
    """Download one raw CSV, drop invalid rows, emit micro-batches as parse
    settles them, then write the ingested counter once everything is on
    the queue."""
    cal = ctx.cal

    body = yield ("raw_object_get", event.object_key)
    ctx.note_memory(40 + 3 * len(body) // (1024 * 1024))
    parsed = parse_csv(body)  # raises on a broken header; nothing counted

    n_valid = 0
    batches_emitted = 0
    for carriers, delays in _batches(parsed, env.batch_size):
        rows = len(carriers)
        yield from ctx.work(rows * cal.ingest_row_units + cal.ingest_batch_units)
        yield ("queue_send", Batch(event.execution_id, batches_emitted, event.object_key,
                                   carriers, delays))
        batches_emitted += 1
        n_valid += rows

    if n_valid > 0:
        # Deliberately last: the gate must never observe a completed
        # ingest count while sends are still in flight.
        yield ("counter_add", event.execution_id, "ingested", n_valid)
    return {
        "batches_emitted": batches_emitted,
        "records_emitted": n_valid,
        "total_rows": parsed.stats.total_rows,
        "invalid_rows": parsed.stats.invalid_rows,
    }


def _batches(blocks, size: int):
    """Cut aligned ``(carriers, delays)`` blocks into batches of ``size`` rows.

    Only the last batch may be shorter.  Between two batches this holds
    the current block's rows and fewer than ``size`` rows carried over
    from the blocks before it.
    """
    carriers: list[str] = []
    delays: list[int] = []
    for more_carriers, more_delays in blocks:
        carriers += more_carriers
        delays += more_delays
        full = len(carriers) - len(carriers) % size
        for start in range(0, full, size):
            yield carriers[start:start + size], delays[start:start + size]
        del carriers[:full], delays[:full]
    if carriers:
        yield carriers, delays


def map_handler(env: PipelineEnv, ctx: InvocationContext, batch: Batch):
    """Group one micro-batch by carrier and write one shuffle entry per
    distinct carrier, counting the rows only after every write landed."""
    cal = ctx.cal
    execution_id = batch.execution_id
    rows = len(batch.carriers)

    yield from ctx.work(cal.map_batch_units + rows * cal.map_row_units)
    groups = kernels.group_rows(batch.carriers, batch.delays)

    written: list[str] = []
    try:
        for carrier in sorted(groups):
            delay_sum, count = groups[carrier]
            op = env.port.write_op(ShuffleEntry(
                execution_id=execution_id,
                partition_key=carrier,
                instance_id=ctx.instance_id,
                delay_sum=delay_sum,
                count=count,
            ))
            # One retry after a backoff; it runs outside the first failure's
            # handler, so a MapWriteError chains to the second failure only.
            for retry in (False, True):
                try:
                    yield op
                    break
                except (ThrottledError, StorageFaultError) as exc:
                    if retry:
                        raise MapWriteError(
                            f"shuffle write failed twice for {carrier}: {exc}"
                        ) from exc
                    yield cal.map_retry_backoff_ms
            written.append(carrier)
        if env.map_failure_rate > 0.0 and ctx.rng.random() < env.map_failure_rate:
            raise InjectedMapFailure(f"injected failure for batch {batch.seq}")
    except Exception:
        # Tombstone this attempt's writes so a redelivery cannot double
        # count; the mapped counter was never incremented for it.
        for carrier in written:
            yield env.port.delete_op(execution_id, ctx.instance_id, carrier)
        raise

    yield ("counter_add", execution_id, "mapped", rows)
    return {"entries_written": len(written)}


def reduce_gate(
    execution_id: str,
    poll_interval_ms: float = 1000.0,
    max_attempts: int = 300,
    override_on_stall: bool = False,
):
    """Poll the counter pair until ingested == mapped > 0.

    Each attempt sleeps one interval and then checks, so even an
    already-complete map phase costs one poll.  After ``max_attempts``
    the gate reports itself stalled unless an operator override lets it
    pass with whatever mapped data exists.
    """
    attempts = 0
    ingested = mapped = 0
    while attempts < max_attempts:
        yield poll_interval_ms
        attempts += 1
        ingested, mapped = yield ("counter_get", execution_id)
        if ingested == mapped and ingested > 0:
            return GateState(execution_id, ingested, mapped, attempts)
    return GateState(execution_id, ingested, mapped, attempts,
                     overridden=override_on_stall)


def reduce_aggregate_handler(env: PipelineEnv, ctx: InvocationContext, payload: dict):
    """Merge every shuffle entry of one partition into a single aggregate."""
    partition_key = payload["partition_key"]
    entries = yield from env.port.read_partition(ctx.execution_id, partition_key)
    if not entries:
        raise DegenerateAggregateError(
            f"no shuffle entries for partition {partition_key!r}"
        )
    delay_sum = 0
    count = 0
    for entry in entries:
        delay_sum += entry.delay_sum
        count += entry.count
    yield from ctx.work(len(entries) * ctx.cal.reduce_merge_units_per_entry)
    ctx.note_memory(40 + len(entries) // 500)
    yield ("results_put", ctx.execution_id, partition_key, delay_sum, count)
    return {"carrier": partition_key, "delay_sum": delay_sum, "count": count,
            "entries_read": len(entries)}


def reduce_rank_handler(env: PipelineEnv, ctx: InvocationContext, payload: dict):
    """Load all per-carrier aggregates, rank them, persist the result."""
    limit = payload.get("limit", 10)
    rows = yield ("results_list", ctx.execution_id)
    aggs = [CarrierAggregate(carrier=c, delay_sum=s, count=n) for c, s, n in rows]
    yield from ctx.work(
        ctx.cal.rank_base_units + len(aggs) * ctx.cal.rank_per_carrier_units
    )
    ranking = rank_carriers(aggs, limit=limit)
    doc = ranking_doc(ranking)
    yield ("object_put", f"rankings/{ctx.execution_id}.json",
           json.dumps(doc, separators=(",", ":")).encode("utf-8"))
    return {"ranking": doc}


def ranking_doc(ranking) -> list[dict]:
    """Frozen artifact shape: a JSON list of carrier/performance pairs."""
    return [
        {"carrier": carrier, "on_time_performance": perf}
        for carrier, perf in ranking.entries
    ]
