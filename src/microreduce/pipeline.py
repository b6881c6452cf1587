"""The five pipeline functions: ingest, map, reduce gate, reduce
aggregate, reduce rank.

Handlers are generator functions ``handler(env, ctx, payload)`` executed by
the runtime once the workflow binds the job's ``PipelineEnv`` as ``env``;
every shared effect flows through ``ctx.clients``, so any number of
instances can run concurrently.  The gate runs as a workflow wait-loop, not
as a function invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import kernels
from .core import DegenerateAggregateError, CarrierAggregate, rank_carriers
from .data import parse_csv
from .ports import ShuffleEntry
from .runtime import InvocationContext, StorageClients
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

    def to_dict(self) -> dict:
        return {
            "execution_id": self.execution_id,
            "bucket": self.bucket,
            "object_key": self.object_key,
        }

    @staticmethod
    def from_dict(doc: dict) -> "IngestEvent":
        return IngestEvent(doc["execution_id"], doc["bucket"], doc["object_key"])


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


def batch_body(execution_id: str, seq: int, source_file: str,
               records: list[tuple[str, int]]) -> str:
    """Wire format of one micro-batch queue message."""
    return json.dumps(
        {
            "execution_id": execution_id,
            "seq": seq,
            "source_file": source_file,
            "records": records,
        },
        separators=(",", ":"),
    )


def ingest_handler(env: PipelineEnv, ctx: InvocationContext, payload: dict):
    """Download one raw CSV, drop invalid rows, emit micro-batches, then
    write the ingested counter once everything is on the queue."""
    event = IngestEvent.from_dict(payload)
    cal = ctx.cal

    body = yield from ctx.clients.raw_object_get(event.object_key)
    ctx.note_memory(40 + 3 * len(body) // (1024 * 1024))
    parsed = parse_csv(body)  # raises on a broken header; nothing counted

    carriers, delays = parsed.carriers, parsed.delays
    n_valid = len(carriers)
    batch_size = env.batch_size
    batches_emitted = 0
    for start in range(0, n_valid, batch_size):
        stop = min(start + batch_size, n_valid)
        records = [[carriers[i], delays[i]] for i in range(start, stop)]
        yield from ctx.work(
            (stop - start) * cal.ingest_row_units + cal.ingest_batch_units
        )
        yield from ctx.clients.queue_send(
            batch_body(event.execution_id, batches_emitted, event.object_key, records)
        )
        batches_emitted += 1

    if n_valid > 0:
        # Deliberately last: the gate must never observe a completed
        # ingest count while sends are still in flight.
        yield from ctx.clients.counter_add(event.execution_id, "ingested", n_valid)
    return {
        "batches_emitted": batches_emitted,
        "records_emitted": n_valid,
        "total_rows": parsed.stats.total_rows,
        "invalid_rows": parsed.stats.invalid_rows,
    }


def map_handler(env: PipelineEnv, ctx: InvocationContext, payload: dict):
    """Group one micro-batch by carrier and write one shuffle entry per
    distinct carrier, counting the rows only after every write landed."""
    cal = ctx.cal
    execution_id = payload["execution_id"]
    records = payload["records"]

    yield from ctx.work(cal.map_batch_units + len(records) * cal.map_row_units)
    groups = kernels.group_rows(
        [r[0] for r in records], [r[1] for r in records]
    )

    written: list[str] = []
    try:
        for carrier in sorted(groups):
            delay_sum, count = groups[carrier]
            entry = ShuffleEntry(
                execution_id=execution_id,
                partition_key=carrier,
                instance_id=ctx.instance_id,
                delay_sum=delay_sum,
                count=count,
            )
            yield from _write_with_retry(ctx, env, entry)
            written.append(carrier)
        if env.map_failure_rate > 0.0 and ctx.rng.random() < env.map_failure_rate:
            raise InjectedMapFailure(f"injected failure for batch {payload['seq']}")
    except Exception:
        # Tombstone this attempt's writes so a redelivery cannot double
        # count; the mapped counter was never incremented for it.
        yield from env.port.delete_instance_entries(
            execution_id, ctx.instance_id, written
        )
        raise

    yield from ctx.clients.counter_add(execution_id, "mapped", len(records))
    return {"entries_written": len(written)}


def _write_with_retry(ctx: InvocationContext, env: PipelineEnv, entry: ShuffleEntry):
    try:
        yield from env.port.write_entry(entry)
        return
    except (ThrottledError, StorageFaultError):
        yield ctx.cal.map_retry_backoff_ms
    try:
        yield from env.port.write_entry(entry)
    except (ThrottledError, StorageFaultError) as exc:
        raise MapWriteError(
            f"shuffle write failed twice for {entry.partition_key}: {exc}"
        ) from exc


def reduce_gate(
    clients: StorageClients,
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
        ingested, mapped = yield from clients.counter_get(execution_id)
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
    yield from ctx.clients.results_put(ctx.execution_id, partition_key, delay_sum, count)
    return {"carrier": partition_key, "delay_sum": delay_sum, "count": count,
            "entries_read": len(entries)}


def reduce_rank_handler(env: PipelineEnv, ctx: InvocationContext, payload: dict):
    """Load all per-carrier aggregates, rank them, persist the result."""
    limit = payload.get("limit", 10)
    rows = yield from ctx.clients.results_list(ctx.execution_id)
    aggs = [CarrierAggregate(carrier=c, delay_sum=s, count=n) for c, s, n in rows]
    yield from ctx.work(
        ctx.cal.rank_base_units + len(aggs) * ctx.cal.rank_per_carrier_units
    )
    ranking = rank_carriers(aggs, limit=limit)
    doc = ranking_doc(ranking)
    yield from ctx.clients.object_put(
        f"rankings/{ctx.execution_id}.json",
        json.dumps(doc, separators=(",", ":")).encode("utf-8"),
    )
    return {"ranking": doc}


def ranking_doc(ranking) -> list[dict]:
    """Frozen artifact shape: a JSON list of carrier/performance pairs."""
    return [
        {"carrier": carrier, "on_time_performance": perf}
        for carrier, perf in ranking.entries
    ]
