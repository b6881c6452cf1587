"""Step-function-style orchestration: parallel ingest fan-out, partition
snapshot, the counter gate wait-loop, per-partition reduce fan-out, and
final ranking, with a full execution trace.

The map function never appears here: it consumes straight off the queue
through the runtime's event-source mapping, which is exactly why the gate
exists.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import Optional

from .calibration import CalibrationTable, DEFAULT_CALIBRATION
from .core import DegenerateAggregateError, RankingResult, new_execution_id
from .pipeline import (
    GateState,
    IngestEvent,
    PipelineEnv,
    ingest_handler,
    map_handler,
    reduce_aggregate_handler,
    reduce_gate,
    reduce_rank_handler,
)
from .ports import make_adapter
from .runtime import (
    FunctionConfig,
    FunctionRuntime,
    InvocationRecord,
    StorageClients,
)
from .scenarios import ScenarioConfig
from .sim import Simulator
from .storage import KvStore, MessageQueue, ObjectStore

TRACE_COLUMNS = ("ts_ms", "state", "instance_id", "outcome", "duration_ms")

STATE_TO_PHASE = {
    "ParallelIngest": "Ingest",
    "ReducePrep": "ReducePrep",
    "ReduceGate": "ReduceGate",
    "ParallelReduceAggregate": "ReduceAggregate",
    "ReduceRank": "ReduceRank",
}
PHASE_NAMES = ("Ingest", "ReducePrep", "ReduceGate", "ReduceAggregate", "ReduceRank")
PAYLOAD_LIMIT_BYTES = 262_144


class IncompleteTraceError(ValueError):
    pass


@dataclass(slots=True)
class TraceEvent:
    ts_ms: float
    state: str
    instance_id: str
    outcome: str
    duration_ms: float


@dataclass(slots=True)
class ExecutionTrace:
    execution_id: str
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, ts_ms: float, state: str, instance_id: str, outcome: str,
            duration_ms: float) -> None:
        self.events.append(TraceEvent(ts_ms, state, instance_id, outcome, duration_ms))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for e in self.events:
            writer.writerow(
                [f"{e.ts_ms:.3f}", e.state, e.instance_id, e.outcome, f"{e.duration_ms:.3f}"]
            )
        return buf.getvalue()

    @staticmethod
    def from_csv(execution_id: str, text: str) -> "ExecutionTrace":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != TRACE_COLUMNS:
            raise ValueError("unexpected trace header")
        trace = ExecutionTrace(execution_id)
        for row in rows[1:]:
            trace.add(float(row[0]), row[1], row[2], row[3], float(row[4]))
        return trace


@dataclass
class PhaseBreakdown:
    seconds: dict[str, float]      # phase -> s, plus Overhead and Total
    percentages: dict[str, float]  # phase -> % of Total, plus Overhead

    def row(self) -> list[float]:
        order = list(PHASE_NAMES) + ["Overhead", "Total"]
        return [self.seconds[name] for name in order]


def phase_breakdown_from_durations(seconds: dict[str, float]) -> PhaseBreakdown:
    """Build the per-phase report from already-known phase durations.

    ``seconds`` must contain every named phase plus ``Total``; ``Overhead``
    is derived when absent.
    """
    missing = [p for p in PHASE_NAMES if p not in seconds] + (
        [] if "Total" in seconds else ["Total"]
    )
    if missing:
        raise IncompleteTraceError(f"missing phases: {missing}")
    total = seconds["Total"]
    named_sum = sum(seconds[p] for p in PHASE_NAMES)
    if total <= 0 or named_sum <= 0:
        raise IncompleteTraceError("inconsistent trace: no measurable phases")
    out = {p: seconds[p] for p in PHASE_NAMES}
    out["Overhead"] = seconds.get("Overhead", total - named_sum)
    out["Total"] = total
    percentages = {
        p: out[p] / total * 100.0 for p in (*PHASE_NAMES, "Overhead")
    }
    return PhaseBreakdown(seconds=out, percentages=percentages)


def phase_breakdown(trace: ExecutionTrace) -> PhaseBreakdown:
    """Per-phase wall seconds and percentages from a completed trace."""
    enters: dict[str, float] = {}
    exits: dict[str, float] = {}
    for event in trace.events:
        if event.state not in STATE_TO_PHASE:
            continue
        phase = STATE_TO_PHASE[event.state]
        if event.outcome == "entered" and phase not in enters:
            enters[phase] = event.ts_ms
        elif event.outcome in ("completed", "failed", "stalled"):
            exits[phase] = event.ts_ms
    missing = [p for p in PHASE_NAMES if p not in enters or p not in exits]
    if missing:
        raise IncompleteTraceError(f"trace missing phase boundaries: {missing}")
    seconds = {p: (exits[p] - enters[p]) / 1000.0 for p in PHASE_NAMES}
    seconds["Total"] = (max(exits.values()) - min(enters.values())) / 1000.0
    return phase_breakdown_from_durations(seconds)


class _JobFailed(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _task_failed(what: str, record: InvocationRecord) -> _JobFailed:
    """The job failure for a task whose last attempt was ``record``."""
    if record.outcome == "timeout":
        cause = f"timed out after {record.duration_ms:.0f} ms"
    else:
        cause = repr(record.exception)
    return _JobFailed(f"{what}: {cause}")


class JobResult:
    """One execution: its wiring, its live stores and runtime, and the
    outcome that ``run_job`` fills in."""

    def __init__(self, scenario: ScenarioConfig, raw_store: ObjectStore,
                 file_keys: list[str], cal: CalibrationTable):
        self.scenario = scenario
        self.cal = cal
        seed = scenario.seed
        self.sim = Simulator(interleave_seed=scenario.interleave_seed)
        self.execution_id = new_execution_id(Random(("execution", seed).__repr__()))
        self.objects = ObjectStore(fault_rate=scenario.object_fault_rate,
                                   fault_seed=seed)
        self.kv = KvStore(clock=self.sim.now,
                          throttle=scenario.throttle if scenario.shuffle_system == "kv"
                          else None)
        self.queue = MessageQueue(clock=self.sim.now,
                                  visibility_timeout_ms=scenario.visibility_timeout_ms,
                                  max_receives=scenario.max_receives)
        self.clients = StorageClients(cal, objects=self.objects, raw_objects=raw_store,
                                      kv=self.kv, queue=self.queue)
        self.port = make_adapter(scenario.shuffle_system, self.clients)
        self.runtime = FunctionRuntime(self.sim, self.clients, seed=seed)
        self.env = PipelineEnv(port=self.port, batch_size=scenario.batch_size,
                               map_failure_rate=scenario.map_failure_rate)
        self.file_keys = file_keys
        self.trace = ExecutionTrace(self.execution_id)
        self.fn_ingest = FunctionConfig("ingest", scenario.ingest_memory_mb,
                                        workers=scenario.ingest_threads)
        self.fn_map = FunctionConfig("map", scenario.map_memory_mb)
        self.fn_reduce1 = FunctionConfig("reduce1", scenario.reduce1_memory_mb)
        self.fn_reduce2 = FunctionConfig("reduce2", scenario.reduce2_memory_mb)
        self.status = ""  # completed | stalled | failed
        self.reason = ""
        self.gate: Optional[GateState] = None
        self.partitions: list[str] = []
        self.ranking_doc: Optional[list[dict]] = None
        self.ranking: Optional[RankingResult] = None
        self.valid_input_rows = 0
        self.ingested = self.mapped = 0
        self.dlq_batches = self.dlq_rows = 0

    @property
    def records(self) -> list[InvocationRecord]:
        return self.runtime.ledger

    # trace helpers

    def enter(self, state: str) -> float:
        now = self.sim.now()
        self.trace.add(now, state, "-", "entered", 0.0)
        return now

    def exit(self, state: str, outcome: str, entered_at: float) -> None:
        now = self.sim.now()
        self.trace.add(now, state, "-", outcome, now - entered_at)

    def check_payload(self, items) -> None:
        size = len(json.dumps(items).encode("utf-8"))
        if size > PAYLOAD_LIMIT_BYTES:
            raise _JobFailed(
                f"state payload of {size} bytes exceeds the "
                f"{PAYLOAD_LIMIT_BYTES}-byte limit"
            )


def _task_with_retries(job: JobResult, state: str, fn: FunctionConfig, handler, payload,
                       retries: int = 2, backoff_ms: float = 1000.0):
    """Run one task state; retry transient failures, never degenerate input."""
    bound = partial(handler, job.env)
    attempt = 0
    while True:
        record = yield from job.runtime.invocation(fn, bound, payload, job.execution_id)
        job.trace.add(job.sim.now(), state, record.instance_id, record.outcome,
                      record.duration_ms)
        if record.outcome == "ok":
            return record, True
        if isinstance(record.exception, DegenerateAggregateError):
            return record, False
        attempt += 1
        if attempt > retries:
            return record, False
        yield backoff_ms


def _orchestrate(job: JobResult):
    try:
        # ParallelIngest
        entered = job.enter("ParallelIngest")
        events = [IngestEvent(job.execution_id, "raw", key).to_dict()
                  for key in job.file_keys]
        job.check_payload(events)
        tasks = [
            job.sim.spawn(
                _task_with_retries(job, "ParallelIngest", job.fn_ingest,
                                   ingest_handler, event),
                name=f"ingest-{event['object_key']}",
            )
            for event in events
        ]
        yield job.sim.all_of(tasks)
        for task in tasks:
            record, ok = task.result
            if not ok:
                job.exit("ParallelIngest", "failed", entered)
                raise _task_failed("ingest failed after retries", record)
            job.valid_input_rows += record.result["records_emitted"]
        if job.valid_input_rows == 0:
            job.exit("ParallelIngest", "failed", entered)
            raise _JobFailed("empty input: no valid rows in any input file")
        job.exit("ParallelIngest", "completed", entered)
        yield job.cal.workflow_transition_ms

        # ReducePrep: partition discovery ahead of the gated fan-out
        entered = job.enter("ReducePrep")
        yield from job.port.list_partitions(job.execution_id)
        job.exit("ReducePrep", "completed", entered)
        yield job.cal.workflow_transition_ms

        # ReduceGate wait-loop
        entered = job.enter("ReduceGate")
        gate = yield from reduce_gate(
            job.clients,
            job.execution_id,
            poll_interval_ms=job.scenario.gate_poll_ms,
            max_attempts=job.scenario.gate_max_attempts,
            override_on_stall=job.scenario.override_gate,
        )
        job.gate = gate
        if not gate.passes:
            job.exit("ReduceGate", "stalled", entered)
            raise _JobFailed(
                f"gate stalled after {gate.attempts} checks: "
                f"ingested={gate.ingested} mapped={gate.mapped}"
            )
        job.exit("ReduceGate", "completed", entered)
        yield job.cal.workflow_transition_ms

        # ParallelReduceAggregate: fan out over the post-gate partition set,
        # which the gate guarantees is complete (the prep snapshot may
        # predate the map tail).
        entered = job.enter("ParallelReduceAggregate")
        partitions = yield from job.port.list_partitions(job.execution_id)
        job.partitions = list(partitions)
        job.check_payload(partitions)
        agg_tasks = [
            job.sim.spawn(
                _task_with_retries(job, "ParallelReduceAggregate", job.fn_reduce1,
                                   reduce_aggregate_handler,
                                   {"partition_key": pk}),
                name=f"reduce1-{pk}",
            )
            for pk in partitions
        ]
        yield job.sim.all_of(agg_tasks)
        for pk, task in zip(partitions, agg_tasks):
            record, ok = task.result
            # a listed partition with no rows is skipped
            if not ok and not isinstance(record.exception, DegenerateAggregateError):
                raise _task_failed(f"aggregate for {pk!r} failed", record)
        job.exit("ParallelReduceAggregate", "completed", entered)
        yield job.cal.workflow_transition_ms

        # ReduceRank
        entered = job.enter("ReduceRank")
        record, ok = yield from _task_with_retries(
            job, "ReduceRank", job.fn_reduce2, reduce_rank_handler,
            {"limit": job.scenario.ranking_limit},
        )
        if not ok:
            raise _task_failed("ranking failed", record)
        job.ranking_doc = record.result["ranking"]
        job.exit("ReduceRank", "completed", entered)
        job.status = "completed"
    except _JobFailed as failure:
        job.status = "stalled" if job.gate is not None and not job.gate.passes else "failed"
        job.reason = failure.reason


def run_job(
    scenario: ScenarioConfig,
    raw_store: ObjectStore,
    file_keys: Optional[list[str]] = None,
    cal: Optional[CalibrationTable] = None,
) -> JobResult:
    """Execute one job end to end on a fresh virtual timeline."""
    cal = cal or DEFAULT_CALIBRATION
    if file_keys is None:
        available = raw_store.list()
        if len(available) < scenario.files:
            raise ValueError(
                f"scenario wants {scenario.files} files, store has {len(available)}"
            )
        file_keys = available[: scenario.files]
    if not file_keys:
        raise ValueError("no input files")

    job = JobResult(scenario, raw_store, file_keys, cal)
    source = job.runtime.attach_queue_source(job.fn_map, job.queue,
                                             partial(map_handler, job.env))
    orchestrator = job.sim.spawn(_orchestrate(job), name="workflow")
    job.sim.run(until=orchestrator.finished)
    source.stop()

    if job.ranking_doc is not None:
        job.ranking = RankingResult(
            entries=tuple((d["carrier"], d["on_time_performance"])
                          for d in job.ranking_doc),
            limit=scenario.ranking_limit,
        )
    for body in job.queue.dlq_bodies:
        job.dlq_rows += len(json.loads(body)["records"])
    job.ingested, job.mapped = job.kv.counter_get(job.execution_id)
    job.dlq_batches = job.queue.dlq_count()
    return job
