"""The three benchmark workloads, the in-memory export render, and the
checks every timed job must pass.

Each workload is a generator spec (the dataset, built in memory) plus a
scenario preset.  Both take the workload seed, so the same seed always
gives the same inputs and the same virtual-time outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import microreduce  # noqa: E402

if not Path(microreduce.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"microreduce imported from {microreduce.__file__}, not {SRC}")

from microreduce.cli import DEFAULT_PRICE_PER_GB_S, DEFAULT_REQUEST_PRICE  # noqa: E402
from microreduce.core import CarrierAggregate, RankingResult, rank_carriers  # noqa: E402
from microreduce.data import (  # noqa: E402
    GenLedger,
    GenSpec,
    anchor_file_spec,
    generate_dataset,
    reference_kv_workload_spec,
)
from microreduce.report import (  # noqa: E402
    concurrency_series,
    cost_report,
    kpi_table,
    render_concurrency_csv,
    render_cost_csv,
    render_cost_text,
    render_kpi_csv,
    render_kpi_text,
    render_phase_csv,
    render_phase_text,
)
from microreduce.runtime import render_ledger_csv  # noqa: E402
from microreduce.scenarios import ScenarioConfig, preset  # noqa: E402
from microreduce.storage import ObjectStore  # noqa: E402
from microreduce.workflow import JobResult, phase_breakdown, run_job  # noqa: E402

DEFAULT_SEED = 606
RANKING_LIMIT = 10
WORKFLOW_STATES = ("ParallelIngest", "ReducePrep", "ReduceGate",
                   "ParallelReduceAggregate", "ReduceRank")
DIGESTED = ("ranking.json", "trace.csv", "ledger.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., tuple[GenSpec, ScenarioConfig]]
    setup_reps: int          # dataset generations per run; setup_s is their median
    dlq_allowed: bool        # the throttled KV shuffle dead-letters some batches


# Each builder takes the workload seed and, for the reduced-size
# self-checks, an optional row count per file.

def _kv_throttled(seed: int, rows_per_file: Optional[int] = None):
    spec = dataclasses.replace(reference_kv_workload_spec(), seed=seed)
    if rows_per_file is not None:
        spec = dataclasses.replace(spec, rows_per_file=rows_per_file)
    return spec, preset(6, seed=seed).replace(override_gate=True)


def _object_shuffled(seed: int, rows_per_file: Optional[int] = None):
    spec = GenSpec(files=12, rows_per_file=rows_per_file or 20_000,
                   row_order="shuffled", seed=seed)
    return spec, preset(5, seed=seed)


def _anchor_ingest(seed: int, rows_per_file: Optional[int] = None):
    spec = anchor_file_spec(files=1, seed=seed)
    if rows_per_file is not None:
        spec = dataclasses.replace(spec, rows_per_file=rows_per_file)
    return spec, preset(2, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kv-throttled", _kv_throttled, setup_reps=3, dlq_allowed=True),
        Workload("object-shuffled", _object_shuffled, setup_reps=3, dlq_allowed=False),
        Workload("anchor-ingest", _anchor_ingest, setup_reps=2, dlq_allowed=False),
    )
}


def setup(spec: GenSpec) -> tuple[ObjectStore, GenLedger]:
    """What ``gen-data`` costs: the dataset generated into an object store."""
    raw = ObjectStore()
    ledger = generate_dataset(spec, raw)
    return raw, ledger


def run_and_render(scenario: ScenarioConfig, raw: ObjectStore, tracer=None
                   ) -> tuple[JobResult, dict[str, str]]:
    """One timed job: ``run_job`` plus the in-memory render of its exports."""
    result = run_job(scenario, raw)
    if tracer is None:
        return result, render_exports(result)
    with tracer.span("report"):
        return result, render_exports(result)


def render_exports(result: JobResult) -> dict[str, str]:
    """The files ``microreduce run`` writes, rendered in memory, by name."""
    out: dict[str, str] = {}
    if result.ranking_doc is not None:
        out["ranking.json"] = json.dumps(result.ranking_doc, indent=2) + "\n"
    out["trace.csv"] = result.trace.to_csv()
    out["ledger.csv"] = render_ledger_csv(result.records)
    out["counters.json"] = json.dumps(
        {"id": result.execution_id, "ingested": result.ingested,
         "mapped": result.mapped}, indent=2) + "\n"
    gate = result.gate
    gate_doc = None if gate is None else {
        "attempts": gate.attempts, "ingested": gate.ingested, "mapped": gate.mapped,
        "overridden": gate.overridden, "passes": gate.passes,
    }
    out["gate.json"] = json.dumps(gate_doc, indent=2) + "\n"
    out["dlq.json"] = json.dumps(
        {"batches": result.dlq_batches, "rows": result.dlq_rows}, indent=2) + "\n"
    out["concurrency.csv"] = render_concurrency_csv(concurrency_series(result.records))
    out["config.json"] = json.dumps(
        {"scenario": result.scenario.to_dict(), "status": result.status,
         "price_per_gb_s": DEFAULT_PRICE_PER_GB_S,
         "request_price": DEFAULT_REQUEST_PRICE},
        indent=2, sort_keys=True) + "\n"
    kpis = kpi_table(result.records)
    costs = cost_report(result.records, DEFAULT_PRICE_PER_GB_S, DEFAULT_REQUEST_PRICE)
    out["reports/kpi.txt"] = render_kpi_text(kpis)
    out["reports/kpi.csv"] = render_kpi_csv(kpis)
    out["reports/cost.txt"] = render_cost_text(costs)
    out["reports/cost.csv"] = render_cost_csv(costs)
    if result.status == "completed":
        phases = phase_breakdown(result.trace)
        out["reports/phases.txt"] = render_phase_text(phases)
        out["reports/phases.csv"] = render_phase_csv(phases)
    return out


def digests(exports: dict[str, str]) -> dict[str, str]:
    """SHA-256 of the rendered ranking, trace and ledger."""
    return {
        name: hashlib.sha256(exports.get(name, "").encode("utf-8")).hexdigest()
        for name in DIGESTED
    }


# -- the oracle, computed apart from the pipeline -----------------------------


def oracle_aggregates(ledger: GenLedger, dlq_bodies: list[str]) -> dict[str, tuple[int, int]]:
    """Per-carrier (delay_sum, count) from the generator's ledger, minus every
    record of every dead-lettered batch; carriers left empty drop out."""
    acc = dict(ledger.carriers)
    for body in dlq_bodies:
        for carrier, delay in json.loads(body)["records"]:
            s, c = acc[carrier]
            acc[carrier] = (s - delay, c - 1)
    return {code: sc for code, sc in sorted(acc.items()) if sc[1] > 0}


def oracle_ranking(aggregates: dict[str, tuple[int, int]]) -> RankingResult:
    return rank_carriers(
        [CarrierAggregate(code, s, c) for code, (s, c) in aggregates.items()],
        limit=RANKING_LIMIT,
    )


def check_job(workload: Workload, result: JobResult, exports: dict[str, str],
              ledger: GenLedger, files: int,
              dlq_bodies: Optional[list[str]] = None) -> list[str]:
    """Every way the job's outputs disagree with the oracle; empty when correct.

    ``dlq_bodies`` defaults to the job's own dead-letter queue; the
    self-checks pass a doctored copy to show the oracle notices.
    """
    errors: list[str] = []
    if result.status != "completed":
        errors.append(f"status {result.status}: {result.reason}")
        return errors
    if dlq_bodies is None:
        dlq_bodies = result.queue.dlq_bodies
    valid = ledger.valid
    if workload.dlq_allowed:
        if result.ingested != valid:
            errors.append(f"ingested {result.ingested} != valid {valid}")
        if result.mapped + result.dlq_rows != valid:
            errors.append(f"mapped {result.mapped} + dlq {result.dlq_rows} != valid {valid}")
    else:
        if not result.ingested == result.mapped == valid:
            errors.append(f"ingested {result.ingested}, mapped {result.mapped}, "
                          f"valid {valid} differ")
        if result.dlq_batches or result.dlq_rows or dlq_bodies:
            errors.append(f"DLQ holds {result.dlq_batches} batches, {result.dlq_rows} rows")

    if workload.dlq_allowed:
        aggregates = oracle_aggregates(ledger, dlq_bodies)
        expected = oracle_ranking(aggregates)
    else:
        aggregates = oracle_aggregates(ledger, [])
        expected = ledger.expected_ranking(RANKING_LIMIT)
    got_ranking = tuple(
        (d["carrier"], d["on_time_performance"])
        for d in json.loads(exports.get("ranking.json", "[]"))
    )
    if got_ranking != expected.entries:
        errors.append(f"ranking {got_ranking} != oracle {expected.entries}")
    got_results = {c: (s, n) for c, s, n in result.kv.list_results(result.execution_id)}
    if got_results != aggregates:
        errors.append("per-carrier results table differs from the oracle aggregates")

    completed = {e.state for e in result.trace.events
                 if e.instance_id == "-" and e.outcome == "completed"}
    missing = [s for s in WORKFLOW_STATES if s not in completed]
    if missing:
        errors.append(f"trace lacks completed phases {missing}")
    functions = [r.function for r in result.records]
    if functions.count("ingest") != files:
        errors.append(f"{functions.count('ingest')} ingest invocations for {files} files")
    if functions.count("reduce2") != 1:
        errors.append(f"{functions.count('reduce2')} reduce2 invocations")
    return errors


def check_same_digests(first: dict[str, str], other: dict[str, str]) -> list[str]:
    return [f"{name} digest {other[name][:12]} != first job's {first[name][:12]}"
            for name in DIGESTED if other[name] != first[name]]
