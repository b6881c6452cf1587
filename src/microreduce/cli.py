"""Operator entry point: generate data, run scenarios, emit reports.

The CLI is a thin shell over the library; every run writes its effective
configuration next to its outputs so any result can be reproduced
byte-for-byte from the recorded seed and settings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

import click

from .calibration import DEFAULT_CALIBRATION, CalibrationTable
from .data import GenSpec, generate_dataset
from .report import (
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
from .runtime import load_ledger_csv, render_ledger_csv
from .scenarios import ScenarioConfig, preset
from .sim import ClockStalled
from .storage import ObjectStore
from .workflow import (
    ExecutionTrace,
    IncompleteTraceError,
    JobResult,
    phase_breakdown,
    run_job,
)

EXIT_OK = 0
EXIT_STALLED = 2
EXIT_FAILED = 3

DEFAULT_PRICE_PER_GB_S = 1.6667e-05
DEFAULT_REQUEST_PRICE = 2e-07


@click.group()
def main() -> None:
    """Simulated serverless micro-batch MapReduce."""


@main.command("gen-data")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def gen_data(spec_path: str, out_dir: str) -> None:
    """Generate a synthetic airline dataset plus its exact ledger."""
    try:
        spec = GenSpec.from_dict(json.loads(Path(spec_path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(f"bad generator spec: {exc}")
    ledger = generate_dataset(spec, out_dir)
    ledger_path = Path(out_dir) / "ledger.json"
    ledger_path.write_text(ledger.to_json() + "\n", encoding="utf-8")
    click.echo(f"wrote {spec.files} file(s), {ledger.total} rows "
               f"({ledger.invalid} invalid)")
    click.echo(f"ledger: {ledger_path}")


def _resolve_scenario(selector: str, seed: Optional[int]) -> ScenarioConfig:
    if selector.isdigit():
        scenario = preset(int(selector))
    else:
        path = Path(selector)
        if not path.exists():
            raise click.ClickException(f"scenario file not found: {selector}")
        try:
            scenario = ScenarioConfig.from_file(path)
        except (KeyError, TypeError, ValueError) as exc:
            raise click.ClickException(f"bad scenario file: {exc}")
    if seed is not None:
        scenario = scenario.replace(seed=seed)
    return scenario


def _load_raw_store(data_dir: Path) -> ObjectStore:
    store = ObjectStore()
    for path in sorted(data_dir.glob("*.csv")):
        store.put(path.name, path.read_bytes())
    return store


def _write_reports(run_dir: Path, result_records, trace, fmt: str,
                   price_per_gb_s: float, request_price: float) -> list[Path]:
    reports = run_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    written = []
    renders = {}
    if result_records:
        renders["kpi"] = (render_kpi_text, render_kpi_csv, kpi_table(result_records))
        renders["cost"] = (render_cost_text, render_cost_csv,
                           cost_report(result_records, price_per_gb_s, request_price))
    try:
        renders["phases"] = (render_phase_text, render_phase_csv, phase_breakdown(trace))
    except IncompleteTraceError:
        # stalled/failed runs have no complete phase set to report
        pass
    for stem, (text_fn, csv_fn, payload) in renders.items():
        if fmt in ("text", "both"):
            path = reports / f"{stem}.txt"
            path.write_text(text_fn(payload), encoding="utf-8")
            written.append(path)
        if fmt in ("csv", "both"):
            path = reports / f"{stem}.csv"
            path.write_text(csv_fn(payload), encoding="utf-8")
            written.append(path)
    return written


@main.command("run")
@click.option("--scenario", "selector", required=True,
              help="Preset number 1..6 or a scenario JSON file.")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--files", type=int, default=None, help="Override the scenario file count.")
@click.option("--shuffle", type=click.Choice(["object", "kv"]), default=None,
              help="Override the shuffle backend.")
@click.option("--batch-size", type=int, default=None)
@click.option("--override-gate", is_flag=True,
              help="Let a stalled gate pass with whatever mapped data exists.")
@click.option("--calibration", "calibration_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="key=value calibration table overriding the defaults.")
@click.option("--dump-shuffle", is_flag=True, help="Mirror shuffle objects to disk.")
@click.option("--price-per-gb-s", type=float, default=DEFAULT_PRICE_PER_GB_S, show_default=True)
@click.option("--request-price", type=float, default=DEFAULT_REQUEST_PRICE, show_default=True)
def run(selector: str, data_dir: str, out_dir: str, seed: Optional[int],
        files: Optional[int], shuffle: Optional[str], batch_size: Optional[int],
        override_gate: bool, calibration_path: Optional[str], dump_shuffle: bool,
        price_per_gb_s: float, request_price: float) -> None:
    """Run one job and write ranking, trace, ledger, and reports."""
    scenario = _resolve_scenario(selector, seed)
    if files is not None:
        scenario = scenario.replace(files=files)
    if shuffle is not None:
        scenario = scenario.replace(shuffle_system=shuffle)
    if batch_size is not None:
        scenario = scenario.replace(batch_size=batch_size)
    if override_gate:
        scenario = scenario.replace(override_gate=True)

    cal = DEFAULT_CALIBRATION
    if calibration_path is not None:
        try:
            cal = CalibrationTable.load(calibration_path, base=cal)
        except ValueError as exc:
            raise click.ClickException(f"bad calibration file: {exc}")

    raw = _load_raw_store(Path(data_dir))
    try:
        result = run_job(scenario, raw, cal=cal)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    except ClockStalled as exc:
        raise click.ClickException(f"run stalled: {exc}")

    run_dir = Path(out_dir) / result.execution_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _export_run(run_dir, result, data_dir, price_per_gb_s, request_price)
    if dump_shuffle:
        result.objects.dump_to_dir(run_dir / "shuffle")
    _write_reports(run_dir, result.records, result.trace, "both",
                   price_per_gb_s, request_price)

    click.echo(f"execution: {result.execution_id}")
    click.echo(f"status: {result.status}")
    if result.dlq_batches:
        click.echo(f"dead-letter queue: {result.dlq_batches} batch(es), "
                   f"{result.dlq_rows} record(s) lost")
    if result.gate is not None and result.gate.overridden:
        click.echo("warning: gate passed by override; results exclude lost records")
    if result.status == "completed":
        click.echo(f"outputs: {run_dir}")
        sys.exit(EXIT_OK)
    elif result.status == "stalled":
        click.echo(f"error: {result.reason}", err=True)
        click.echo("rerun with --override-gate to force the reduce phase", err=True)
        sys.exit(EXIT_STALLED)
    else:
        click.echo(f"error: {result.reason}", err=True)
        sys.exit(EXIT_FAILED)


def _export_run(run_dir: Path, result: JobResult, data_dir: str,
                price_per_gb_s: float, request_price: float) -> None:
    if result.ranking_doc is not None:
        (run_dir / "ranking.json").write_text(
            json.dumps(result.ranking_doc, indent=2) + "\n", encoding="utf-8"
        )
    (run_dir / "trace.csv").write_text(result.trace.to_csv(), encoding="utf-8")
    (run_dir / "ledger.csv").write_text(render_ledger_csv(result.records), encoding="utf-8")
    (run_dir / "counters.json").write_text(
        json.dumps(
            {"id": result.execution_id, "ingested": result.ingested,
             "mapped": result.mapped},
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    gate_doc = None
    if result.gate is not None:
        gate_doc = {
            "attempts": result.gate.attempts,
            "ingested": result.gate.ingested,
            "mapped": result.gate.mapped,
            "overridden": result.gate.overridden,
            "passes": result.gate.passes,
        }
    (run_dir / "gate.json").write_text(json.dumps(gate_doc, indent=2) + "\n",
                                       encoding="utf-8")
    (run_dir / "dlq.json").write_text(
        json.dumps({"batches": result.dlq_batches, "rows": result.dlq_rows}, indent=2)
        + "\n",
        encoding="utf-8",
    )
    (run_dir / "concurrency.csv").write_text(
        render_concurrency_csv(concurrency_series(result.records)), encoding="utf-8"
    )
    effective = {
        "scenario": result.scenario.to_dict(),
        "data_dir": str(data_dir),
        "status": result.status,
        "price_per_gb_s": price_per_gb_s,
        "request_price": request_price,
    }
    (run_dir / "config.json").write_text(
        json.dumps(effective, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@main.command("report")
@click.option("--exec", "execution_id", required=True)
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text",
              show_default=True)
@click.option("--price-per-gb-s", type=float, default=DEFAULT_PRICE_PER_GB_S, show_default=True)
@click.option("--request-price", type=float, default=DEFAULT_REQUEST_PRICE, show_default=True)
def report(execution_id: str, out_dir: str, fmt: str,
           price_per_gb_s: float, request_price: float) -> None:
    """Rebuild KPI, phase, and cost reports for a recorded execution."""
    run_dir = Path(out_dir) / execution_id
    trace_path = run_dir / "trace.csv"
    ledger_path = run_dir / "ledger.csv"
    if not trace_path.exists() or not ledger_path.exists():
        raise click.ClickException(f"unknown execution id {execution_id!r} under {out_dir}")
    records = load_ledger_csv(ledger_path)
    trace = ExecutionTrace.from_csv(execution_id, trace_path.read_text(encoding="utf-8"))
    written = _write_reports(run_dir, records, trace, fmt, price_per_gb_s, request_price)
    for path in written:
        click.echo(str(path))


if __name__ == "__main__":
    main()
