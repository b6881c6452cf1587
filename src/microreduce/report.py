"""KPI aggregation over invocation ledgers and traces, plus the cost report.

Rates are configuration, never baked-in truth; every report echoes the
rates it was computed with.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .runtime import InvocationRecord
from .workflow import PHASE_NAMES, PhaseBreakdown

KPI_COLUMNS = ("Function", "Total Count", "Init Count", "Avg Init (ms)",
               "Avg Duration (ms)", "% Init")

_FUNCTION_ORDER = {"ingest": 0, "map": 1, "reduce1": 2, "reduce2": 3}


def _by_function(
    records: Sequence[InvocationRecord],
) -> list[tuple[str, list[InvocationRecord]]]:
    """Records grouped by function, in pipeline-stage order."""
    grouped: dict[str, list[InvocationRecord]] = {}
    for r in records:
        grouped.setdefault(r.function, []).append(r)
    names = sorted(grouped, key=lambda n: (_FUNCTION_ORDER.get(n, 99), n))
    return [(name, grouped[name]) for name in names]


@dataclass(frozen=True, slots=True)
class FunctionKpi:
    function: str
    total_count: int
    init_count: int
    avg_init_ms: float
    avg_duration_ms: float

    @property
    def pct_init(self) -> float:
        return self.init_count / self.total_count * 100.0


def kpi_table(records: Sequence[InvocationRecord]) -> list[FunctionKpi]:
    """Per-function invocation statistics, row order fixed by pipeline stage."""
    if not records:
        raise ValueError("empty invocation ledger")
    out = []
    for name, rows in _by_function(records):
        cold = [r for r in rows if r.cold_start]
        out.append(
            FunctionKpi(
                function=name,
                total_count=len(rows),
                init_count=len(cold),
                avg_init_ms=(sum(r.init_ms for r in cold) / len(cold)) if cold else 0.0,
                avg_duration_ms=sum(r.duration_ms for r in rows) / len(rows),
            )
        )
    return out


def concurrency_series(records: Sequence[InvocationRecord]) -> list[tuple[int, float]]:
    """Active invocations per virtual second, as exact per-second overlap.

    The value at second ``s`` is the fraction of that second covered by
    running handlers, summed over invocations, so the series integrates to
    the summed durations exactly.
    """
    spans = [(r.start_ms, r.start_ms + r.duration_ms) for r in records]
    if not spans:
        return []
    horizon = max(end for _, end in spans)
    n_seconds = int(horizon // 1000) + 1
    active = [0.0] * n_seconds
    for start, end in spans:
        first = int(start // 1000)
        last = int(end // 1000) if end > start else first
        for s in range(first, min(last, n_seconds - 1) + 1):
            lo = max(start, s * 1000.0)
            hi = min(end, (s + 1) * 1000.0)
            if hi > lo:
                active[s] += (hi - lo) / 1000.0
    return list(enumerate(active))


@dataclass(frozen=True, slots=True)
class CostLine:
    function: str
    invocations: int
    billed_gb_s: float
    compute_cost: float
    request_cost: float


@dataclass(frozen=True, slots=True)
class CostReport:
    lines: tuple[CostLine, ...]
    price_per_gb_s: float
    request_price: float

    @property
    def total(self) -> float:
        return sum(line.compute_cost + line.request_cost for line in self.lines)


def cost_report(records: Sequence[InvocationRecord], price_per_gb_s: float,
                request_price: float) -> CostReport:
    if price_per_gb_s < 0 or request_price < 0:
        raise ValueError("rates must be non-negative")
    lines = []
    for name, rows in _by_function(records):
        gb_s = sum(r.billed_gb_ms for r in rows) / 1000.0
        lines.append(
            CostLine(
                function=name,
                invocations=len(rows),
                billed_gb_s=gb_s,
                compute_cost=gb_s * price_per_gb_s,
                request_cost=len(rows) * request_price,
            )
        )
    return CostReport(lines=tuple(lines), price_per_gb_s=price_per_gb_s,
                      request_price=request_price)


# -- rendering --------------------------------------------------------------


def _align(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ) + "\n"


def render_kpi_text(kpis: Iterable[FunctionKpi]) -> str:
    rows = [list(KPI_COLUMNS)]
    for k in kpis:
        rows.append([
            k.function, str(k.total_count), str(k.init_count),
            f"{k.avg_init_ms:.0f}", f"{k.avg_duration_ms:.0f}", f"{k.pct_init:.2f}",
        ])
    return _align(rows)


def render_kpi_csv(kpis: Iterable[FunctionKpi]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(KPI_COLUMNS)
    for k in kpis:
        writer.writerow([
            k.function, k.total_count, k.init_count,
            f"{k.avg_init_ms:.3f}", f"{k.avg_duration_ms:.3f}", f"{k.pct_init:.2f}",
        ])
    return buf.getvalue()


def _phase_headers(unit: str) -> list[str]:
    return [f"{name} ({unit})" for name in (*PHASE_NAMES, "Overhead")]


def render_phase_text(breakdown: PhaseBreakdown) -> str:
    headers = _phase_headers("s") + ["Total (s)"]
    values = [f"{breakdown.seconds[p]:.2f}" for p in (*PHASE_NAMES, "Overhead", "Total")]
    pct_headers = _phase_headers("%")
    pct_values = [f"{breakdown.percentages[p]:.1f}" for p in (*PHASE_NAMES, "Overhead")]
    return _align([headers, values]) + "\n" + _align([pct_headers, pct_values])


def render_phase_csv(breakdown: PhaseBreakdown) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_phase_headers("s") + ["Total (s)"])
    writer.writerow(
        [f"{breakdown.seconds[p]:.3f}" for p in (*PHASE_NAMES, "Overhead", "Total")]
    )
    writer.writerow(_phase_headers("%"))
    writer.writerow([f"{breakdown.percentages[p]:.2f}" for p in (*PHASE_NAMES, "Overhead")])
    return buf.getvalue()


def render_cost_text(report: CostReport) -> str:
    rows = [["Function", "Invocations", "Billed GB-s", "Compute", "Requests"]]
    for line in report.lines:
        rows.append([
            line.function, str(line.invocations), f"{line.billed_gb_s:.3f}",
            f"{line.compute_cost:.6f}", f"{line.request_cost:.6f}",
        ])
    table = _align(rows)
    return (
        table
        + f"\nrates: {report.price_per_gb_s} per GB-s, {report.request_price} per request"
        + f"\ntotal: {report.total:.6f}\n"
    )


def render_cost_csv(report: CostReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Function", "Invocations", "Billed GB-s", "Compute", "Requests"])
    for line in report.lines:
        writer.writerow([
            line.function, line.invocations, f"{line.billed_gb_s:.6f}",
            f"{line.compute_cost:.8f}", f"{line.request_cost:.8f}",
        ])
    writer.writerow(["total", "", "", f"{report.total:.8f}", ""])
    writer.writerow(["price_per_gb_s", report.price_per_gb_s, "", "", ""])
    writer.writerow(["request_price", report.request_price, "", "", ""])
    return buf.getvalue()


def render_concurrency_csv(series: list[tuple[int, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["second", "active"])
    for second, active in series:
        writer.writerow([second, f"{active:.6f}"])
    return buf.getvalue()
