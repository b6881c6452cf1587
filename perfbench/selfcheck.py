#!/usr/bin/env python3
"""Self-checks for the benchmark, kept apart from the test suite.

Runs each workload at reduced size and shows that its checks pass on the
real outputs and fail on wrong ones: two ranking entries swapped, one
dead-lettered record left out of the oracle, one job's trace altered.  It
also shows that tracing leaves the outputs unchanged and that the traced
counts repeat exactly.

Usage (from the repository root): python3 perfbench/selfcheck.py
Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from tracer import Tracer

# Reduced sizes: enough rows per file that the throttled KV shuffle still
# dead-letters some batches, so the DLQ oracle has something to subtract.
REDUCED_ROWS = {"kv-throttled": 5_000, "object-shuffled": 2_000, "anchor-ingest": 20_000}
SEED = 11


class Report:
    def __init__(self) -> None:
        self.bad = 0

    def expect(self, label: str, errors: list[str], should_fail: bool) -> None:
        ok = bool(errors) == should_fail
        self.bad += not ok
        verdict = "ok  " if ok else "BAD "
        detail = f" ({errors[0][:90]})" if errors else ""
        print(f"{verdict} {label}: {'caught' if errors else 'passes'}{detail}")


def swapped_ranking(exports: dict[str, str]) -> dict[str, str]:
    doc = json.loads(exports["ranking.json"])
    doc[0], doc[1] = doc[1], doc[0]
    return dict(exports, **{"ranking.json": json.dumps(doc, indent=2) + "\n"})


def dlq_missing_one_record(bodies: list[str]) -> list[str]:
    first = json.loads(bodies[0])
    first["records"] = first["records"][1:]
    return [json.dumps(first)] + bodies[1:]


def check_workload(name: str, report: Report) -> None:
    workload = wl.WORKLOADS[name]
    spec, scenario = workload.build(SEED, REDUCED_ROWS[name])
    raw, ledger = wl.setup(spec)
    first, exports = wl.run_and_render(scenario, raw)
    report.expect(f"{name}: job 1 against the oracle",
                  wl.check_job(workload, first, exports, ledger, spec.files), False)
    second, exports2 = wl.run_and_render(scenario, raw)
    report.expect(f"{name}: job 2 against the oracle",
                  wl.check_job(workload, second, exports2, ledger, spec.files), False)
    base = wl.digests(exports)
    report.expect(f"{name}: job 2 digests match job 1",
                  wl.check_same_digests(base, wl.digests(exports2)), False)

    report.expect(f"{name}: two ranking entries swapped",
                  wl.check_job(workload, first, swapped_ranking(exports), ledger,
                               spec.files), True)
    if workload.dlq_allowed:
        bodies = first.queue.dlq_bodies
        if not bodies:
            report.expect(f"{name}: reduced run dead-letters a batch", ["DLQ empty"], False)
        else:
            report.expect(f"{name}: one dead-lettered record left out of the oracle",
                          wl.check_job(workload, first, exports, ledger, spec.files,
                                       dlq_bodies=dlq_missing_one_record(bodies)), True)
    second.trace.events[-1].duration_ms += 1.0
    report.expect(f"{name}: one job's trace altered",
                  wl.check_same_digests(base, wl.digests(wl.render_exports(second))), True)

    layer_runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(), tracer.span("job"):
            traced, traced_exports = wl.run_and_render(scenario, raw, tracer)
        report.expect(f"{name}: traced job digests match untraced",
                      wl.check_same_digests(base, wl.digests(traced_exports)), False)
        layer_runs.append(tracer.layer_metrics())
    count_errors = [
        f"{metric} {layer_runs[0][metric]} != {layer_runs[1][metric]}"
        for metric in ("sim.wakeups", "queue.receive_calls", "object.get_calls",
                       "object.keys_listed", "kv.calls")
        if layer_runs[0][metric] != layer_runs[1][metric]
    ]
    report.expect(f"{name}: traced counts repeat", count_errors, False)


def main() -> int:
    report = Report()
    for name in wl.WORKLOADS:
        check_workload(name, report)
    print("all self-checks behave" if not report.bad else f"{report.bad} self-check(s) BAD")
    return 1 if report.bad else 0


if __name__ == "__main__":
    sys.exit(main())
