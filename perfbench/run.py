#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the microreduce engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-throttled [--seed 606] [--seconds 15] [--trace 0|1]

One process, one thread.  A run builds the workload's dataset in memory,
and runs timed jobs (``run_job`` plus the in-memory render of what
``microreduce run`` exports) until they add up to ``--seconds``, at least
three of them.  Every job is checked against an oracle computed apart
from the pipeline.  Host cost is process CPU seconds; wall seconds are
recorded beside them for reference.

``--trace 0`` reports the end-to-end metrics: ``job_cpu_s`` and
``setup_s`` (medians) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, with the tracing overhead.  The last line of standard output is one
JSON object; a fuller record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_JOBS = 3
MIN_TRACED_ROUNDS = 2
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("kv-throttled", "object-shuffled", "anchor-ingest"))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default 606)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measure timed jobs for this long (at least three jobs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Jobs of one workload on one dataset, each checked as it finishes."""

    def __init__(self, wl, workload, seed: int):
        self.wl = wl
        self.workload = workload
        self.spec, self.scenario = workload.build(seed)
        self.raw = self.ledger = None
        self.setup_cpu: list[float] = []
        self.setup_wall: list[float] = []
        self.jobs: list[dict] = []
        self.first_digests: dict[str, str] | None = None
        self.wrong = 0  # completed jobs whose outputs fail a check

    def set_up(self) -> None:
        """Generate the dataset afresh; later jobs run on the new copy."""
        previous = None if self.ledger is None else self.ledger.to_json()
        self.raw = self.ledger = None
        gc.collect()
        c0, w0 = time.process_time(), time.perf_counter()
        self.raw, self.ledger = self.wl.setup(self.spec)
        self.setup_cpu.append(time.process_time() - c0)
        self.setup_wall.append(time.perf_counter() - w0)
        if previous not in (None, self.ledger.to_json()):
            raise RuntimeError("dataset generation is not deterministic")

    def job(self, tracer=None) -> dict:
        gc.collect()
        c0, w0 = time.process_time(), time.perf_counter()
        if tracer is None:
            result, exports = self.wl.run_and_render(self.scenario, self.raw)
        else:
            with tracer.installed(), tracer.span("job"):
                result, exports = self.wl.run_and_render(self.scenario, self.raw, tracer)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        errors = self.wl.check_job(self.workload, result, exports, self.ledger,
                                   self.spec.files)
        digests = self.wl.digests(exports)
        if self.first_digests is None:
            self.first_digests = digests
        else:
            errors += self.wl.check_same_digests(self.first_digests, digests)
        if errors and result.status == "completed":
            self.wrong += 1
        record = {
            "cpu_s": cpu, "wall_s": wall, "traced": tracer is not None,
            "status": result.status, "errors": errors, "digests": digests,
            "dlq_rows": result.dlq_rows, "gate_attempts": result.gate.attempts
            if result.gate is not None else None,
        }
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            record["unclaimed_s"] = tracer.self_s["job"]
        self.jobs.append(record)
        for err in errors:
            print(f"job {len(self.jobs)} FAILED: {err}", file=sys.stderr)
        return record

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j["errors"])


def measure_end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    # Set-ups alternate with the first jobs, so that both sample the whole
    # run rather than one stretch of it; the host's speed drifts over tens
    # of seconds.
    while (len(run.setup_cpu) < run.workload.setup_reps or len(run.jobs) < MIN_JOBS
           or sum(j["wall_s"] for j in run.jobs) < seconds):
        if len(run.setup_cpu) < run.workload.setup_reps and len(run.setup_cpu) <= len(run.jobs):
            run.set_up()
        else:
            run.job()
    cpu = [j["cpu_s"] for j in run.jobs]
    wall = [j["wall_s"] for j in run.jobs]
    print(f"job cpu s {[round(x, 3) for x in cpu]}  wall s {[round(x, 3) for x in wall]}")
    print(f"setup cpu s {[round(x, 3) for x in run.setup_cpu]}  "
          f"wall s {[round(x, 3) for x in run.setup_wall]}")
    print(f"median job wall s {statistics.median(wall):.4f} (reference, not bounded)")
    return {
        "job_cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(run.setup_cpu), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


LAYER_UNITS = {
    "sim.wakeups": "count", "queue.receive_calls": "count",
    "queue.receives_per_delivery": "ratio", "object.get_calls": "count",
    "object.keys_listed": "count", "kv.calls": "count",
}
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit == "count")


def measure_per_layer(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    from tracer import Tracer

    run.set_up()
    run.job()  # warm-up, untraced; checked like every other job
    start = time.perf_counter()
    plain, traced = [], []
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() - start < seconds:
        plain.append(run.job())
        traced.append(run.job(Tracer()))
    layers = [j["layers"] for j in traced]
    for name in COUNT_METRICS:
        if len({layer[name] for layer in layers}) != 1:
            run.wrong += 1
            print(f"count {name} differs between traced jobs: "
                  f"{[layer[name] for layer in layers]}", file=sys.stderr)
    plain_cpu = statistics.median(j["cpu_s"] for j in plain)
    traced_cpu = statistics.median(j["cpu_s"] for j in traced)
    print(f"untraced job cpu s {plain_cpu:.4f}  traced {traced_cpu:.4f}  "
          f"overhead {traced_cpu - plain_cpu:+.4f} s ({traced_cpu / plain_cpu - 1:+.1%})")
    metrics = {
        name: (statistics.median(layer[name] for layer in layers),
               LAYER_UNITS.get(name, "s"))
        for name in layers[0]
    }
    metrics["trace.overhead_s"] = (traced_cpu - plain_cpu, "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6f} {unit}")
    return metrics


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from src/: {exc}", file=sys.stderr)
        return 2
    from microreduce import kernels

    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    run = Run(wl, wl.WORKLOADS[args.workload], seed)
    env = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "kernel_backend": kernels.BACKEND,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(env, sort_keys=True))
    measure = measure_per_layer if args.trace else measure_end_to_end
    metrics = measure(run, args.seconds)

    print(f"digests {json.dumps(run.first_digests, sort_keys=True)}")
    correct = run.wrong == 0
    RESULTS_DIR.mkdir(exist_ok=True)
    record = dict(env, correct=correct, attempted=len(run.jobs), failed=run.failed,
                  digests=run.first_digests,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  setup_cpu_s=run.setup_cpu, setup_wall_s=run.setup_wall,
                  jobs=run.jobs)
    out = RESULTS_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.jobs),
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
