"""Layer timers for the traced run, installed from outside the program.

``Tracer.installed()`` swaps the public callables of each module for thin
wrappers, and puts the originals back on exit; nothing under ``src/``
changes.  Each wrapped call is a span on one stack.  A layer's self time is
the CPU time of its spans minus the part their child spans cover, so the
self times of all layers add up to the traced job.

Layers and what they wrap:

- ``sim``: ``Simulator.run``; its self time is the pump plus the runtime
  glue (consumer loops, invocation bookkeeping) no other layer claims.
  Wakeups count ``Simulator._resume`` calls, one per process resumption.
- ``queue`` / ``object`` / ``kv``: the public methods of
  ``storage.MessageQueue``, ``storage.ObjectStore`` and ``storage.KvStore``.
- ``data``: ``parse_csv``, plus the CSV reader rows that ``scan_rows``
  pulls (timed in chunks, so the reader counts as parse, not as scan).
- ``kernels.scan`` / ``kernels.group``: ``scan_rows`` and ``group_rows``.
- ``pipeline.ingest`` / ``pipeline.map`` / ``pipeline.reduce``: the
  handler generators, timed per resume, so their self time excludes the
  storage, parse and kernel calls made inside them.
- ``report``: the export render, opened by the caller with ``span``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import islice

from microreduce import data, kernels, pipeline, sim, storage, workflow

CLOCK = time.thread_time  # CPU seconds of the (single) engine thread
ROW_CHUNK = 1024

_STORE_METHODS = (
    (storage.MessageQueue, "queue",
     ("send", "receive", "delete", "visible_count", "in_flight_count", "dlq_count")),
    (storage.ObjectStore, "object", ("put", "get", "delete", "list", "size")),
    (storage.KvStore, "kv",
     ("put_item", "get_item", "delete_item", "query_lsi", "scan",
      "counter_add", "counter_get", "put_result", "list_results")),
)

_HANDLERS = (
    ("ingest_handler", "pipeline.ingest"),
    ("map_handler", "pipeline.map"),
    ("reduce_aggregate_handler", "pipeline.reduce"),
    ("reduce_rank_handler", "pipeline.reduce"),
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []  # [start, child seconds]

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list[float]:
        frame = [CLOCK(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list[float]) -> None:
        self._stack.pop()
        elapsed = CLOCK() - frame[0]
        self.self_s[layer] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, layer: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(layer, frame)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer: str, op: str, fn, tally=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[op] += 1
            frame = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(layer, frame)
            if tally is not None:
                counts[tally] += len(out)
            return out

        return wrapper

    def _timed_generator(self, layer: str, fn):
        """Wrap a generator function so each resume of it is one span."""

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value, error = None, None
            while True:
                frame = self._enter()
                try:
                    item = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._exit(layer, frame)
                try:
                    value, error = (yield item), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # handed on into the handler
                    value, error = None, exc

        return wrapper

    def _timed_rows(self, rows):
        """Pull CSV rows in chunks, timing each pull as parse."""
        it = iter(rows)
        while True:
            frame = self._enter()
            try:
                chunk = list(islice(it, ROW_CHUNK))
            finally:
                self._exit("data", frame)
            if not chunk:
                return
            yield from chunk

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        patches: list[tuple[object, str, object]] = []

        def patch(owner, name, replacement):
            patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, replacement)

        for cls, layer, names in _STORE_METHODS:
            for name in names:
                tally = {"receive": "queue.delivered", "list": "object.keys_listed"}.get(name)
                patch(cls, name, self._timed(layer, f"{layer}.{name}",
                                             getattr(cls, name), tally))
        for name, layer in _HANDLERS:
            patch(workflow, name, self._timed_generator(layer, getattr(workflow, name)))

        parse = self._timed("data", "data.parse_csv", data.parse_csv)
        patch(data, "parse_csv", parse)
        patch(pipeline, "parse_csv", parse)
        scan = kernels.scan_rows
        timed_scan = self._timed("kernels.scan", "kernels.scan_rows", scan)
        patch(kernels, "scan_rows",
              lambda rows, *idx: timed_scan(self._timed_rows(rows), *idx))
        patch(kernels, "group_rows",
              self._timed("kernels.group", "kernels.group_rows", kernels.group_rows))

        patch(sim.Simulator, "run", self._timed("sim", "sim.run", sim.Simulator.run))
        resume = sim.Simulator._resume
        counts = self.counts

        def counted_resume(simulator, proc, value):
            counts["sim.wakeups"] += 1
            return resume(simulator, proc, value)

        patch(sim.Simulator, "_resume", counted_resume)
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced job, by BENCHMARK.json name."""
        s, n = self.self_s, self.counts
        kv_calls = sum(v for k, v in n.items() if k.startswith("kv."))
        return {
            "sim.wakeups": n["sim.wakeups"],
            "sim.self_s": s["sim"],
            "queue.receive_calls": n["queue.receive"],
            "queue.receives_per_delivery": n["queue.receive"] / max(1, n["queue.delivered"]),
            "queue.s": s["queue"],
            "object.get_calls": n["object.get"],
            "object.keys_listed": n["object.keys_listed"],
            "object.s": s["object"],
            "kv.calls": kv_calls,
            "kv.s": s["kv"],
            "data.parse_s": s["data"],
            "kernels.scan_s": s["kernels.scan"],
            "kernels.group_s": s["kernels.group"],
            "pipeline.ingest_s": s["pipeline.ingest"],
            "pipeline.map_s": s["pipeline.map"],
            "pipeline.reduce_s": s["pipeline.reduce"],
            "report.export_s": s["report"],
        }
