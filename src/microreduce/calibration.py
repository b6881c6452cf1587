"""Virtual-time cost model: latency table, work rates, and the fitted
parallel-efficiency constants.

The ingest model is anchored to three measured single-file durations
(one ~135 MB file, 436,950 rows): 92.2 s with 1 worker, 63.1 s with 2,
54.0 s with 3.  ``fit_ingest_constants`` solves the per-row work rate and
the Amdahl parallel fraction from those anchors in closed form; the
defaults below are the solved values.  Everything here can be overridden
via a ``key=value`` calibration file.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

# Anchor workload: rows, bytes, and wall seconds by worker count.
ANCHOR_ROWS = 436_950
ANCHOR_FILE_BYTES = 135_004_546  # ~135.0 MB, ~309 bytes per row
ANCHOR_INGEST_MS = {1: 92_200.0, 2: 63_100.0, 3: 54_000.0}
ANCHOR_BATCH_SIZE = 100

# vCPU model anchor points: (memory MB, vCPUs).  Linear between anchors,
# last slope continues upward, values round half-up and never drop below 1.
_VCPU_ANCHORS = ((0, 0.0), (1024, 2.0), (2048, 2.0), (3072, 3.0))


def vcpus(memory_mb: int) -> int:
    if not 128 <= memory_mb <= 10_240:
        raise ValueError(f"memory_mb {memory_mb} outside [128, 10240]")
    xs = _VCPU_ANCHORS
    for (x0, y0), (x1, y1) in zip(xs, xs[1:]):
        if memory_mb <= x1:
            frac = (memory_mb - x0) / (x1 - x0)
            value = y0 + frac * (y1 - y0)
            break
    else:
        (x0, y0), (x1, y1) = xs[-2], xs[-1]
        slope = (y1 - y0) / (x1 - x0)
        value = y1 + (memory_mb - x1) * slope
    return max(1, math.floor(value + 0.5))


def effective_parallelism(workers: int, vcpu_count: int, parallel_fraction: float) -> float:
    """Amdahl-style speedup; doubling workers never doubles throughput."""
    m = max(1, min(workers, vcpu_count))
    return 1.0 / ((1.0 - parallel_fraction) + parallel_fraction / m)


@dataclass(frozen=True)
class CalibrationTable:
    """Virtual-time constants, loadable from a key=value file.

    Three constants still live outside this table, so a calibration file
    cannot change them:

    - the 60,000 ms scaling period of ``runtime.QueueSource._manager``;
    - the 1,000 ms retry backoff of ``workflow._task_with_retries``;
    - the 900,000 ms default ``FunctionConfig.timeout_ms``
      (``runtime.MAX_TIMEOUT_MS``, also its upper bound).
    """

    # work rates (units are milliseconds of single-lane compute)
    base_rate_units_per_ms: float = 1.0
    amdahl_parallel_fraction: float = 0.0  # solved below
    ingest_row_units: float = 0.0          # solved below
    ingest_batch_units: float = 1.0
    map_row_units: float = 0.20
    map_batch_units: float = 2.0
    reduce_merge_units_per_entry: float = 0.02
    rank_base_units: float = 40.0
    rank_per_carrier_units: float = 0.5

    # storage latency table (per-op base + per-KB)
    object_get_base_ms: float = 15.0
    object_get_per_kb_ms: float = 0.036
    object_put_base_ms: float = 2.0
    object_put_per_kb_ms: float = 0.05
    object_list_base_ms: float = 5.0
    object_list_per_key_ms: float = 0.05
    kv_put_ms: float = 2.0
    kv_query_base_ms: float = 3.0
    kv_query_per_item_ms: float = 1.0
    counter_add_ms: float = 2.0
    counter_get_ms: float = 2.0
    queue_send_ms: float = 0.2
    queue_receive_ms: float = 1.0
    queue_delete_ms: float = 0.5

    # cold starts and scheduling
    init_ms_mean: float = 850.0
    init_ms_sigma: float = 40.0
    warm_pool_idle_ms: float = 600_000.0
    consumer_poll_interval_ms: float = 200.0
    map_retry_backoff_ms: float = 50.0
    workflow_transition_ms: float = 80.0

    def object_get_ms(self, nbytes: int) -> float:
        return self.object_get_base_ms + (nbytes / 1024.0) * self.object_get_per_kb_ms

    def object_put_ms(self, nbytes: int) -> float:
        return self.object_put_base_ms + (nbytes / 1024.0) * self.object_put_per_kb_ms

    def object_list_ms(self, n_keys: int) -> float:
        return self.object_list_base_ms + n_keys * self.object_list_per_key_ms

    def kv_query_ms(self, n_items: int) -> float:
        return self.kv_query_base_ms + n_items * self.kv_query_per_item_ms

    def work_ms(self, units: float, workers: int, vcpu_count: int) -> float:
        """Elapsed virtual ms for ``units`` of compute on a worker pool."""
        if units < 0:
            raise ValueError("units must be non-negative")
        eff = effective_parallelism(workers, vcpu_count, self.amdahl_parallel_fraction)
        return units / (self.base_rate_units_per_ms * eff)

    # -- serialization ---------------------------------------------------

    def save(self, path: Path | str) -> None:
        lines = [
            f"{f.name}={getattr(self, f.name)!r}" for f in dataclasses.fields(self)
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: Path | str, base: "CalibrationTable | None" = None) -> "CalibrationTable":
        values: dict[str, float] = {}
        known = {f.name for f in dataclasses.fields(CalibrationTable)}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"line {lineno}: unknown calibration key {key!r}")
            values[key] = float(raw.strip())
        return dataclasses.replace(base or CalibrationTable(), **values)


def fit_ingest_constants(table: CalibrationTable) -> tuple[float, float]:
    """Solve (ingest_row_units, amdahl_parallel_fraction) from the anchors.

    The single-worker anchor pins the total parallelizable work W; the two
    multi-worker anchors overdetermine the parallel fraction, which is
    taken as the least-squares solution.
    """
    batches = math.ceil(ANCHOR_ROWS / ANCHOR_BATCH_SIZE)
    fixed = (
        table.object_get_ms(ANCHOR_FILE_BYTES)
        + batches * table.queue_send_ms
        + table.counter_add_ms
    )
    work_total = ANCHOR_INGEST_MS[1] - fixed
    # T(m) = fixed + W*(1 - p + p/m)  =>  W*p*(1 - 1/m) = T(1) - T(m)
    lhs = []
    rhs = []
    for m in (2, 3):
        lhs.append(1.0 - 1.0 / m)
        rhs.append(ANCHOR_INGEST_MS[1] - ANCHOR_INGEST_MS[m])
    wp = sum(l * r for l, r in zip(lhs, rhs)) / sum(l * l for l in lhs)
    parallel_fraction = wp / work_total
    row_units = (work_total - batches * table.ingest_batch_units) / ANCHOR_ROWS
    return row_units, parallel_fraction


def _solved_defaults() -> CalibrationTable:
    base = CalibrationTable()
    row_units, p = fit_ingest_constants(base)
    return dataclasses.replace(
        base, ingest_row_units=row_units, amdahl_parallel_fraction=p
    )


DEFAULT_CALIBRATION = _solved_defaults()
