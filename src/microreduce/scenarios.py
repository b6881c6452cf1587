"""Run configuration: shuffle backend, fan-out, per-function memory,
batching, throttling, and seeds.

The six numbered presets mirror the tuned configurations the performance
tables were produced under; preset 6 switches the shuffle store to the
key-value backend with its calibrated write throttle.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .calibration import MAX_MEMORY_MB, MIN_MEMORY_MB, vcpus
from .storage import ThrottlePolicy

# Write throttle for the key-value shuffle preset.  Found by sweeping
# sustained write capacity on the 12-file reference workload until the
# dead-lettered share of records lands in the 5-7% band (see
# tools/calibrate_throttle.py; 9.0 ops/s measured 6.28%).  Keep in sync
# with that sweep.
KV_THROTTLE_SUSTAINED_OPS = 9.0
KV_THROTTLE_BURST = 120.0

_SHUFFLE_ALIASES = {"s3": "object", "object": "object", "dynamodb": "kv", "kv": "kv"}
_INT_FIELDS = ("files", "ingest_threads", "ingest_memory_mb", "map_memory_mb",
               "reduce1_memory_mb", "reduce2_memory_mb", "batch_size", "seed",
               "gate_max_attempts", "max_receives", "ranking_limit")
_REAL_FIELDS = ("map_failure_rate", "object_fault_rate", "gate_poll_ms",
                "visibility_timeout_ms")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "custom"
    shuffle_system: str = "object"  # object | kv
    files: int = 1
    ingest_threads: int = 1
    ingest_memory_mb: int = 2048
    map_memory_mb: int = 128
    reduce1_memory_mb: int = 10240
    reduce2_memory_mb: int = 128
    batch_size: int = 100
    throttle: ThrottlePolicy = field(default_factory=ThrottlePolicy)
    seed: int = 0
    map_failure_rate: float = 0.0
    object_fault_rate: float = 0.0
    gate_poll_ms: float = 1000.0
    gate_max_attempts: int = 300
    override_gate: bool = False
    visibility_timeout_ms: float = 30_000.0
    max_receives: int = 3
    interleave_seed: int | None = None
    ranking_limit: int = 10

    def __post_init__(self):
        if self.shuffle_system not in ("object", "kv"):
            raise ValueError(f"shuffle_system must be object|kv, got {self.shuffle_system!r}")
        ints = _INT_FIELDS if self.interleave_seed is None else _INT_FIELDS + ("interleave_seed",)
        for name in ints:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.override_gate, bool):
            raise TypeError(f"override_gate must be a bool, got {self.override_gate!r}")
        if self.files < 1:
            raise ValueError("files must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.ingest_threads < 1:
            raise ValueError("ingest_threads must be positive")
        for name in ("ingest_memory_mb", "map_memory_mb", "reduce1_memory_mb",
                     "reduce2_memory_mb"):
            if not MIN_MEMORY_MB <= getattr(self, name) <= MAX_MEMORY_MB:
                raise ValueError(
                    f"{name} must be in [{MIN_MEMORY_MB}, {MAX_MEMORY_MB}], "
                    f"got {getattr(self, name)}"
                )
        if self.ingest_threads > vcpus(self.ingest_memory_mb):
            raise ValueError(
                f"ingest_threads {self.ingest_threads} exceeds "
                f"{vcpus(self.ingest_memory_mb)} vCPUs at {self.ingest_memory_mb} MB"
            )
        for name in ("map_failure_rate", "object_fault_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("visibility_timeout_ms", "gate_poll_ms", "gate_max_attempts",
                     "max_receives", "ranking_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # An infinite poll interval parks the gate forever, and the queue
        # scaler's tick keeps the run from ending.  An infinite visibility
        # timeout is allowed: a message is then never redelivered.
        if not math.isfinite(self.gate_poll_ms):
            raise ValueError(f"gate_poll_ms must be finite, got {self.gate_poll_ms}")
        if self.throttle.enabled and not (self.throttle.sustained_ops_per_sec >= 0
                                          and self.throttle.burst_capacity >= 1):
            raise ValueError(
                "an enabled throttle needs sustained_ops_per_sec >= 0 and "
                f"burst_capacity >= 1, got {self.throttle}"
            )

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        doc = dict(doc)
        if "shuffle_system" in doc:
            key = str(doc["shuffle_system"]).lower()
            if key not in _SHUFFLE_ALIASES:
                raise ValueError(f"unknown shuffle_system {doc['shuffle_system']!r}")
            doc["shuffle_system"] = _SHUFFLE_ALIASES[key]
        throttle = doc.pop("throttle", None)
        cfg = ScenarioConfig(**doc)
        if throttle is not None:
            cfg = cfg.replace(throttle=ThrottlePolicy(**throttle))
        return cfg

    @staticmethod
    def from_file(path: Path | str) -> "ScenarioConfig":
        return ScenarioConfig.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _kv_throttle() -> ThrottlePolicy:
    return ThrottlePolicy(
        sustained_ops_per_sec=KV_THROTTLE_SUSTAINED_OPS,
        burst_capacity=KV_THROTTLE_BURST,
        enabled=True,
    )


#: Preset rows: (shuffle, files, threads, ingest/map/reduce1/reduce2 MB)
_PRESET_ROWS = {
    1: ("object", 1, 1, 2048, 128, 10240, 128),
    2: ("object", 1, 2, 2048, 128, 10240, 128),
    3: ("object", 1, 3, 3072, 128, 10240, 128),
    4: ("object", 1, 3, 3072, 1024, 10240, 128),
    5: ("object", 12, 3, 3072, 1024, 10240, 128),
    6: ("kv", 12, 3, 3072, 1024, 10240, 128),
}


def preset(number: int, seed: int = 0) -> ScenarioConfig:
    if number not in _PRESET_ROWS:
        raise ValueError(f"scenario preset must be 1..6, got {number}")
    shuffle, files, threads, ingest_mb, map_mb, r1_mb, r2_mb = _PRESET_ROWS[number]
    throttle = _kv_throttle() if shuffle == "kv" else ThrottlePolicy()
    return ScenarioConfig(
        name=f"scenario-{number}",
        shuffle_system=shuffle,
        files=files,
        ingest_threads=threads,
        ingest_memory_mb=ingest_mb,
        map_memory_mb=map_mb,
        reduce1_memory_mb=r1_mb,
        reduce2_memory_mb=r2_mb,
        throttle=throttle,
        seed=seed,
    )
