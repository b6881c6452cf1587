"""Airline on-time CSV parsing and the seeded synthetic dataset generator.

The generator records an exact per-carrier ledger (delay sums and counts)
while it writes, so end-to-end results can be checked against the ledger
in O(1) instead of re-scanning the input.

Both directions stream.  The parser feeds ``csv.reader`` one line at a
time, from 64k-character blocks of the decoded text, so parsing a body
holds the body, its decoded text and the parsed columns: about 1.25
times the body on top of it, for anchor-shaped rows.  The generator
encodes rows into a ``BytesIO`` a chunk at a time, so it peaks near 1.25
times the body it returns; only ``row_order="shuffled"`` holds every row
string at once, because it must shuffle them.

Parse has one line model: a line ends at ``\n`` and nowhere else.  If
``csv.reader`` raises (a field over ``csv.field_size_limit()``, or a bare
``\r`` inside an unquoted field), parse resumes over the same lines at
the first record the reader did not yield, and splits each remaining
line at ``,`` after stripping its trailing ``\r``/``\n`` characters.  So
a row reads the same whatever an earlier line held, and parse still
holds about 1.25 times the body after a reader error.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from random import Random
from typing import Optional, Sequence

from . import kernels
from .core import RankingResult, CarrierAggregate, rank_carriers

REQUIRED_COLUMNS = ("UniqueCarrier", "ArrDelay", "Cancelled")

# Classic 29-column on-time reporting header; three are required, the rest
# ride along untouched.
CSV_HEADER = (
    "Year,Month,DayofMonth,DayOfWeek,DepTime,CRSDepTime,ArrTime,CRSArrTime,"
    "UniqueCarrier,FlightNum,TailNum,ActualElapsedTime,CRSElapsedTime,AirTime,"
    "ArrDelay,DepDelay,Origin,Dest,Distance,TaxiIn,TaxiOut,Cancelled,"
    "CancellationCode,Diverted,CarrierDelay,WeatherDelay,NASDelay,"
    "SecurityDelay,LateAircraftDelay"
)


class MissingColumnError(ValueError):
    """A required header column could not be resolved."""


@dataclass(frozen=True, slots=True)
class CsvSchema:
    carrier_idx: int
    delay_idx: int
    cancelled_idx: int
    columns: tuple[str, ...]


def resolve_schema(header: Sequence[str]) -> CsvSchema:
    cols = [c.strip() for c in header]
    try:
        return CsvSchema(
            carrier_idx=cols.index("UniqueCarrier"),
            delay_idx=cols.index("ArrDelay"),
            cancelled_idx=cols.index("Cancelled"),
            columns=tuple(cols),
        )
    except ValueError as exc:
        missing = [c for c in REQUIRED_COLUMNS if c not in cols]
        raise MissingColumnError(f"missing required column(s): {missing}") from exc


@dataclass(frozen=True, slots=True)
class ParseStats:
    total_rows: int
    valid_rows: int
    invalid_rows: int


@dataclass(frozen=True, slots=True)
class ParsedFile:
    """Valid rows as aligned carrier/delay arrays plus row accounting."""

    carriers: list[str]
    delays: list[int]
    stats: ParseStats


#: Characters per ``StringIO`` in ``_lines``: its buffer, at 4 bytes per
#: character, stays near 256 kB, while its C line iteration still does the
#: per-line work.
_BLOCK_CHARS = 1 << 16


def _lines(text: str):
    """Yield the lines ``io.StringIO(text)`` iterates, without its copy.

    ``StringIO`` splits at ``\\n`` only and keeps it, so blocks cut just
    after a ``\\n`` iterate to the same lines.  One ``StringIO`` per block
    holds a block, not the whole text, at 4 bytes per character.
    """
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start + _BLOCK_CHARS) + 1 or end
        yield from io.StringIO(text[start:stop])
        start = stop


def _iter_rows(text: str):
    reader = csv.reader(_lines(text))
    consumed = 0  # source lines behind the last record yielded
    try:
        for row in reader:
            consumed = reader.line_num
            yield row
    except csv.Error:
        # Fall back to a naive split so hostile bytes still parse totally,
        # resuming over the same lines at the first record the reader did
        # not yield.
        for line in islice(_lines(text), consumed, None):
            yield line.rstrip("\r\n").split(",")


def parse_csv(data: bytes | str) -> ParsedFile:
    """Parse one CSV file body; never raises on malformed rows.

    Rows failing the validity rule (delay blank or non-numeric, cancelled,
    carrier missing) are counted invalid and dropped.  Only a missing
    required header column is an error.
    """
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    rows = _iter_rows(text)
    try:
        header = next(rows)
    except StopIteration:
        raise MissingColumnError("empty file: no header row")
    schema = resolve_schema(header)
    carriers, delays, total, invalid = kernels.scan_rows(
        rows, schema.carrier_idx, schema.delay_idx, schema.cancelled_idx
    )
    stats = ParseStats(total_rows=total, valid_rows=total - invalid, invalid_rows=invalid)
    return ParsedFile(carriers=carriers, delays=delays, stats=stats)


# -- synthetic dataset ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class CarrierProfile:
    code: str
    weight: float
    delay_mean: int
    delay_sigma: int


#: Fourteen carriers with skewed traffic shares; AA dominates and PS is the
#: long tail, mirroring the imbalance real per-carrier volumes show.
DEFAULT_CARRIERS: tuple[CarrierProfile, ...] = (
    CarrierProfile("AA", 0.20, 8, 22),
    CarrierProfile("UA", 0.14, 10, 24),
    CarrierProfile("DL", 0.13, 6, 20),
    CarrierProfile("WN", 0.12, 2, 14),
    CarrierProfile("US", 0.09, 7, 21),
    CarrierProfile("NW", 0.08, 5, 19),
    CarrierProfile("CO", 0.07, 9, 23),
    CarrierProfile("TW", 0.05, 11, 25),
    CarrierProfile("HP", 0.04, 4, 18),
    CarrierProfile("AS", 0.03, 1, 15),
    CarrierProfile("MQ", 0.02, 12, 26),
    CarrierProfile("EV", 0.015, 13, 27),
    CarrierProfile("F9", 0.01, 0, 13),
    CarrierProfile("PS", 0.005, -3, 12),
)


@dataclass(frozen=True, slots=True)
class GenSpec:
    files: int
    rows_per_file: int
    carriers: tuple[CarrierProfile, ...] = DEFAULT_CARRIERS
    invalid_fraction: float = 0.0
    seed: int = 0
    row_order: str = "clustered"  # carrier-blocked like the real files, or "shuffled"
    row_pad_to_bytes: int = 0  # pad rows (via TailNum) up to this width incl. newline

    def __post_init__(self):
        if self.files < 1 or self.rows_per_file < 1:
            raise ValueError("files and rows_per_file must be positive")
        if not 0.0 <= self.invalid_fraction < 1.0:
            raise ValueError("invalid_fraction must be in [0, 1)")
        if self.row_order not in ("clustered", "shuffled"):
            raise ValueError(f"unknown row_order {self.row_order!r}")
        if self.row_pad_to_bytes < 0:
            raise ValueError("row_pad_to_bytes must not be negative")
        for code in (c.code for c in self.carriers):
            # A code is written as one unquoted field and read back stripped.
            if not code or code != code.strip() or any(ch in code for ch in ',"\r\n'):
                raise ValueError(f"carrier code {code!r} does not parse back as itself")
        total_weight = sum(c.weight for c in self.carriers)
        if abs(total_weight - 1.0) > 1e-9:
            raise ValueError(f"carrier weights must sum to 1, got {total_weight}")

    @staticmethod
    def from_dict(raw: dict) -> "GenSpec":
        carriers = tuple(
            CarrierProfile(c["code"], c["weight"], c["delay_mean"], c["delay_sigma"])
            for c in raw["carriers"]
        ) if "carriers" in raw else DEFAULT_CARRIERS
        return GenSpec(
            files=raw["files"],
            rows_per_file=raw["rows_per_file"],
            carriers=carriers,
            invalid_fraction=raw.get("invalid_fraction", 0.0),
            seed=raw.get("seed", 0),
            row_order=raw.get("row_order", "clustered"),
            row_pad_to_bytes=raw.get("row_pad_to_bytes", 0),
        )


def anchor_file_spec(files: int = 1, seed: int = 0) -> GenSpec:
    """Full-scale file(s) matching the reference workload: 436,950 rows at
    ~309 bytes per row, i.e. ~135 MB each."""
    return GenSpec(files=files, rows_per_file=436_950, seed=seed, row_pad_to_bytes=309)


def reference_kv_workload_spec() -> GenSpec:
    """The fixed 12-file desk-scale dataset the key-value shuffle throttle
    is calibrated against (see tools/calibrate_throttle.py)."""
    return GenSpec(files=12, rows_per_file=8_000, invalid_fraction=0.02, seed=606)


@dataclass(slots=True)
class GenLedger:
    """Exact per-carrier truth for a generated dataset."""

    carriers: dict[str, tuple[int, int]] = field(default_factory=dict)  # code -> (sum, count)
    invalid: int = 0
    total: int = 0
    file_names: list[str] = field(default_factory=list)

    def add(self, carrier: str, delay: int) -> None:
        s, c = self.carriers.get(carrier, (0, 0))
        self.carriers[carrier] = (s + delay, c + 1)

    @property
    def valid(self) -> int:
        return self.total - self.invalid

    def aggregates(self) -> list[CarrierAggregate]:
        return [
            CarrierAggregate(carrier=code, delay_sum=s, count=c)
            for code, (s, c) in sorted(self.carriers.items())
            if c > 0
        ]

    def expected_ranking(self, limit: int = 10) -> RankingResult:
        """The independent oracle: rank straight off the generation ledger."""
        return rank_carriers(self.aggregates(), limit=limit)

    def to_json(self) -> str:
        doc: dict = {
            code: {"delay_sum": s, "count": c} for code, (s, c) in sorted(self.carriers.items())
        }
        doc["invalid"] = self.invalid
        doc["total"] = self.total
        return json.dumps(doc, indent=2, sort_keys=False)

    @staticmethod
    def from_json(text: str) -> "GenLedger":
        doc = json.loads(text)
        ledger = GenLedger()
        ledger.invalid = doc.pop("invalid")
        ledger.total = doc.pop("total")
        ledger.carriers = {code: (v["delay_sum"], v["count"]) for code, v in doc.items()}
        return ledger


def _apportion(total: int, weights: Sequence[float]) -> list[int]:
    """Largest-remainder split of ``total`` rows by weight."""
    raw = [total * w for w in weights]
    counts = [int(x) for x in raw]
    leftovers = sorted(
        range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True
    )
    for i in leftovers[: total - sum(counts)]:
        counts[i] += 1
    return counts


_ORIGINS = ("ORD", "DFW", "ATL", "LAX", "PHX", "DEN", "IAH", "MSP", "DTW", "SFO",
            "STL", "EWR", "LAS", "CLT", "SEA")


def _format_row(rng: Random, carrier: str, delay: Optional[int], cancelled: bool,
                pad_to: int = 0) -> str:
    year = rng.randrange(1988, 2009)
    month = rng.randrange(1, 13)
    day = rng.randrange(1, 29)
    dow = rng.randrange(1, 8)
    crs_dep = rng.randrange(500, 2300)
    crs_arr = (crs_dep + rng.randrange(45, 400)) % 2400
    flight_num = rng.randrange(1, 7000)
    tail = f"N{rng.randrange(100, 999)}{carrier[0]}{carrier[-1]}"
    elapsed = rng.randrange(45, 400)
    origin, dest = rng.sample(_ORIGINS, 2)
    distance = rng.randrange(100, 2700)
    dep_delay = rng.randrange(-10, 60)
    if cancelled:
        arr_time = ""
        dep_time = ""
        arr_delay = ""
        air = ""
        cancelled_s, code = "1", "A"
    else:
        dep_time = (crs_dep + dep_delay) % 2400
        arr_delay = "" if delay is None else str(delay)
        arr_time = (crs_arr + (delay or 0)) % 2400
        air = elapsed - rng.randrange(10, 40)
        cancelled_s, code = "0", ""
    row = (
        f"{year},{month},{day},{dow},{dep_time},{crs_dep},{arr_time},{crs_arr},"
        f"{carrier},{flight_num},{tail},{elapsed},{elapsed},{air},"
        f"{arr_delay},{dep_delay},{origin},{dest},{distance},"
        f"{rng.randrange(2, 15)},{rng.randrange(5, 30)},{cancelled_s},"
        f"{code},0,0,0,0,0,0"
    )
    deficit = pad_to - 1 - len(row)  # newline takes one byte
    if deficit > 0:
        row = row.replace(tail, tail + "X" * deficit, 1)
    return row


def _generate_rows(spec: GenSpec, rng: Random, ledger: GenLedger):
    """Yield one file's rows, carrier block by carrier block.

    Each row is in ``ledger`` before it is yielded, so the ledger is whole
    once the last row is out, whether or not the generator is resumed.
    """
    blocks = _apportion(spec.rows_per_file, [c.weight for c in spec.carriers])
    for profile, block in zip(spec.carriers, blocks):
        if block == 0:
            continue
        n_invalid = round(block * spec.invalid_fraction)
        invalid_every = block / n_invalid if n_invalid else 0.0
        next_invalid = invalid_every / 2 if n_invalid else math.inf
        placed_invalid = 0
        for i in range(block):
            if placed_invalid < n_invalid and i >= next_invalid:
                # Alternate the two invalid shapes: blank delay / cancelled.
                cancelled = placed_invalid % 2 == 1
                row = _format_row(rng, profile.code, None, cancelled,
                                  spec.row_pad_to_bytes)
                placed_invalid += 1
                next_invalid += invalid_every
                ledger.invalid += 1
            else:
                delay = round(rng.gauss(profile.delay_mean, profile.delay_sigma))
                delay = max(-60, min(600, delay))
                row = _format_row(rng, profile.code, delay, False,
                                  spec.row_pad_to_bytes)
                ledger.add(profile.code, delay)
            ledger.total += 1
            yield row


#: Rows encoded per write: the body is built a chunk at a time, so
#: generation holds the body plus one chunk, not every row string, their
#: join and its encoding at once.
_CHUNK_ROWS = 2_048


def _generate_file(spec: GenSpec, file_index: int, ledger: GenLedger) -> bytes:
    rng = Random(spec.seed * 1_000_003 + file_index)
    rows = _generate_rows(spec, rng, ledger)
    if spec.row_order == "shuffled":
        rows = list(rows)
        rng.shuffle(rows)
        rows = iter(rows)  # islice over a list would restart at its front
    out = io.BytesIO()
    out.write(CSV_HEADER.encode("utf-8") + b"\n")
    # Bounded by the row count, so a restarting islice repeats rows in the
    # bytes instead of looping forever.
    for _ in range(0, spec.rows_per_file, _CHUNK_ROWS):
        chunk = list(islice(rows, _CHUNK_ROWS))
        chunk.append("")  # each row ends in LF
        out.write("\n".join(chunk).encode("utf-8"))
    return out.getvalue()  # the buffer itself, not a copy


def generate_dataset(spec: GenSpec, sink) -> GenLedger:
    """Write ``spec.files`` CSVs to ``sink`` and return the exact ledger.

    ``sink`` is either an object store (anything with ``put``) or a
    directory path.  Deterministic for a fixed spec.
    """
    ledger = GenLedger()
    out_dir: Optional[Path] = None
    if not hasattr(sink, "put"):
        out_dir = Path(sink)
        out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(spec.files):
        name = f"part-{i:04d}.csv"
        body = _generate_file(spec, i, ledger)
        if out_dir is None:
            sink.put(name, body)
        else:
            (out_dir / name).write_bytes(body)
        ledger.file_names.append(name)
    return ledger
