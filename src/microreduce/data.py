"""Airline on-time CSV parsing and the seeded synthetic dataset generator.

The generator records an exact per-carrier ledger (delay sums and counts)
while it writes, so end-to-end results can be checked against the ledger
in O(1) instead of re-scanning the input.

Both directions stream.  The parser reads the body one 64k block at a
time, each cut just after a ``\n``, and hands on one block's valid rows
before it cuts the next, so a reader of its blocks holds one block's
settled rows: not the parsed columns of the file, nor, between two
blocks, a block's text or fields.  The generator encodes rows into a
``BytesIO`` a chunk at a time, so it peaks near 1.25 times the body it
returns; only ``row_order="shuffled"`` holds every row string at once,
because it must shuffle them.

The generator draws each field as a rejection draw over the public
``Random.getrandbits``: ``randrange(a, b)`` is ``a`` plus the first
``getrandbits((b - a).bit_length())`` below ``b - a``, and
``sample(_ORIGINS, 2)`` is two such draws with ``sample``'s pool swap.
That is what CPython's ``randrange`` and ``sample`` do for
``random.Random``, so the bytes and the generator state match them call
for call.  No draw is a Python call: a narrow site (at most 512 entries)
reads a module-level table that holds its value, or its text where only
the text is written, and None where ``randrange`` would draw again; the
four wide sites and ``sample``'s two indices reject inline.  Delays
still come from ``rng.gauss``, and each carrier block goes into the
ledger in one write, just before its last row is yielded.  A row padded
to ``row_pad_to_bytes`` gets its ``X`` padding right after its TailNum,
whatever the carrier code holds.

Parse has one line model: a line ends at ``\n`` and nowhere else.  A
body with no ``"`` and no ``\r`` (every generated file) is split at
``,`` without ``csv.reader``: on such lines the reader returns that
split, and falls back to it on a field over its limit.  Each block is
split once, as raw bytes if it is ASCII, and if every line of it has
the header's width, its carrier, delay and cancelled fields are strided
slices of that one split, which ``kernels.scan_rows`` settles by columns.
Any other block is the list of its lines split one by one.  Other bodies
go through ``csv.reader``, whose records ``scan_rows`` takes in lists of
``_READER_ROWS``; between two lists the reader holds the decoded block
its next line comes from.  If it raises (a field over
``csv.field_size_limit()``, or a bare ``\r`` inside an unquoted field),
parse resumes over the same lines at the first record the reader did not
yield, and splits each remaining line at ``,`` after stripping its
trailing ``\r``/``\n`` characters.  So a row reads the same whatever an
earlier line held.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, repeat
from operator import contains
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


class ParsedFile:
    """One body's valid rows, read and settled one block at a time.

    Iterating it, once, yields each block's valid rows as two aligned
    lists ``(carriers, delays)``; ``stats`` is None until that iteration
    has used up the body.
    """

    __slots__ = ("_blocks", "stats")

    def __init__(self, blocks):
        self._blocks = blocks
        self.stats: Optional[ParseStats] = None

    def __iter__(self):
        total, invalid = yield from self._blocks
        self.stats = ParseStats(total_rows=total, valid_rows=total - invalid,
                                invalid_rows=invalid)


#: Characters (of a ``str`` body) or bytes (of a ``bytes`` body) per
#: block in ``_blocks``.  Parse holds one block and its fields at a time;
#: a block that falls back to rows also holds its decoded text and its
#: ``StringIO`` buffer, which at 4 bytes per character is the largest
#: (near 256 kB).
_BLOCK_CHARS = 1 << 16

#: Records per list that a ``csv.reader`` body hands to ``scan_rows``;
#: about one 64k block of generated rows.
_READER_ROWS = 512


def _blocks(body: bytes | str, start: int = 0):
    """Yield ``body[start:]`` in blocks of about ``_BLOCK_CHARS``, each cut
    just after a ``\\n``."""
    newline = b"\n" if isinstance(body, bytes) else "\n"
    end = len(body)
    while start < end:
        stop = body.find(newline, start + _BLOCK_CHARS) + 1 or end
        yield body[start:stop]
        start = stop


def _decode(block: bytes | str) -> str:
    """Decode a ``bytes`` block to exactly its part of the whole body's decoding.

    With ``errors="replace"`` that holds for any cut just after a ``\\n``:
    ``\\n`` is one byte in UTF-8 and ends any malformed sequence before
    it, so no character straddles the cut.
    """
    return block.decode("utf-8", errors="replace") if isinstance(block, bytes) else block


def _lines(body: bytes | str):
    """Yield the lines ``io.StringIO`` iterates over the decoded body.

    ``StringIO`` splits at ``\\n`` only and keeps it, so blocks cut just
    after a ``\\n`` iterate to the same lines.
    """
    for block in _blocks(body):
        yield from io.StringIO(_decode(block))


def _split_lines(lines):
    """Split each line at ``,`` after stripping its trailing CR/LF characters."""
    for line in lines:
        yield line.rstrip("\r\n").split(",")


def _iter_blocks(body: bytes | str):
    """Yield the header row, then the body's rows a block at a time.

    Each block is a ``kernels.Columns`` or a list of rows.
    """
    # In UTF-8 the bytes of '"' and CR encode nothing else, so one test on
    # the raw body finds them.  Without either, csv.reader returns each
    # line split at ",", and falls back to that split if a field is over
    # its limit, so the split alone reads the same rows.
    quote, cr = (b'"', b"\r") if isinstance(body, bytes) else ('"', "\r")
    if quote not in body and cr not in body:
        return _split_blocks(body)
    rows = _read_rows(body)
    return chain(islice(rows, 1), iter(lambda: list(islice(rows, _READER_ROWS)), []))


def _split_blocks(body: bytes | str):
    """Yield the header row, then each block as its schema's columns or as rows.

    The blocks start after the header line, so no block is copied to
    take the header off.  Between two items this holds no block.
    """
    if not body:
        return
    start = body.find(b"\n" if isinstance(body, bytes) else "\n") + 1 or len(body)
    header = _decode(body[:start]).removesuffix("\n").split(",")
    yield header
    # Resumed only once the caller has resolved the same header.
    schema = resolve_schema(header)
    width = len(header)
    picks = (schema.carrier_idx, schema.delay_idx, schema.cancelled_idx)
    if not all(0 < i < width - 1 for i in picks):
        picks = None  # a first or last field shares its split element with a LF
    yield from map(partial(_split_block, width, picks), _blocks(body, start))


def _split_block(width: int, picks: Optional[tuple[int, int, int]], block: bytes | str):
    """One block as its ``picks`` columns if it has them, else as its rows split at ``,``.

    An ASCII ``bytes`` block is split as bytes, without decoding; any
    other ``bytes`` block is decoded first.
    """
    if isinstance(block, bytes) and not block.isascii():
        block = _decode(block)
    columns = _columns(block, width, picks) if picks else None
    if columns is None:
        return list(_split_lines(io.StringIO(_decode(block))))
    return columns


def _columns(block: bytes | str, width: int, picks: tuple[int, int, int]):
    """The ``picks`` columns of ``block`` if each of its lines has ``width`` fields.

    Split at ``,``, a block of ``n`` such lines has ``n * (width - 1) + 1``
    fields, and its k-th ``\\n`` sits in field ``k * (width - 1)``, which
    joins one line's last field to the next line's first.  Between those,
    field ``j`` of each line is a strided slice.  Returns None for any
    other block.
    """
    comma, newline, empty = (b",", b"\n", b"") if isinstance(block, bytes) else (",", "\n", "")
    fields = block.split(comma)
    step = width - 1
    # Counts the LFs: ``replace`` finds them with memchr, several times
    # faster than ``count``, which tests every byte.
    breaks = len(block) - len(block.replace(newline, empty))
    lines = breaks + (not block.endswith(newline))
    # The breaks fields at multiples of step each hold a LF, so each holds
    # exactly one and no other field holds any.  ``newline[0]`` is 10 for
    # bytes, which ``in`` finds as a byte value, faster than a needle.
    if len(fields) != lines * step + 1 or not all(
            map(contains, fields[step:breaks * step + 1:step], repeat(newline[0]))):
        return None
    return kernels.Columns(*(fields[i::step] for i in picks))


def _read_rows(body: bytes | str):
    reader = csv.reader(_lines(body))
    consumed = 0  # source lines behind the last record yielded
    try:
        for row in reader:
            consumed = reader.line_num
            yield row
    except csv.Error:
        # Fall back to a naive split so hostile bytes still parse totally,
        # resuming over the same lines at the first record the reader did
        # not yield.
        yield from _split_lines(islice(_lines(body), consumed, None))


def parse_csv(data: bytes | str) -> ParsedFile:
    """Parse one CSV file body as it is read; never raises on malformed rows.

    Rows failing the validity rule (delay blank or non-numeric, cancelled,
    carrier missing) are counted invalid and dropped.  Only a missing
    required header column is an error, raised here, before any row is
    read.
    """
    blocks = _iter_blocks(data)
    try:
        header = next(blocks)
    except StopIteration:
        raise MissingColumnError("empty file: no header row")
    schema = resolve_schema(header)
    return ParsedFile(kernels.scan_rows(
        blocks, schema.carrier_idx, schema.delay_idx, schema.cancelled_idx))


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
        for name in ("files", "rows_per_file", "seed", "row_pad_to_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.files < 1 or self.rows_per_file < 1:
            raise ValueError("files and rows_per_file must be positive")
        if not 0.0 <= self.invalid_fraction < 1.0:
            raise ValueError("invalid_fraction must be in [0, 1)")
        if self.row_order not in ("clustered", "shuffled"):
            raise ValueError(f"unknown row_order {self.row_order!r}")
        if self.row_pad_to_bytes < 0:
            raise ValueError("row_pad_to_bytes must not be negative")
        for carrier in self.carriers:
            code = carrier.code
            if not isinstance(code, str):
                raise TypeError(f"carrier code must be a str, got {code!r}")
            # A code is written as one unquoted field and read back stripped.
            if not code or code != code.strip() or any(ch in code for ch in ',"\r\n'):
                raise ValueError(f"carrier code {code!r} does not parse back as itself")
            for name in ("weight", "delay_mean", "delay_sigma"):
                value = getattr(carrier, name)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise TypeError(f"carrier {name} must be a real number, got {value!r}")
                if not math.isfinite(value):
                    raise ValueError(f"carrier {name} must be finite, got {value!r}")
            if carrier.weight < 0:
                # Weights summing to 1 with one negative would apportion
                # more than rows_per_file rows.
                raise ValueError(f"carrier weight must not be negative, got {carrier.weight!r}")
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


def _table(start: int, stop: int, text: bool = False) -> tuple:
    """One ``randrange(start, stop)`` draw site as a lookup over
    ``getrandbits(width.bit_length())``: entry ``r`` is ``start + r`` (its
    text if ``text``), or None where ``randrange`` rejects ``r`` and draws
    again."""
    width = stop - start
    drawn = [str(start + r) if text else start + r for r in range(width)]
    return (*drawn, *[None] * ((1 << width.bit_length()) - width))


# The narrow draw sites (at most 512 entries each), as tables; the wide
# ones (CRSDepTime, FlightNum, TailNum, Distance) and the two pool
# indices of ``sample`` reject inline.  A site whose value is only
# written holds its text.
_YEARS, _MONTHS, _DAYS, _DOWS = (_table(1988, 2009, True), _table(1, 13, True),
                                 _table(1, 29, True), _table(1, 8, True))
_BLOCK_TIMES, _DEP_DELAYS, _AIR_GAPS = _table(45, 400), _table(-10, 60), _table(10, 40)
_TAXI_INS, _TAXI_OUTS = _table(2, 15, True), _table(5, 30, True)
# ``sample(_ORIGINS, 2)`` draws a pool index, then one below the pool's
# new length, after moving the last pool entry into the slot it took
# first; ``_ROUTES[first][second]`` is the "Origin,Dest" text they give.
_ROUTES = tuple(
    tuple(f"{origin},{_ORIGINS[-1 if second == first else second]}"
          for second in range(len(_ORIGINS) - 1))
    for first, origin in enumerate(_ORIGINS)
)


def _row_formatter(rng: Random, carrier: str, pad_to: int):
    """Return ``format_row(delay, cancelled)`` for one carrier's rows.

    Each draw is ``randrange``'s own for ``random.Random``: a rejection
    draw over ``getrandbits(width.bit_length())``.  So the rows, and the
    state they leave ``rng`` in, are those the same ``randrange`` and
    ``sample`` calls give.  A narrow site reads its value from its table
    until the entry is not None; a wide one rejects inline, without a
    Python call per draw.  A row shorter than ``pad_to - 1`` (the newline
    takes one byte) is padded with ``X`` after its TailNum.
    """
    getrandbits = rng.getrandbits
    tail_suffix = carrier[0] + carrier[-1]

    def format_row(delay: Optional[int], cancelled: bool) -> str:
        # A site draws ``width.bit_length()`` bits: a table's length is
        # ``1 << bits``, and a wide site rejects at its width (FlightNum's
        # ``randrange(1, 7000)`` is 13 bits below 6999).  Inline sites
        # measured faster than a loop over a tuple of sites.
        while (year := _YEARS[getrandbits(5)]) is None:
            pass
        while (month := _MONTHS[getrandbits(4)]) is None:
            pass
        while (day := _DAYS[getrandbits(5)]) is None:
            pass
        while (dow := _DOWS[getrandbits(3)]) is None:
            pass
        while (crs_dep := getrandbits(11)) >= 1800:
            pass
        crs_dep += 500
        while (block_time := _BLOCK_TIMES[getrandbits(9)]) is None:
            pass
        crs_arr = (crs_dep + block_time) % 2400
        while (flight_num := getrandbits(13)) >= 6999:
            pass
        while (tail_num := getrandbits(10)) >= 899:
            pass
        while (elapsed := _BLOCK_TIMES[getrandbits(9)]) is None:
            pass
        while (first := getrandbits(4)) >= 15:
            pass
        while (second := getrandbits(4)) >= 14:
            pass
        while (distance := getrandbits(12)) >= 2600:
            pass
        while (dep_delay := _DEP_DELAYS[getrandbits(7)]) is None:
            pass
        if cancelled:
            dep_time = arr_time = arr_delay = air = ""
            cancelled_s, code = "1", "A"
        else:
            dep_time = (crs_dep + dep_delay) % 2400
            arr_delay = "" if delay is None else delay
            arr_time = (crs_arr + (delay or 0)) % 2400
            while (air_gap := _AIR_GAPS[getrandbits(5)]) is None:
                pass
            air = elapsed - air_gap
            cancelled_s, code = "0", ""
        while (taxi_in := _TAXI_INS[getrandbits(4)]) is None:
            pass
        while (taxi_out := _TAXI_OUTS[getrandbits(5)]) is None:
            pass
        head = (f"{year},{month},{day},{dow},{dep_time},{crs_dep},{arr_time},{crs_arr},"
                f"{carrier},{flight_num + 1},N{tail_num + 100}{tail_suffix}")
        rest = (f",{elapsed},{elapsed},{air},{arr_delay},{dep_delay},{_ROUTES[first][second]},"
                f"{distance + 100},{taxi_in},{taxi_out},{cancelled_s},{code},0,0,0,0,0,0")
        return head + "X" * (pad_to - 1 - len(head) - len(rest)) + rest

    return format_row


def _generate_rows(spec: GenSpec, rng: Random, ledger: GenLedger):
    """Yield one file's rows, carrier block by carrier block.

    A block's delays are summed in locals, and its ``(sum, count)``,
    invalid rows and total go into ``ledger`` just before its last row is
    yielded, so the ledger is whole once the last row is out, whether or
    not the generator is resumed.  The first invalid slot is half an
    interval in, so a block's first row is valid and every block that
    has rows adds its carrier.
    """
    blocks = _apportion(spec.rows_per_file, [c.weight for c in spec.carriers])
    gauss = rng.gauss
    for profile, block in zip(spec.carriers, blocks):
        if block == 0:
            continue
        format_row = _row_formatter(rng, profile.code, spec.row_pad_to_bytes)
        mean, sigma = profile.delay_mean, profile.delay_sigma
        n_invalid = round(block * spec.invalid_fraction)
        invalid_every = block / n_invalid if n_invalid else 0.0
        next_invalid = invalid_every / 2 if n_invalid else math.inf
        placed_invalid = delay_sum = 0
        last = block - 1
        for i in range(block):
            if placed_invalid < n_invalid and i >= next_invalid:
                # Alternate the two invalid shapes: blank delay / cancelled.
                row = format_row(None, placed_invalid % 2 == 1)
                placed_invalid += 1
                next_invalid += invalid_every
            else:
                delay = round(gauss(mean, sigma))
                if delay < -60:
                    delay = -60
                elif delay > 600:
                    delay = 600
                delay_sum += delay
                row = format_row(delay, False)
            if i == last:
                s, c = ledger.carriers.get(profile.code, (0, 0))
                ledger.carriers[profile.code] = (s + delay_sum, c + block - placed_invalid)
                ledger.invalid += placed_invalid
                ledger.total += block
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
