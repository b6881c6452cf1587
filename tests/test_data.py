import csv
import hashlib
import io
import json
import math
import tracemalloc
from itertools import accumulate, islice
from random import Random
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreduce.data import (
    CSV_HEADER,
    CarrierProfile,
    GenSpec,
    MissingColumnError,
    _CHUNK_ROWS,
    _ORIGINS,
    _apportion,
    _lines,
    _row_formatter,
    generate_dataset,
    parse_csv,
    reference_kv_workload_spec,
    resolve_schema,
)
from microreduce import data, kernels
from microreduce.storage import ObjectStore

from conftest import scan_whole, whole


def small_spec(**kwargs) -> GenSpec:
    defaults = dict(files=2, rows_per_file=500, invalid_fraction=0.1, seed=3)
    defaults.update(kwargs)
    return GenSpec(**defaults)


def valid_row(carrier: str = "AA") -> str:
    """One valid 29-column row for ``carrier`` with an arrival delay of 15."""
    return ",".join(
        ["2001", "5", "9", "3", "900", "855", "1100", "1045", carrier, "100",
         "N1AA", "120", "110", "100", "15", "5", "ORD", "DFW", "800", "5",
         "10", "0", "", "0", "0", "0", "0", "0", "0"]
    )


class TestParse:
    def test_header_only_file(self):
        carriers, delays, stats = whole(parse_csv(CSV_HEADER + "\n"))
        assert stats.total_rows == 0
        assert carriers == [] and delays == []

    def test_single_row_maps_directly(self):
        carriers, delays, stats = whole(parse_csv(CSV_HEADER + "\n" + valid_row() + "\n"))
        assert stats.valid_rows == 1
        assert (carriers, delays) == (["AA"], [15])

    def test_missing_required_column_is_an_error(self):
        with pytest.raises(MissingColumnError):
            parse_csv("Year,Month,ArrDelay,Cancelled\n1,2,3,0\n")
        with pytest.raises(MissingColumnError):
            parse_csv("")

    def test_malformed_rows_counted_not_fatal(self):
        body = CSV_HEADER + "\nnot,a,real,row\n"
        *_, stats = whole(parse_csv(body))
        assert stats.invalid_rows == 1
        assert stats.total_rows == 1

    def test_reader_error_resumes_after_last_yielded_row(self):
        # csv.reader rejects the 200,000-character field part-way through
        # the file; the fallback must not count the header and the rows
        # already read a second time.
        row = valid_row()
        body = "\n".join([CSV_HEADER, row, row, row, '"' + "x" * 200_000 + '"']) + "\n"
        *_, stats = whole(parse_csv(body))
        assert (stats.total_rows, stats.valid_rows) == (4, 3)

    @pytest.mark.parametrize("before", ["", "x\ry\n"], ids=["reader", "fallback"])
    def test_form_feed_does_not_end_a_row(self, before):
        # A UA row and a DL row joined by a form feed are one 57-field UA
        # row, also once a bare CR in an earlier line made csv.reader raise.
        line = valid_row("UA") + "\x0c" + valid_row("DL")
        body = CSV_HEADER + "\n" + before + line + "\n"
        carriers, _, stats = whole(parse_csv(body))
        assert (carriers, stats.valid_rows) == (["UA"], 1)

    def test_generated_file_matches_ledger_exactly(self):
        store = ObjectStore()
        spec = small_spec()
        ledger = generate_dataset(spec, store)
        totals: dict[str, tuple[int, int]] = {}
        seen_total = seen_invalid = 0
        for key in store.list():
            carriers, delays, stats = whole(parse_csv(store.get(key)))
            seen_total += stats.total_rows
            seen_invalid += stats.invalid_rows
            for carrier, delay in zip(carriers, delays):
                s, c = totals.get(carrier, (0, 0))
                totals[carrier] = (s + delay, c + 1)
        assert seen_total == ledger.total == spec.files * spec.rows_per_file
        assert seen_invalid == ledger.invalid
        assert totals == ledger.carriers

    def test_schema_resolution_by_name_any_order(self):
        schema = resolve_schema(["ArrDelay", "Cancelled", "UniqueCarrier"])
        assert (schema.carrier_idx, schema.delay_idx, schema.cancelled_idx) == (2, 0, 1)


@given(st.binary(max_size=4096))
@settings(max_examples=200)
def test_parser_is_total_on_arbitrary_bytes(blob):
    body = CSV_HEADER.encode() + b"\n" + blob
    carriers, _, stats = whole(parse_csv(body))
    assert stats.valid_rows + stats.invalid_rows == stats.total_rows
    assert len(carriers) == stats.valid_rows


# Quotes and a bare CR make csv.reader join lines or raise; CRLF, form
# feed, NEL and NUL end a line for some splitters, but not for a split at
# LF, the parser's only line break.
_CSV_TEXT_ALPHABET = ["a", "b", ",", '"', "\n", "\r", "\r\n", "\x0c", "\x85", "\x00", "1"]
_CSV_TEXT = st.lists(st.sampled_from(_CSV_TEXT_ALPHABET), max_size=200).map("".join)


def _stringio_rows(text: str):
    """The rows the parser yields, read through one ``io.StringIO``.

    After a ``csv.Error`` it resumes over the same ``StringIO`` lines at
    the first record the reader did not yield, and splits each one at
    ``,`` once its trailing CR/LF characters are stripped.  (It resumed
    over ``str.splitlines`` of the rest of the text until parse got one
    line model.)
    """
    reader = csv.reader(io.StringIO(text))
    consumed = 0
    try:
        for row in reader:
            consumed = reader.line_num
            yield row
    except csv.Error:
        for line in islice(io.StringIO(text), consumed, None):
            yield line.rstrip("\r\n").split(",")


# Blocks of a few characters put block cuts all through the drawn text.
_BLOCK_SIZES = st.integers(min_value=1, max_value=16)


@given(_CSV_TEXT, _BLOCK_SIZES)
@settings(max_examples=500)
def test_lines_split_as_stringio_iterates(text, block):
    with mock.patch.object(data, "_BLOCK_CHARS", block):
        assert list(_lines(text)) == list(io.StringIO(text))


# Bytes with multi-byte characters, their truncated prefixes, lone
# continuation and invalid bytes, and LF anywhere among them.
_UTF8_PIECES = [b"\n", b"a", b",", "\u00e9".encode(), "\u20ac".encode(),
                "\U0001f600".encode(), b"\xe2\x82", b"\xf0\x9f\x98", b"\xc3",
                b"\x80", b"\xff", b"\xc0\xaf", b"\xed\xa0\x80"]
_UTF8_BYTES = st.lists(
    st.one_of(st.sampled_from(_UTF8_PIECES), st.binary(max_size=4)), max_size=100
).map(b"".join)


@given(_UTF8_BYTES, _BLOCK_SIZES)
@settings(max_examples=500)
def test_byte_blocks_decode_as_the_whole_body(body, block):
    with mock.patch.object(data, "_BLOCK_CHARS", block):
        lines = list(_lines(body))
    assert lines == list(io.StringIO(body.decode("utf-8", errors="replace")))


# Text with no quote and no CR: parse splits it without csv.reader.
_QUOTE_FREE_TEXT = st.lists(
    st.sampled_from([c for c in _CSV_TEXT_ALPHABET if '"' not in c and "\r" not in c]),
    max_size=200,
).map("".join)


def _reference_parse(body: str):
    rows = _stringio_rows(body)
    schema = resolve_schema(next(rows))
    return scan_whole([list(rows)], schema.carrier_idx, schema.delay_idx,
                      schema.cancelled_idx)


@given(st.one_of(_CSV_TEXT, _QUOTE_FREE_TEXT), _BLOCK_SIZES)
@settings(max_examples=500)
def test_parse_matches_the_stringio_reader(text, block):
    body = CSV_HEADER + "\n" + text
    expected = _reference_parse(body)
    for given_body in (body, body.encode()):
        with mock.patch.object(data, "_BLOCK_CHARS", block):
            got = _outputs(parse_csv(given_body))
        assert got == expected, type(given_body).__name__


def _outputs(parsed):
    carriers, delays, stats = whole(parsed)
    return carriers, delays, stats.total_rows, stats.invalid_rows


def test_quote_free_field_over_the_limit_reads_as_the_stringio_reader():
    long_tail = valid_row().replace("N1AA", "N1AA" + "X" * 100)
    body = "\n".join([CSV_HEADER, valid_row(), long_tail, valid_row("UA")]) + "\n"
    old_limit = csv.field_size_limit(64)
    try:
        with pytest.raises(csv.Error):
            list(csv.reader(io.StringIO(body)))
        expected = _reference_parse(body)
        assert expected == (["AA", "AA", "UA"], [15, 15, 15], 3, 0)
        assert _outputs(parse_csv(body)) == expected
        assert _outputs(parse_csv(body.encode())) == expected
    finally:
        csv.field_size_limit(old_limit)


# Fields that int() and the validity rule may read apart, drawn into the
# carrier, delay and cancelled columns of header-width rows; "Ü1" is a
# non-ASCII carrier, and "" an empty one.
_ODD_FIELDS = [" 5", "+5", "1_0", "2.6", "nan", "inf", "", " 0", "0.0", "1", "1.0",
               "\x1c5", "\u0663", "\u00dc1"]
_ROW_FIELDS = valid_row().split(",")
_CARRIER, _DELAY, _CANCELLED = (_ROW_FIELDS.index(v) for v in ("AA", "15", "0"))


def _field(plain: str):
    return st.one_of(st.just(plain), st.sampled_from(_ODD_FIELDS))


def _header_width_row(fields: tuple[str, str, str]) -> str:
    row = list(_ROW_FIELDS)
    row[_CARRIER], row[_DELAY], row[_CANCELLED] = fields
    return ",".join(row)


_HEADER_WIDTH_ROW = st.tuples(_field("AA"), _field("-7"), _field("0")).map(_header_width_row)
# One field short, one too many, and an empty line.
_RAGGED_ROW = st.sampled_from([",".join(_ROW_FIELDS[:-1]), valid_row() + ",x", ""])


@given(st.lists(_HEADER_WIDTH_ROW | _RAGGED_ROW, max_size=12), st.booleans(),
       st.integers(min_value=1, max_value=400))
@settings(max_examples=500)
def test_header_width_blocks_settle_by_columns_as_rows(rows, final_lf, block):
    body = "\n".join([CSV_HEADER, *rows]) + ("\n" if final_lf else "")
    expected = _reference_parse(body)
    lined_up = all(len(row.split(",")) == len(_ROW_FIELDS) for row in rows)
    for given_body in (body, body.encode()):
        with mock.patch.object(data, "_BLOCK_CHARS", block):
            assert _outputs(parse_csv(given_body)) == expected, type(given_body).__name__
            items = list(data._iter_blocks(given_body))[1:]
        if lined_up:
            # No silent fallback: each data block is one Columns item.
            assert all(type(item) is kernels.Columns for item in items)


# One quote-free line of the alphabet above.  CR and LF come only at its
# end: csv.reader rejects a bare CR anywhere before it.
_IN_LINE = [c for c in _CSV_TEXT_ALPHABET if c not in ('"', "\n", "\r", "\r\n")]
_QUOTE_FREE_LINE = st.tuples(
    st.lists(st.sampled_from(_IN_LINE), max_size=40).map("".join),
    st.sampled_from(["", "\n", "\r", "\r\n", "\r\r\n"]),
).map("".join)


@given(_QUOTE_FREE_LINE)
@settings(max_examples=500)
def test_fallback_splits_quote_free_lines_as_the_reader_reads_them(line):
    # The bare CR makes csv.reader raise on the first line, so every line
    # goes through the fallback's split.  An empty line reads [] from the
    # reader and [""] from the split; both scan as one invalid row.
    read = [row or [""] for row in csv.reader(io.StringIO(line))]
    header, *blocks = data._iter_blocks("x\ry\n" + line)
    assert [header] + [row for block in blocks for row in block] == [["x\ry"]] + read


def _padded_spec() -> GenSpec:
    # Anchor-shaped rows: 30,000 x 309 bytes, ~9.3 MB.
    return GenSpec(files=1, rows_per_file=30_000, seed=606, row_pad_to_bytes=309)


def test_generating_a_file_peaks_below_twice_its_body():
    store = ObjectStore()
    tracemalloc.start()
    try:
        generate_dataset(_padded_spec(), store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    body = store.get("part-0000.csv")
    assert len(body) == 30_000 * 309 + len(CSV_HEADER) + 1
    assert peak <= 2 * len(body), f"peak {peak / len(body):.2f}x the body"


@pytest.mark.parametrize(("bare_cr", "bound"), [(False, 2), (True, 2), (False, 0.5)],
                         ids=["clean", "bare-cr", "clean-bytes-half"])
def test_parse_peaks_below_twice_the_body(bare_cr, bound):
    store = ObjectStore()
    generate_dataset(_padded_spec(), store)
    body = store.get("part-0000.csv")
    if bare_cr:
        # The second data row starts "<year>\r,", so csv.reader raises on
        # the file's third line and parse falls back for the rest.
        header, first, second, rest = body.split(b"\n", 3)
        body = b"\n".join([header, first, second.replace(b",", b"\r,", 1), rest])
    tracemalloc.start()
    try:
        *_, stats = whole(parse_csv(body))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.total_rows == 30_000
    assert peak <= bound * len(body), f"parse adds {peak / len(body):.2f}x the body"


#: SHA-256 over every generated file body, in order, then the ledger JSON;
#: computed with the generator that joined every row of a file at once.
GENERATOR_PINS = {
    "clustered-padded": (
        GenSpec(files=1, rows_per_file=6_000, seed=606, row_pad_to_bytes=309),
        "1832a26589fa98445bee18cc315ac4456f49ce59222878d835b3391d7495f5c1",
    ),
    "shuffled-invalid": (
        GenSpec(files=2, rows_per_file=6_000, invalid_fraction=0.02, seed=7,
                row_order="shuffled"),
        "bc32673fbcc1dfc334532e39d23317b30238ab5ad3dce816b6ce6a270d5ac20c",
    ),
    "reference-kv": (
        reference_kv_workload_spec(),
        "43c0d6403e826fdbe3549f886103370fde2b30db0c460d44794b1b87b81eac65",
    ),
    "one-row": (
        GenSpec(files=2, rows_per_file=1, seed=5),
        "e04abb26cdaf34cc79cf09c561b1f84eb07ed5251a54a0b3e683b94eb6e66537",
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_PINS))
def test_generated_bytes_and_ledger_are_pinned(name):
    spec, digest = GENERATOR_PINS[name]
    # More than two chunks, so a chunk boundary and a resumed chunk are hit.
    assert spec.rows_per_file == 1 or spec.rows_per_file > 2 * _CHUNK_ROWS
    store = ObjectStore()
    ledger = generate_dataset(spec, store)
    h = hashlib.sha256()
    for key in ledger.file_names:
        h.update(store.get(key))
    h.update(ledger.to_json().encode())
    assert h.hexdigest() == digest


def test_ledger_counts_a_last_row_that_fills_its_chunk():
    rows = 2 * _CHUNK_ROWS
    store = ObjectStore()
    ledger = generate_dataset(GenSpec(files=1, rows_per_file=rows, seed=1), store)
    assert ledger.total == rows == sum(c for _, c in ledger.carriers.values())
    *_, stats = whole(parse_csv(store.get("part-0000.csv")))
    assert stats.total_rows == rows


def _format_row(rng: Random, carrier: str, delay: Optional[int], cancelled: bool,
                pad_to: int = 0) -> str:
    """The row generator before it drew on ``getrandbits``, kept verbatim as
    the reference ``_row_formatter`` must match."""
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


_ROW_ARGS = st.tuples(st.none() | st.integers(-1_000, 1_000), st.booleans())


@given(st.integers(0, 2**64), st.text(min_size=1, max_size=8) | st.sampled_from(["AA", "N105NA"]),
       st.lists(_ROW_ARGS, min_size=1, max_size=8), st.integers(0, 400))
@settings(max_examples=500)
def test_row_formatter_matches_randrange_and_sample(seed, code, rows, pad_to):
    ref_rng, rng = Random(seed), Random(seed)
    format_row = _row_formatter(rng, code, pad_to)
    for delay, cancelled in rows:
        got = format_row(delay, cancelled)
        # TailNum is the field after the flight number: six characters
        # before any padding.
        tail = got.split(",")[10 + code.count(",")][:6]
        if tail in code:
            return  # the reference pads inside the code; see the test below
        assert got == _format_row(ref_rng, code, delay, cancelled, pad_to)
        assert rng.getstate() == ref_rng.getstate()


def test_padding_goes_after_the_tail_number_even_inside_the_code():
    # Seed 1 draws the tail number N105NA, which the carrier code holds.
    spec = GenSpec(files=1, rows_per_file=5_000, seed=1, row_pad_to_bytes=120,
                   carriers=(CarrierProfile("N105NA", 1.0, 5, 10),))
    store = ObjectStore()
    ledger = generate_dataset(spec, store)
    carriers, delays, _ = whole(parse_csv(store.get("part-0000.csv")))
    sums: dict[str, tuple[int, int]] = {}
    for carrier, delay in zip(carriers, delays):
        s, c = sums.get(carrier, (0, 0))
        sums[carrier] = (s + delay, c + 1)
    assert sums == ledger.carriers


# -- the generator before its draws became table lookups -------------------
#
# ``_row_formatter`` and ``_generate_rows`` as they drew each field through
# a ``draw`` call and wrote every row into the ledger, kept verbatim (but
# for their names) as the reference the table-driven generator must match.


class _ReferenceLedger:
    """The ledger the reference writes: one ``add`` per valid row."""

    def __init__(self):
        self.carriers: dict[str, tuple[int, int]] = {}
        self.invalid = 0
        self.total = 0

    def add(self, carrier: str, delay: int) -> None:
        s, c = self.carriers.get(carrier, (0, 0))
        self.carriers[carrier] = (s + delay, c + 1)


def _span(start: int, stop: int) -> tuple[int, int, int]:
    """``(start, width, bits)`` of one ``randrange(start, stop)`` draw site."""
    width = stop - start
    return start, width, width.bit_length()


# One span per draw site, in draw order.  ``_ORIGIN`` and ``_DEST`` are
# the two pool indices ``sample(_ORIGINS, 2)`` draws.
_YEAR, _MONTH, _DAY, _DOW = _span(1988, 2009), _span(1, 13), _span(1, 29), _span(1, 8)
_CRS_DEP, _BLOCK_TIME = _span(500, 2300), _span(45, 400)
_FLIGHT, _TAIL = _span(1, 7000), _span(100, 999)
_ORIGIN, _DEST = _span(0, len(_ORIGINS)), _span(0, len(_ORIGINS) - 1)
_DISTANCE, _DEP_DELAY, _AIR_GAP = _span(100, 2700), _span(-10, 60), _span(10, 40)
_TAXI_IN, _TAXI_OUT = _span(2, 15), _span(5, 30)


def _reference_row_formatter(rng: Random, carrier: str, pad_to: int):
    """Return ``format_row(delay, cancelled)`` for one carrier's rows.

    Each draw is ``randrange``'s own for ``random.Random``: a rejection
    draw over ``getrandbits(width.bit_length())``.  So the rows, and the
    state they leave ``rng`` in, are those the same ``randrange`` and
    ``sample`` calls give.  A row shorter than ``pad_to - 1`` (the newline
    takes one byte) is padded with ``X`` after its TailNum.
    """
    getrandbits = rng.getrandbits
    tail_suffix = carrier[0] + carrier[-1]

    def draw(start, width, bits):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return start + r

    def format_row(delay: Optional[int], cancelled: bool) -> str:
        year, month, day, dow = draw(*_YEAR), draw(*_MONTH), draw(*_DAY), draw(*_DOW)
        crs_dep = draw(*_CRS_DEP)
        crs_arr = (crs_dep + draw(*_BLOCK_TIME)) % 2400
        flight_num, tail_num, elapsed = draw(*_FLIGHT), draw(*_TAIL), draw(*_BLOCK_TIME)
        # sample() moves the last pool entry into the slot it took first.
        first, second = draw(*_ORIGIN), draw(*_DEST)
        origin, dest = _ORIGINS[first], _ORIGINS[-1 if second == first else second]
        distance, dep_delay = draw(*_DISTANCE), draw(*_DEP_DELAY)
        if cancelled:
            dep_time = arr_time = arr_delay = air = ""
            cancelled_s, code = "1", "A"
        else:
            dep_time = (crs_dep + dep_delay) % 2400
            arr_delay = "" if delay is None else delay
            arr_time = (crs_arr + (delay or 0)) % 2400
            air = elapsed - draw(*_AIR_GAP)
            cancelled_s, code = "0", ""
        head = (f"{year},{month},{day},{dow},{dep_time},{crs_dep},{arr_time},{crs_arr},"
                f"{carrier},{flight_num},N{tail_num}{tail_suffix}")
        rest = (f",{elapsed},{elapsed},{air},{arr_delay},{dep_delay},{origin},{dest},"
                f"{distance},{draw(*_TAXI_IN)},{draw(*_TAXI_OUT)},{cancelled_s},{code},"
                f"0,0,0,0,0,0")
        return head + "X" * (pad_to - 1 - len(head) - len(rest)) + rest

    return format_row


def _reference_generate_rows(spec: GenSpec, rng: Random, ledger: "_ReferenceLedger"):
    """Yield one file's rows, carrier block by carrier block.

    Each row is in ``ledger`` before it is yielded, so the ledger is whole
    once the last row is out, whether or not the generator is resumed.
    """
    blocks = _apportion(spec.rows_per_file, [c.weight for c in spec.carriers])
    for profile, block in zip(spec.carriers, blocks):
        if block == 0:
            continue
        format_row = _reference_row_formatter(rng, profile.code, spec.row_pad_to_bytes)
        n_invalid = round(block * spec.invalid_fraction)
        invalid_every = block / n_invalid if n_invalid else 0.0
        next_invalid = invalid_every / 2 if n_invalid else math.inf
        placed_invalid = 0
        for i in range(block):
            if placed_invalid < n_invalid and i >= next_invalid:
                # Alternate the two invalid shapes: blank delay / cancelled.
                row = format_row(None, placed_invalid % 2 == 1)
                placed_invalid += 1
                next_invalid += invalid_every
                ledger.invalid += 1
            else:
                delay = round(rng.gauss(profile.delay_mean, profile.delay_sigma))
                delay = max(-60, min(600, delay))
                row = format_row(delay, False)
                ledger.add(profile.code, delay)
            ledger.total += 1
            yield row


def _reference_dataset(spec: GenSpec) -> tuple[list[bytes], _ReferenceLedger]:
    """Each file body and the ledger, by the reference."""
    ledger, bodies = _ReferenceLedger(), []
    for i in range(spec.files):
        rng = Random(spec.seed * 1_000_003 + i)
        rows = list(_reference_generate_rows(spec, rng, ledger))
        if spec.row_order == "shuffled":
            rng.shuffle(rows)
        bodies.append("\n".join([CSV_HEADER, *rows, ""]).encode())
    return bodies, ledger


def _ledger_view(ledger) -> tuple:
    # Key order too: the ledger JSON sorts its keys, but ``carriers`` is a dict.
    return list(ledger.carriers.items()), ledger.invalid, ledger.total


# Shares of 0 give zero-weight carriers; a repeated code puts two blocks
# under one ledger key.
_PROFILE = st.builds(
    lambda code, share, mean, sigma: (CarrierProfile(code, 0.0, mean, sigma), share),
    st.sampled_from(["AA", "UA", "Q", "N105NA"]),
    st.integers(0, 4),
    st.integers(-700, 700),
    st.integers(0, 400) | st.floats(0.0, 50.0),
)


def _weighted(profiles) -> tuple[CarrierProfile, ...]:
    total = sum(share for _, share in profiles)
    return tuple(CarrierProfile(p.code, share / total, p.delay_mean, p.delay_sigma)
                 for p, share in profiles)


_SMALL_SPEC = st.builds(
    GenSpec,
    files=st.integers(1, 3),
    rows_per_file=st.integers(1, 200),
    carriers=st.lists(_PROFILE, min_size=1, max_size=5).filter(
        lambda ps: any(share for _, share in ps)).map(_weighted),
    invalid_fraction=st.sampled_from([0.0, 0.02, 0.5, 0.9, 0.99, 0.999999])
    | st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32),
    row_order=st.sampled_from(["clustered", "shuffled"]),
    row_pad_to_bytes=st.integers(0, 400),
)


@given(_SMALL_SPEC, st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_generator_matches_the_reference(spec, chunk_rows):
    expected_bodies, expected = _reference_dataset(spec)
    # Rows, ledger and rng state, the ledger read right after each file's
    # last row is out, before the generator is resumed.
    ledger = data.GenLedger()
    reference = _ReferenceLedger()
    for i in range(spec.files):
        rng, ref_rng = Random(spec.seed * 1_000_003 + i), Random(spec.seed * 1_000_003 + i)
        rows = list(islice(data._generate_rows(spec, rng, ledger), spec.rows_per_file))
        assert rows == list(_reference_generate_rows(spec, ref_rng, reference))
        assert _ledger_view(ledger) == _ledger_view(reference)
        assert rng.getstate() == ref_rng.getstate()
    # Whole files, chunked so that a file spans several chunks.
    store = ObjectStore()
    with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
        ledger = generate_dataset(spec, store)
    assert [store.get(name) for name in ledger.file_names] == expected_bodies
    assert _ledger_view(ledger) == _ledger_view(expected)


# Blocks of 7 and 5 rows, so some block ends with one normal of a
# gauss() pair still pending, with or without one pending before the
# first row; the invalid rows change which block that is.
_ODD_BLOCKS = (CarrierProfile("AA", 7 / 12, 8, 22), CarrierProfile("UA", 5 / 12, -3, 12.5))


@pytest.mark.parametrize("invalid_fraction", [0.0, 0.3])
@pytest.mark.parametrize("primed", [False, True], ids=["fresh", "primed"])
def test_a_pending_normal_carries_across_block_ends(invalid_fraction, primed):
    spec = GenSpec(files=2, rows_per_file=12, carriers=_ODD_BLOCKS,
                   invalid_fraction=invalid_fraction, seed=28)
    blocks = _apportion(spec.rows_per_file, [c.weight for c in spec.carriers])
    assert blocks == [7, 5]
    ends = set(accumulate(blocks))
    ledger, reference = data.GenLedger(), _ReferenceLedger()
    for i in range(spec.files):
        rng, ref_rng = Random(spec.seed * 1_000_003 + i), Random(spec.seed * 1_000_003 + i)
        if primed:
            assert rng.gauss() == ref_rng.gauss()
        rows = data._generate_rows(spec, rng, ledger)
        ref_rows = _reference_generate_rows(spec, ref_rng, reference)
        pending = []
        for n in range(1, spec.rows_per_file + 1):
            assert next(rows) == next(ref_rows)
            if n in ends:
                # The block's last row is out and the generator is not
                # resumed: the pending normal is back in ``rng``.
                pending.append(ref_rng.gauss_next is not None)
                assert rng.getstate() == ref_rng.getstate()
                assert _ledger_view(ledger) == _ledger_view(reference)
        assert any(pending), "no block ends with a normal pending"


def test_text_table_holds_every_number_written_through_it():
    text = data._TEXT
    assert len(text) == 2_710
    assert all(text[i] == str(i) for i in range(-10, 2_700))

    def drawn(table):
        return [value for value in table if value is not None]

    def span(start, width, _bits):
        return [start, start + width - 1]

    block_times, air_gaps = drawn(data._BLOCK_TIMES), drawn(data._AIR_GAPS)
    written = {
        # Each is taken modulo 2400.
        "DepTime, ArrTime, CRSArrTime": [0, 2_399],
        "CRSDepTime": span(*_CRS_DEP),
        "TailNum digits": span(*_TAIL),
        "Distance": span(*_DISTANCE),
        "elapsed times": block_times,
        "AirTime": [min(block_times) - max(air_gaps), max(block_times) - min(air_gaps)],
        "DepDelay": drawn(data._DEP_DELAYS),
    }
    for site, values in written.items():
        assert -10 <= min(values) and max(values) < 2_700, site


def test_every_block_keeps_its_first_row_valid():
    # At an invalid_fraction near 1 a block has as many invalid slots as
    # rows, but the first slot is half an interval in, so no block is all
    # invalid and each carrier block counts exactly one valid row.
    spec = small_spec(files=1, invalid_fraction=0.999999)
    ledger = generate_dataset(spec, ObjectStore())
    blocks = _apportion(spec.rows_per_file, [c.weight for c in spec.carriers])
    assert [(code, c) for code, (_, c) in ledger.carriers.items()] == [
        (p.code, 1) for p, block in zip(spec.carriers, blocks) if block]
    assert ledger.invalid == spec.rows_per_file - len(ledger.carriers)


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(small_spec(), a)
        generate_dataset(small_spec(), b)
        for name in ("part-0000.csv", "part-0001.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(small_spec(seed=1), a)
        generate_dataset(small_spec(seed=2), b)
        assert (a / "part-0000.csv").read_bytes() != (b / "part-0000.csv").read_bytes()

    def test_invalid_fraction_accounting(self):
        store = ObjectStore()
        spec = small_spec(files=1, rows_per_file=1000, invalid_fraction=0.1)
        ledger = generate_dataset(spec, store)
        # round(0.1 x rows) per carrier block, so the total can drift by
        # at most one per carrier
        assert abs(ledger.invalid - 100) <= len(spec.carriers)

    def test_row_padding_hits_target_width(self):
        store = ObjectStore()
        spec = small_spec(files=1, rows_per_file=200, invalid_fraction=0.0,
                          row_pad_to_bytes=309)
        generate_dataset(spec, store)
        body = store.get("part-0000.csv").decode()
        rows = body.splitlines()[1:]
        assert rows and all(len(r) + 1 == 309 for r in rows)

    @pytest.mark.parametrize("code", ["A,B", "", 'A"', "A\rB", "A\nB", " AA", "AA "])
    def test_carrier_code_must_parse_back_as_itself(self, code):
        with pytest.raises(ValueError, match="carrier code"):
            GenSpec(files=1, rows_per_file=10, carriers=(CarrierProfile(code, 1.0, 0, 1),))

    @pytest.mark.parametrize("field, value", [
        ("files", 1.5), ("files", True), ("rows_per_file", 10.5), ("seed", "abc"),
        ("seed", 2.0), ("row_pad_to_bytes", 309.5),
    ])
    def test_counts_and_seed_must_be_ints(self, field, value):
        kwargs = {"files": 1, "rows_per_file": 10, field: value}
        with pytest.raises(TypeError, match=field):
            GenSpec(**kwargs)

    @pytest.mark.parametrize("value", [False, True, "0.1", None])
    def test_invalid_fraction_must_be_a_real_number(self, value):
        with pytest.raises(TypeError, match="invalid_fraction must be a real number"):
            GenSpec(files=1, rows_per_file=10, invalid_fraction=value)

    @pytest.mark.parametrize("field, value, error", [
        ("code", 5, TypeError), ("weight", True, TypeError), ("weight", "1", TypeError),
        ("delay_mean", "abc", TypeError), ("delay_sigma", None, TypeError),
        ("delay_mean", float("nan"), ValueError), ("delay_sigma", float("inf"), ValueError),
    ])
    def test_carrier_fields_must_be_typed(self, field, value, error):
        fields = {"code": "AA", "weight": 1.0, "delay_mean": 0, "delay_sigma": 1}
        fields[field] = value
        with pytest.raises(error, match=field):
            GenSpec(files=1, rows_per_file=10, carriers=(CarrierProfile(**fields),))

    def test_carrier_weights_must_not_be_negative(self):
        carriers = (CarrierProfile("AA", 1.5, 0, 1), CarrierProfile("UA", -0.5, 0, 1))
        with pytest.raises(ValueError, match="must not be negative"):
            GenSpec(files=1, rows_per_file=10, carriers=carriers)

    def test_row_padding_must_not_be_negative(self):
        with pytest.raises(ValueError, match="row_pad_to_bytes"):
            GenSpec(files=1, rows_per_file=10, row_pad_to_bytes=-1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GenSpec(files=1, rows_per_file=10,
                    carriers=(CarrierProfile("AA", 0.5, 0, 1),))

    def test_ledger_round_trip(self):
        ledger = generate_dataset(small_spec(), ObjectStore())
        doc = json.loads(ledger.to_json())
        assert (doc.pop("invalid"), doc.pop("total")) == (ledger.invalid, ledger.total)
        assert {code: (v["delay_sum"], v["count"]) for code, v in doc.items()} == (
            ledger.carriers)

    def test_ledger_json_shape(self):
        ledger = generate_dataset(small_spec(files=1, rows_per_file=50,
                                             invalid_fraction=0.0), ObjectStore())
        doc = json.loads(ledger.to_json())
        assert doc["total"] == 50 and doc["invalid"] == 0
        carrier_keys = [k for k in doc if k not in ("invalid", "total")]
        assert carrier_keys and all(
            set(doc[k]) == {"delay_sum", "count"} for k in carrier_keys
        )

    def test_shuffled_order_same_ledger(self):
        clustered = generate_dataset(small_spec(row_order="clustered"), ObjectStore())
        shuffled = generate_dataset(small_spec(row_order="shuffled"), ObjectStore())
        assert clustered.carriers == shuffled.carriers

    def test_clustered_rows_group_consecutively(self):
        store = ObjectStore()
        generate_dataset(small_spec(files=1, invalid_fraction=0.0), store)
        carriers, _, _ = whole(parse_csv(store.get("part-0000.csv")))
        transitions = sum(1 for a, b in zip(carriers, carriers[1:]) if a != b)
        assert transitions == len(set(carriers)) - 1


def test_apportion_is_exact_and_stable():
    counts = _apportion(1000, [0.5, 0.25, 0.25])
    assert counts == [500, 250, 250]
    counts = _apportion(10, [0.34, 0.33, 0.33])
    assert sum(counts) == 10
    assert _apportion(1, [0.9, 0.1]) == [1, 0]
