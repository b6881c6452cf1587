import csv
import hashlib
import io
import json
import tracemalloc
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreduce.data import (
    CSV_HEADER,
    CarrierProfile,
    GenLedger,
    GenSpec,
    MissingColumnError,
    _CHUNK_ROWS,
    _apportion,
    _lines,
    generate_dataset,
    parse_csv,
    reference_kv_workload_spec,
    resolve_schema,
)
from microreduce import data, kernels
from microreduce.storage import ObjectStore


def small_spec(**kwargs) -> GenSpec:
    defaults = dict(files=2, rows_per_file=500, invalid_fraction=0.1, seed=3)
    defaults.update(kwargs)
    return GenSpec(**defaults)


class TestParse:
    def test_header_only_file(self):
        parsed = parse_csv(CSV_HEADER + "\n")
        assert parsed.stats.total_rows == 0
        assert parsed.carriers == [] and parsed.delays == []

    def test_single_row_maps_directly(self):
        row = ",".join(
            ["2001", "5", "9", "3", "900", "855", "1100", "1045", "AA", "100",
             "N1AA", "120", "110", "100", "15", "5", "ORD", "DFW", "800", "5",
             "10", "0", "", "0", "0", "0", "0", "0", "0"]
        )
        parsed = parse_csv(CSV_HEADER + "\n" + row + "\n")
        assert parsed.stats.valid_rows == 1
        assert (parsed.carriers, parsed.delays) == (["AA"], [15])

    def test_missing_required_column_is_an_error(self):
        with pytest.raises(MissingColumnError):
            parse_csv("Year,Month,ArrDelay,Cancelled\n1,2,3,0\n")
        with pytest.raises(MissingColumnError):
            parse_csv("")

    def test_malformed_rows_counted_not_fatal(self):
        body = CSV_HEADER + "\nnot,a,real,row\n"
        parsed = parse_csv(body)
        assert parsed.stats.invalid_rows == 1
        assert parsed.stats.total_rows == 1

    def test_reader_error_resumes_after_last_yielded_row(self):
        # csv.reader rejects the 200,000-character field part-way through
        # the file; the fallback must not count the header and the rows
        # already read a second time.
        row = ",".join(
            ["2001", "5", "9", "3", "900", "855", "1100", "1045", "AA", "100",
             "N1AA", "120", "110", "100", "15", "5", "ORD", "DFW", "800", "5",
             "10", "0", "", "0", "0", "0", "0", "0", "0"]
        )
        body = "\n".join([CSV_HEADER, row, row, row, '"' + "x" * 200_000 + '"']) + "\n"
        stats = parse_csv(body).stats
        assert (stats.total_rows, stats.valid_rows) == (4, 3)

    def test_generated_file_matches_ledger_exactly(self):
        store = ObjectStore()
        spec = small_spec()
        ledger = generate_dataset(spec, store)
        totals: dict[str, tuple[int, int]] = {}
        seen_total = seen_invalid = 0
        for key in store.list():
            parsed = parse_csv(store.get(key))
            seen_total += parsed.stats.total_rows
            seen_invalid += parsed.stats.invalid_rows
            for carrier, delay in zip(parsed.carriers, parsed.delays):
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
    parsed = parse_csv(body)
    assert parsed.stats.valid_rows + parsed.stats.invalid_rows == parsed.stats.total_rows
    assert len(parsed.carriers) == parsed.stats.valid_rows


# The alphabet holds every character csv.reader, StringIO and str.splitlines
# disagree on: quotes, a bare CR, CRLF, form feed, NEL and NUL.
_CSV_TEXT = st.lists(
    st.sampled_from(["a", "b", ",", '"', "\n", "\r", "\r\n", "\x0c", "\x85", "\x00", "1"]),
    max_size=200,
).map("".join)


def _stringio_rows(text: str):
    """The rows the parser yielded when it read through ``io.StringIO``."""
    reader = csv.reader(io.StringIO(text))
    consumed = 0
    try:
        for row in reader:
            consumed = reader.line_num
            yield row
    except csv.Error:
        offset = sum(len(line) for line in islice(io.StringIO(text), consumed))
        for line in text[offset:].splitlines():
            yield line.split(",")


# Blocks of a few characters put block cuts all through the drawn text.
_BLOCK_SIZES = st.integers(min_value=1, max_value=16)


@given(_CSV_TEXT, _BLOCK_SIZES)
@settings(max_examples=500)
def test_lines_split_as_stringio_iterates(text, block):
    with mock.patch.object(data, "_BLOCK_CHARS", block):
        assert list(_lines(text)) == list(io.StringIO(text))


@given(_CSV_TEXT, _BLOCK_SIZES)
@settings(max_examples=500)
def test_parse_matches_the_stringio_reader(text, block):
    body = CSV_HEADER + "\n" + text
    rows = _stringio_rows(body)
    schema = resolve_schema(next(rows))
    carriers, delays, total, invalid = kernels.scan_rows(
        rows, schema.carrier_idx, schema.delay_idx, schema.cancelled_idx
    )
    with mock.patch.object(data, "_BLOCK_CHARS", block):
        parsed = parse_csv(body)
    assert (parsed.carriers, parsed.delays) == (carriers, delays)
    assert (parsed.stats.total_rows, parsed.stats.invalid_rows) == (total, invalid)


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


def test_parse_peaks_below_twice_the_body():
    store = ObjectStore()
    generate_dataset(_padded_spec(), store)
    body = store.get("part-0000.csv")
    tracemalloc.start()
    try:
        parsed = parse_csv(body)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.stats.total_rows == 30_000
    assert peak <= 2 * len(body), f"parse adds {peak / len(body):.2f}x the body"


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
    assert parse_csv(store.get("part-0000.csv")).stats.total_rows == rows


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

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GenSpec(files=1, rows_per_file=10,
                    carriers=(CarrierProfile("AA", 0.5, 0, 1),))

    def test_ledger_round_trip(self):
        ledger = generate_dataset(small_spec(), ObjectStore())
        loaded = GenLedger.from_json(ledger.to_json())
        assert loaded.carriers == ledger.carriers
        assert (loaded.invalid, loaded.total) == (ledger.invalid, ledger.total)

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
        parsed = parse_csv(store.get("part-0000.csv"))
        transitions = sum(
            1 for a, b in zip(parsed.carriers, parsed.carriers[1:]) if a != b
        )
        assert transitions == len(set(parsed.carriers)) - 1


def test_apportion_is_exact_and_stable():
    counts = _apportion(1000, [0.5, 0.25, 0.25])
    assert counts == [500, 250, 250]
    counts = _apportion(10, [0.34, 0.33, 0.33])
    assert sum(counts) == 10
    assert _apportion(1, [0.9, 0.1]) == [1, 0]
