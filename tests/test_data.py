import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreduce.data import (
    CSV_HEADER,
    CarrierProfile,
    GenLedger,
    GenSpec,
    MissingColumnError,
    _apportion,
    generate_dataset,
    parse_csv,
    resolve_schema,
)
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
