"""Row-scan and group-by kernel semantics."""

import weakref
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreduce import kernels

from conftest import scan_whole


def test_valid_row_passes():
    carriers, delays, total, invalid = scan_whole([[["AA", "15", "0"]]], 0, 1, 2)
    assert (carriers, delays, total, invalid) == (["AA"], [15], 1, 0)


@pytest.mark.parametrize(
    "row",
    [
        ["AA", "", "0"],        # blank delay
        ["AA", "n/a", "0"],     # non-numeric delay
        ["AA", "15", "1"],      # cancelled
        ["AA", "15", "1.0"],    # cancelled, float form
        ["", "15", "0"],        # missing carrier
        ["AA", "15"],           # short row
        ["AA", "nan", "0"],     # non-finite delay
    ],
)
def test_invalid_rows_filtered(row):
    carriers, delays, total, invalid = scan_whole([[row]], 0, 1, 2)
    assert (carriers, delays) == ([], [])
    assert (total, invalid) == (1, 1)


def test_float_delays_round_and_negative_parse():
    carriers, delays, *_ = scan_whole(
        [[["AA", "-7", "0"], ["BB", "2.6", ""], ["CC", " 12 ", "0.00"]]], 0, 1, 2
    )
    assert carriers == ["AA", "BB", "CC"]
    assert delays == [-7, 3, 12]


class _Rows(list):
    """A block of rows that a weak reference can watch."""


def test_scan_rows_yields_each_block_before_taking_the_next_and_keeps_none():
    pulled = []

    def block(n):
        rows = _Rows([["AA", str(n), "0"]] * n)
        pulled.append(weakref.ref(rows))
        return rows

    scan = kernels.scan_rows(map(block, (1, 2, 3)), 0, 1, 2)
    assert next(scan) == (["AA"], [1])
    assert len(pulled) == 1 and pulled[0]() is None
    assert next(scan) == (["AA"] * 2, [2, 2])
    assert len(pulled) == 2 and pulled[1]() is None
    assert list(scan) == [(["AA"] * 3, [3] * 3)]
    assert scan.gi_frame is None


def test_column_delays_share_one_int_per_text_across_blocks():
    def block(delays):
        n = len(delays)
        return kernels.Columns([b"AA"] * n, delays, [b"0"] * n)

    # Below -5 and above 256, int() builds a new object for each call.
    carriers, delays, total, invalid = scan_whole(
        [block([b"-70", b"300", b"-70"]), block([b"300", b"-70"])], 0, 1, 2)
    assert delays == [-70, 300, -70, 300, -70] and (total, invalid) == (5, 0)
    assert len({id(d) for d in delays}) == 2
    assert len({id(c) for c in carriers}) == 1


def test_column_delay_int_rejects_settles_row_by_row():
    columns = kernels.Columns([b"AA", b"BB", b"CC"], [b"2.6", b"-70", b"x"], [b"0"] * 3)
    assert scan_whole([columns], 0, 1, 2) == (["AA", "BB"], [3, -70], 3, 1)


def test_group_rows_basic():
    groups = kernels.group_rows(["A", "B", "A"], [10, -5, 2])
    assert groups == {"A": (12, 2), "B": (-5, 1)}


def test_group_rows_alignment_check():
    with pytest.raises(ValueError):
        kernels.group_rows(["A"], [1, 2])


def test_micro_batch_grouping_example():
    # 100 rows split 30/30/30/10 across four carriers -> four groups
    carriers = ["A"] * 30 + ["B"] * 30 + ["C"] * 30 + ["D"] * 10
    delays = list(range(100))
    groups = kernels.group_rows(carriers, delays)
    assert len(groups) == 4
    assert groups["D"] == (sum(range(90, 100)), 10)


field_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"),
    max_size=8,
)
numericish = st.one_of(
    st.integers(-2000, 2000).map(str),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(str),
    field_text,
)
rows_strategy = st.lists(
    st.tuples(field_text, numericish, numericish).map(list), max_size=40
)


@given(rows_strategy)
@settings(max_examples=300)
def test_scan_rows_accounts_for_every_row(rows):
    carriers, delays, total, invalid = scan_whole([rows], 0, 1, 2)
    assert total == len(rows)
    assert len(carriers) == len(delays) == total - invalid
    assert all(c and c == c.strip() for c in carriers)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["AA", "BB", "CC", "DD"]), st.integers(-600, 600)
        ),
        max_size=60,
    )
)
@settings(max_examples=300)
def test_group_rows_totals(pairs):
    carriers = [c for c, _ in pairs]
    delays = [d for _, d in pairs]
    groups = kernels.group_rows(carriers, delays)
    assert sum(c for _, c in groups.values()) == len(pairs)
    assert sum(s for s, _ in groups.values()) == sum(delays)


def test_entries_per_batch_equals_distinct_carriers_randomized():
    rng = Random(4242)
    codes = ["AA", "UA", "DL", "WN", "US", "NW", "CO", "TW", "HP", "AS"]
    for _ in range(2_000):
        size = rng.randrange(1, 101)
        carriers = [rng.choice(codes) for _ in range(size)]
        delays = [rng.randrange(-60, 600) for _ in range(size)]
        groups = kernels.group_rows(carriers, delays)
        assert len(groups) == len(set(carriers))


def _reference_group(carriers, delays):
    acc = {}
    for carrier, delay in zip(carriers, delays):
        s, c = acc.get(carrier, (0, 0))
        acc[carrier] = (s + delay, c + 1)
    return acc


# Each code is built afresh, so equal codes are distinct objects and the
# check below sees which one became the key.
_CODE = st.sampled_from(["AA", "UA", "DL"]).map(lambda code: "".join(list(code)))
_DELAY = st.integers(-600, 600)
_BATCH = st.one_of(
    st.tuples(_CODE, st.lists(_DELAY, min_size=1, max_size=60)).map(
        lambda t: ([t[0]] + ["".join(list(t[0])) for _ in t[1][1:]], t[1])),
    st.lists(st.tuples(_CODE, _DELAY), max_size=60).map(
        lambda pairs: ([c for c, _ in pairs], [d for _, d in pairs])),
)


@given(_BATCH)
@settings(max_examples=300)
def test_group_rows_equals_a_dict_loop(batch):
    carriers, delays = batch
    groups = kernels.group_rows(carriers, delays)
    expected = _reference_group(carriers, delays)
    assert groups == expected
    assert [id(key) for key in groups] == [id(key) for key in expected]
