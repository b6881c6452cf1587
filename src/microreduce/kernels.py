"""Row-scan and group-by kernels.

Validity rule: a row is valid when it is long enough, the carrier field is
non-empty, the delay field parses to an (integral) number, and the
cancelled field does not parse to 1.

``scan_rows`` takes rows a block at a time and yields each block's valid
rows before it takes the next.  A block is a list of rows, or a
``Columns``: the block's carrier, delay and cancelled fields, one list
each.  It settles a ``Columns`` in C calls over whole columns when each
row's cancelled field is exactly ``0``, its carrier is non-empty once
stripped and ``int`` converts its delay; rows that plainly fail
(cancelled not ``0``, delay or carrier empty) drop out by a mask, and
any other block settles row by row by the same rule.  Carrier fields map
through a table with one shared ``str`` per code, and the delay fields
of a ``Columns`` through a table with one shared ``int`` per text.
``group_rows`` sums a batch of a single carrier in one ``sum``.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import not_
from typing import Generator, Iterable, NamedTuple, Sequence

BACKEND = "python"  # recorded in each benchmark run report


def _parse_delay(text: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return int(round(value))


def _is_cancelled(text: str) -> bool:
    text = text.strip()
    if not text or text == "0":
        return False
    try:
        return float(text) == 1.0
    except ValueError:
        return False


class Columns(NamedTuple):
    """The carrier, delay and cancelled fields of a run of rows, one list each.

    Fields are ``str``, or ASCII ``bytes`` that decode to the same text.
    ``scan_rows`` settles a ``Columns`` item as it would those rows.
    """

    carriers: list
    delays: list
    cancelled: list


def _row_delay(code: str, delay_text: str, cancelled_text: str) -> int | None:
    """The delay a row with this stripped carrier code keeps, or None if it is invalid."""
    if not code:
        return None
    delay = _parse_delay(delay_text)
    if delay is None or _is_cancelled(cancelled_text):
        return None
    return delay


def scan_rows(
    blocks: Iterable[Sequence[Sequence[str]] | Columns],
    carrier_idx: int,
    delay_idx: int,
    cancelled_idx: int,
) -> Generator[tuple[list[str], list[int]], None, tuple[int, int]]:
    """Filter raw field rows down to (carrier, delay) pairs, one block at a time.

    Each item of ``blocks`` is a list of rows' fields, or a ``Columns`` of
    several rows' three fields, which count and settle as those rows
    would.  For each block this yields its valid rows as two aligned
    lists ``(carriers, delays)``, and holds nothing of the block while
    suspended; once ``blocks`` is used up it returns ``(total_rows,
    invalid_rows)``.  Equal carrier codes are one shared ``str`` object,
    so the yielded lists hold no per-row strings.
    """
    idx = (carrier_idx, delay_idx, cancelled_idx)
    codes: dict = {}  # carrier field -> the shared str of its stripped code
    numbers: dict = {}  # delay field of a Columns -> its shared int
    total = 0
    invalid = 0
    for block in blocks:
        carriers: list[str] = []
        delays: list[int] = []
        if type(block) is Columns:
            total += len(block.delays)
            invalid += _settle_columns(block, codes, numbers, carriers, delays)
        else:
            total += len(block)
            invalid += _settle_rows(block, idx, codes, carriers, delays)
        del block  # a suspended scan holds no block
        yield carriers, delays
    return total, invalid


def _settle_rows(rows, idx: tuple[int, int, int], codes: dict, carriers: list,
                 delays: list) -> int:
    """Append the valid rows of ``rows`` and return how many are invalid."""
    carrier_idx, delay_idx, cancelled_idx = idx
    need = max(idx)
    invalid = 0
    for row in rows:
        if len(row) <= need:
            invalid += 1
            continue
        carrier = row[carrier_idx].strip()
        delay = _row_delay(carrier, row[delay_idx], row[cancelled_idx])
        if delay is None:
            invalid += 1
            continue
        carriers.append(codes.setdefault(carrier, carrier))
        delays.append(delay)
    return invalid


def _settle_columns(columns: Columns, codes: dict, numbers: dict, carriers: list,
                    delays: list) -> int:
    """Append the valid rows of ``columns`` and return how many are invalid.

    Rows whose cancelled field is not exactly ``0``, or whose delay or
    carrier is empty, drop out in C; if the validity rule keeps any of
    them, or ``int`` rejects a delay of the rest, the columns settle row
    by row instead.
    """
    raw_carriers, delay_texts, cancelled_texts = columns
    for raw in set(raw_carriers).difference(codes):
        code = (raw.decode() if isinstance(raw, bytes) else raw).strip()
        codes[raw] = codes.setdefault(code, code)
    picked = list(map(codes.__getitem__, raw_carriers))
    zero, empty = (b"0", b"") if isinstance(cancelled_texts[0], bytes) else ("0", "")
    if (cancelled_texts.count(zero) != len(cancelled_texts)
            or empty in delay_texts or "" in picked):
        keep = list(map(all, zip(map(zero.__eq__, cancelled_texts), delay_texts, picked)))
        dropped = compress(zip(picked, delay_texts, cancelled_texts), map(not_, keep))
        if any(_row_delay(*_texts(row)) is not None for row in dropped):
            return _settle_each(columns, codes, carriers, delays)
        picked = list(compress(picked, keep))
        delay_texts = list(compress(delay_texts, keep))
    try:
        for text in set(delay_texts).difference(numbers):
            numbers[text] = int(text)
    except ValueError:
        return _settle_each(columns, codes, carriers, delays)
    carriers += picked
    delays += map(numbers.__getitem__, delay_texts)
    return len(cancelled_texts) - len(delay_texts)


def _texts(fields):
    """``fields`` as ``str``: ASCII ``bytes`` decode to the same text."""
    return [f.decode() if isinstance(f, bytes) else f for f in fields]


def _settle_each(columns: Columns, codes: dict, carriers: list, delays: list) -> int:
    """Settle ``columns`` row by row; every carrier field is already in ``codes``."""
    invalid = 0
    for raw, delay_text, cancelled_text in zip(*columns):
        code = codes[raw]
        delay = _row_delay(code, *_texts((delay_text, cancelled_text)))
        if delay is None:
            invalid += 1
        else:
            carriers.append(code)
            delays.append(delay)
    return invalid


def group_rows(carriers: Sequence[str], delays: Sequence[int]) -> dict[str, tuple[int, int]]:
    """Group aligned (carrier, delay) rows into per-carrier (sum, count)."""
    if len(carriers) != len(delays):
        raise ValueError("carriers and delays must be aligned")
    if carriers and carriers.count(carriers[0]) == len(carriers):
        return {carriers[0]: (sum(delays), len(delays))}
    acc: dict[str, list[int]] = {}
    for carrier, delay in zip(carriers, delays):
        cell = acc.get(carrier)
        if cell is None:
            acc[carrier] = [delay, 1]
        else:
            cell[0] += delay
            cell[1] += 1
    return {carrier: (cell[0], cell[1]) for carrier, cell in acc.items()}
