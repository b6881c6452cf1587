"""Row-scan and group-by kernels.

Validity rule: a row is valid when it is long enough, the carrier field is
non-empty, the delay field parses to an (integral) number, and the
cancelled field does not parse to 1.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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


def scan_rows(
    rows: Iterable[Sequence[str]],
    carrier_idx: int,
    delay_idx: int,
    cancelled_idx: int,
) -> tuple[list[str], list[int], int, int]:
    """Filter raw field rows down to (carrier, delay) pairs.

    Returns ``(carriers, delays, total_rows, invalid_rows)`` where the two
    lists hold only the valid rows, aligned.  Equal carrier codes are one
    shared ``str`` object, so slices of ``carriers`` hold no per-row strings.
    """
    need = max(carrier_idx, delay_idx, cancelled_idx)
    codes: dict[str, str] = {}
    carriers: list[str] = []
    delays: list[int] = []
    total = 0
    invalid = 0
    for row in rows:
        total += 1
        if len(row) <= need:
            invalid += 1
            continue
        carrier = row[carrier_idx].strip()
        if not carrier:
            invalid += 1
            continue
        delay = _parse_delay(row[delay_idx])
        if delay is None or _is_cancelled(row[cancelled_idx]):
            invalid += 1
            continue
        carriers.append(codes.setdefault(carrier, carrier))
        delays.append(delay)
    return carriers, delays, total, invalid


def group_rows(carriers: Sequence[str], delays: Sequence[int]) -> dict[str, tuple[int, int]]:
    """Group aligned (carrier, delay) rows into per-carrier (sum, count)."""
    if len(carriers) != len(delays):
        raise ValueError("carriers and delays must be aligned")
    acc: dict[str, list[int]] = {}
    for carrier, delay in zip(carriers, delays):
        cell = acc.get(carrier)
        if cell is None:
            acc[carrier] = [delay, 1]
        else:
            cell[0] += delay
            cell[1] += 1
    return {carrier: (cell[0], cell[1]) for carrier, cell in acc.items()}
