"""Domain types and the on-time-performance query semantics.

The query grouped-by carrier is: mean arrival delay = delay_sum / count,
ranked ascending (early arrivals are negative, so lower is better).
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from random import Random
from typing import Iterable


class DegenerateAggregateError(ValueError):
    """An aggregate with no underlying rows has no defined performance."""


def new_execution_id(rng: Random) -> str:
    """Return a v4-style UUID string drawn from ``rng``, so a seeded
    sequence of ids is reproducible."""
    return str(uuid.UUID(int=rng.getrandbits(128), version=4))


@dataclass(frozen=True, slots=True)
class CarrierAggregate:
    carrier: str
    delay_sum: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("aggregate count must be >= 1")


@dataclass(frozen=True, slots=True)
class RankingResult:
    entries: tuple[tuple[str, float], ...]
    limit: int = 10


def on_time_performance(agg: CarrierAggregate) -> float:
    """Mean arrival delay in minutes; negative means early on average."""
    if agg.count < 1:
        raise DegenerateAggregateError(f"carrier {agg.carrier!r} has no rows")
    return agg.delay_sum / agg.count


def rank_carriers(aggs: Iterable[CarrierAggregate], limit: int = 10) -> RankingResult:
    """Sort carriers by mean delay ascending, carrier code breaking ties.

    Input order never matters; duplicated carriers are rejected.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    aggs = list(aggs)
    seen = set()
    for agg in aggs:
        if agg.carrier in seen:
            raise ValueError(f"duplicate carrier {agg.carrier!r}")
        seen.add(agg.carrier)
    ranked = sorted(
        ((on_time_performance(a), a.carrier) for a in aggs),
        key=lambda pair: (pair[0], pair[1]),
    )
    entries = tuple((carrier, perf) for perf, carrier in ranked[:limit])
    return RankingResult(entries=entries, limit=limit)
