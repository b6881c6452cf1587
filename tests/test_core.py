import uuid
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreduce.core import (
    CarrierAggregate,
    new_execution_id,
    on_time_performance,
    rank_carriers,
)


class TestExecutionIds:
    def test_seeded_sequence_is_distinct_and_reproducible(self):
        rng = Random(42)
        first, second = new_execution_id(rng), new_execution_id(rng)
        assert first != second
        rng2 = Random(42)
        assert (new_execution_id(rng2), new_execution_id(rng2)) == (first, second)

    def test_matches_uuid_pattern(self):
        value = new_execution_id(Random(42))
        parsed = uuid.UUID(value)
        assert str(parsed) == value and parsed.version == 4
        assert len(value) == 36 and value == value.lower()


class TestOnTimePerformance:
    def test_zero_sum(self):
        assert on_time_performance(CarrierAggregate("AA", 0, 7)) == 0.0

    def test_exact_division_negative(self):
        assert on_time_performance(CarrierAggregate("AA", -30, 10)) == -3.0

    def test_matches_brute_force_over_rows(self):
        delays = [5, -5, 10, 0]
        agg = CarrierAggregate("ZZ", sum(delays), len(delays))
        assert on_time_performance(agg) == sum(delays) / len(delays) == 2.5

    def test_zero_count_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CarrierAggregate("AA", 0, 0)


class TestRankCarriers:
    def test_empty(self):
        assert rank_carriers([], limit=10).entries == ()

    def test_forced_order_with_truncation(self):
        aggs = [
            CarrierAggregate("AA", 10, 10),
            CarrierAggregate("BB", -10, 10),
            CarrierAggregate("CC", 0, 10),
        ]
        result = rank_carriers(aggs, limit=2)
        assert result.entries == (("BB", -1.0), ("CC", 0.0))

    def test_ties_break_on_carrier_code(self):
        aggs = [CarrierAggregate(c, 2, 4) for c in ("CC", "AA", "BB")]
        result = rank_carriers(aggs)
        assert [c for c, _ in result.entries] == ["AA", "BB", "CC"]

    def test_duplicate_carriers_rejected(self):
        with pytest.raises(ValueError):
            rank_carriers([CarrierAggregate("AA", 1, 1), CarrierAggregate("AA", 2, 2)])


aggregates_strategy = st.lists(
    st.tuples(
        st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=2, max_size=3),
        st.integers(min_value=-10_000, max_value=10_000),
        st.integers(min_value=1, max_value=1_000),
    ),
    max_size=20,
    unique_by=lambda t: t[0],
).map(lambda rows: [CarrierAggregate(c, s, n) for c, s, n in rows])


@given(aggregates_strategy, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_rank_is_sorted_and_permutation_invariant(aggs, rnd):
    baseline = rank_carriers(aggs)
    perfs = [p for _, p in baseline.entries]
    assert perfs == sorted(perfs)
    shuffled = list(aggs)
    rnd.shuffle(shuffled)
    assert rank_carriers(shuffled).entries == baseline.entries


@given(aggregates_strategy, st.integers(min_value=1, max_value=50))
@settings(max_examples=200)
def test_rank_order_invariant_under_uniform_scaling(aggs, k):
    baseline = [c for c, _ in rank_carriers(aggs, limit=100).entries]
    scaled = [
        CarrierAggregate(a.carrier, a.delay_sum * k, a.count * k) for a in aggs
    ]
    assert [c for c, _ in rank_carriers(scaled, limit=100).entries] == baseline
