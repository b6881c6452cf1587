import dataclasses
import hashlib
import json

import pytest

from microreduce import workflow
from microreduce.data import GenSpec, generate_dataset, reference_kv_workload_spec
from microreduce.runtime import render_ledger_csv
from microreduce.scenarios import ScenarioConfig, preset
from microreduce.storage import ObjectStore, ThrottlePolicy
from microreduce.workflow import (
    IncompleteTraceError,
    phase_breakdown,
    phase_breakdown_from_durations,
    run_job,
)


def small_dataset(files=2, rows=800, seed=21, invalid=0.05, order="clustered"):
    raw = ObjectStore()
    spec = GenSpec(files=files, rows_per_file=rows, invalid_fraction=invalid,
                   seed=seed, row_order=order)
    ledger = generate_dataset(spec, raw)
    return raw, ledger


def scenario(files=2, seed=4, **kwargs) -> ScenarioConfig:
    return preset(2, seed=seed).replace(files=files, **kwargs)


class TestRunJob:
    def test_completes_and_matches_oracle_on_both_backends(self):
        raw, ledger = small_dataset()
        for shuffle in ("object", "kv"):
            result = run_job(scenario(shuffle_system=shuffle), raw)
            assert result.status == "completed", result.reason
            assert result.ranking.entries == ledger.expected_ranking(10).entries
            assert result.ingested == result.mapped == ledger.valid

    def test_trace_state_ordering(self):
        raw, _ = small_dataset()
        result = run_job(scenario(), raw)
        events = result.trace.events
        def first(state, outcome):
            return next(e.ts_ms for e in events
                        if e.state == state and e.outcome == outcome)
        def tasks(state):
            return [e for e in events
                    if e.state == state and e.outcome in ("ok", "error", "timeout")]
        assert first("ParallelIngest", "completed") <= first("ReducePrep", "entered")
        gate_exit = first("ReduceGate", "completed")
        for task in tasks("ParallelReduceAggregate"):
            assert task.ts_ms >= gate_exit
        assert first("ReduceRank", "completed") == max(
            e.ts_ms for e in events
        )

    def test_aggregate_fan_out_width_equals_partition_count(self):
        raw, ledger = small_dataset()
        result = run_job(scenario(), raw)
        agg_tasks = [e for e in result.trace.events
                     if e.state == "ParallelReduceAggregate"
                     and e.outcome in ("ok", "error", "timeout")]
        assert len(agg_tasks) == len(result.partitions)
        assert result.partitions == sorted(ledger.carriers)

    def test_gate_read_never_precedes_final_map_counter_write(self):
        raw, _ = small_dataset()
        result = run_job(scenario(), raw)
        mapped_writes = [w.at_ms for w in result.kv.counter_history
                         if w.fieldname == "mapped"]
        # a reduce1 handler reads its partition first, at its start instant
        first_aggregate_read = min(r.start_ms for r in result.records
                                   if r.function == "reduce1")
        assert max(mapped_writes) <= first_aggregate_read
        assert result.gate.passes and result.gate.attempts >= 1

    def test_delivery_order_never_changes_the_ranking(self):
        raw, ledger = small_dataset(files=1, rows=600)
        expected = ledger.expected_ranking(10).entries
        for interleave in (None, 1, 2, 3, 4):
            result = run_job(scenario(files=1, interleave_seed=interleave), raw)
            assert result.status == "completed"
            assert result.ranking.entries == expected

    def test_empty_input_fails_fast(self):
        raw, _ = small_dataset(files=1, rows=50, invalid=0.99)
        # every row invalid: generator keeps blocks < 1 row valid
        spec = GenSpec(files=1, rows_per_file=50, invalid_fraction=0.98, seed=1)
        raw = ObjectStore()
        generate_dataset(spec, raw)
        # rebuild with full invalidity by zeroing ArrDelay column
        body = raw.get("part-0000.csv").decode()
        lines = body.splitlines()
        header = lines[0].split(",")
        delay_idx = header.index("ArrDelay")
        for i in range(1, len(lines)):
            cols = lines[i].split(",")
            cols[delay_idx] = ""
            lines[i] = ",".join(cols)
        raw.put("part-0000.csv", ("\n".join(lines) + "\n").encode())
        result = run_job(scenario(files=1), raw)
        assert result.status == "failed"
        assert "empty input" in result.reason
        assert result.ranking is None

    def test_too_few_files_is_an_error(self):
        raw, _ = small_dataset(files=1)
        with pytest.raises(ValueError):
            run_job(scenario(files=5), raw)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("map_failure_rate", 1.5),
            ("map_failure_rate", -0.1),
            ("object_fault_rate", -0.1),
            ("object_fault_rate", 1.01),
            ("visibility_timeout_ms", 0.0),
            ("gate_poll_ms", -5.0),
            ("gate_max_attempts", 0),
            ("max_receives", 0),
            ("ranking_limit", 0),
            ("throttle", ThrottlePolicy(-1.0, 5.0, True)),
            ("throttle", ThrottlePolicy(0.0, 0.0, True)),
            ("ingest_memory_mb", 64),
            ("map_memory_mb", 64),
            ("reduce1_memory_mb", 20_000),
            ("reduce2_memory_mb", 64),
        ],
    )
    def test_out_of_range_config_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            scenario(files=1, **{field: value})
        doc_value = dataclasses.asdict(value) if field == "throttle" else value
        with pytest.raises(ValueError, match=field):
            ScenarioConfig.from_dict({field: doc_value})

    def test_object_store_faults_stall_the_gate(self):
        raw, _ = small_dataset(files=1, rows=200)
        cfg = scenario(files=1, object_fault_rate=1.0, gate_max_attempts=8,
                       visibility_timeout_ms=1_000.0)
        result = run_job(cfg, raw)
        assert result.status == "stalled"
        assert result.mapped == 0
        assert result.dlq_batches > 0

    def test_stall_reports_counter_values_and_preserves_trace(self):
        raw, _ = small_dataset(files=1, rows=300)
        # short visibility so all three delivery attempts fit in the gate window
        cfg = scenario(files=1, map_failure_rate=1.0, gate_max_attempts=8,
                       visibility_timeout_ms=1_000.0)
        result = run_job(cfg, raw)
        assert result.status == "stalled"
        assert f"ingested={result.ingested}" in result.reason
        assert "mapped=0" in result.reason
        assert any(e.state == "ReduceGate" and e.outcome == "stalled"
                   for e in result.trace.events)
        assert result.dlq_batches > 0
        assert result.mapped == 0

    def test_override_gate_completes_with_loss(self):
        raw, ledger = small_dataset(files=1, rows=300)
        cfg = scenario(files=1, map_failure_rate=1.0, gate_max_attempts=8,
                       visibility_timeout_ms=1_000.0, override_gate=True)
        result = run_job(cfg, raw)
        assert result.status == "completed"
        assert result.gate.overridden
        assert result.ranking_doc == []  # nothing mapped, nothing ranked
        assert result.dlq_rows == ledger.valid

    def test_determinism_byte_identical_artifacts(self):
        def artifacts():
            raw, _ = small_dataset()
            result = run_job(scenario(seed=77), raw)
            from microreduce.runtime import render_ledger_csv

            return (result.trace.to_csv(), render_ledger_csv(result.records),
                    str(result.ranking_doc))

        assert artifacts() == artifacts()

    def test_payload_limit_enforced(self):
        raw, _ = small_dataset(files=1)
        long_keys = [f"part-{'x' * 500}-{i}.csv" for i in range(600)]
        for key in long_keys:
            raw.put(key, b"Year\n")
        result = run_job(scenario(files=1), raw, file_keys=long_keys)
        assert result.status == "failed"
        assert "payload" in result.reason

    @pytest.mark.parametrize(
        "handler", ["ingest_handler", "reduce_aggregate_handler", "reduce_rank_handler"]
    )
    def test_timed_out_task_names_its_timeout(self, monkeypatch, handler):
        def overrun(env, ctx, payload):
            yield 1e9

        monkeypatch.setattr(workflow, handler, overrun)
        raw, _ = small_dataset(files=1, rows=300)
        result = run_job(scenario(files=1), raw)
        assert result.status == "failed"
        assert result.reason.endswith("timed out after 900000 ms"), result.reason


class TestPhaseBreakdown:
    def test_exact_round_trip_from_fabricated_durations(self):
        seconds = {"Ingest": 10.0, "ReducePrep": 1.0, "ReduceGate": 2.0,
                   "ReduceAggregate": 5.0, "ReduceRank": 1.0, "Total": 20.0}
        breakdown = phase_breakdown_from_durations(seconds)
        assert breakdown.seconds["Overhead"] == pytest.approx(1.0)
        assert breakdown.percentages["Ingest"] == pytest.approx(50.0)
        assert breakdown.percentages["Overhead"] == pytest.approx(5.0)
        assert sum(breakdown.percentages.values()) == pytest.approx(100.0)

    def test_degenerate_trace_rejected(self):
        zeros = {name: 0.0 for name in
                 ("Ingest", "ReducePrep", "ReduceGate", "ReduceAggregate", "ReduceRank")}
        zeros["Total"] = 20.0
        with pytest.raises(IncompleteTraceError):
            phase_breakdown_from_durations(zeros)

    def test_missing_phase_rejected(self):
        with pytest.raises(IncompleteTraceError):
            phase_breakdown_from_durations({"Ingest": 1.0, "Total": 2.0})

    def test_breakdown_from_live_trace_sums_to_total(self):
        raw, _ = small_dataset()
        result = run_job(scenario(), raw)
        breakdown = phase_breakdown(result.trace)
        named = sum(breakdown.seconds[p] for p in
                    ("Ingest", "ReducePrep", "ReduceGate", "ReduceAggregate",
                     "ReduceRank", "Overhead"))
        assert named == pytest.approx(breakdown.seconds["Total"], abs=1e-6)
        assert sum(breakdown.percentages.values()) == pytest.approx(100.0, abs=0.5)

    def test_incomplete_live_trace_rejected(self):
        raw, _ = small_dataset(files=1, rows=200)
        result = run_job(scenario(files=1, map_failure_rate=1.0, gate_max_attempts=2),
                         raw)
        with pytest.raises(IncompleteTraceError):
            phase_breakdown(result.trace)


# SHA-256 of the ranking document, trace.csv, ledger.csv and the DLQ bodies
# (joined by newlines), pinned from the engine that polled every idle tick.
# An engine change that keeps virtual-time outputs must keep every digest.
GOLDEN_RUNS = {
    # 12 x 5,000 rows on the throttled KV shuffle: 8 DLQ batches, 330 failed maps
    "preset-6-kv-dlq": (
        lambda: (dataclasses.replace(reference_kv_workload_spec(), seed=11,
                                     rows_per_file=5_000),
                 preset(6, seed=11).replace(override_gate=True)),
        {
            "ranking": "8c4fbe8958d98d38ced7d96ff2a2e3597d1301895b45f111e33766754380ef32",
            "trace": "33b874adad3255e41d981344b598ae948fdf595d761cc4717610ba9e1ac16653",
            "ledger": "ed218d2c5fb13c3e8f5d46a2ddd2ffaacd0742e2f3d56d215aaa0d4077e96a20",
            "dlq": "16f45f431350a699a31a60c1f5b0cbd42f4c3ccecc946056c61d60dd9a7da579",
        },
    ),
    "preset-5-object": (
        lambda: (GenSpec(files=12, rows_per_file=2_000, row_order="shuffled", seed=5),
                 preset(5, seed=5)),
        {
            "ranking": "c7c17885f8ba25468aa224315f7de474abb33a44ec65a779e5ac536ae2fab692",
            "trace": "956adb680a07ebdcfc52798b722e074754b5f92e063b7fd261abfcab1608c65d",
            "ledger": "0bce5b32cff5fdd99449f471c06ea60ac86d2a4d7f3701de5ac075a95e4e9b90",
            "dlq": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_outputs_match_pinned_digests(name):
    build, expected = GOLDEN_RUNS[name]
    spec, config = build()
    raw = ObjectStore()
    generate_dataset(spec, raw)
    result = run_job(config, raw)
    assert result.status == "completed", result.reason
    outputs = {
        "ranking": json.dumps(result.ranking_doc, indent=2) + "\n",
        "trace": result.trace.to_csv(),
        "ledger": render_ledger_csv(result.records),
        "dlq": "\n".join(result.queue.dlq_bodies),
    }
    got = {key: hashlib.sha256(text.encode("utf-8")).hexdigest()
           for key, text in outputs.items()}
    assert got == expected
