import json
from functools import partial
from types import SimpleNamespace

from microreduce.calibration import DEFAULT_CALIBRATION
from microreduce.core import DegenerateAggregateError
from microreduce.data import CSV_HEADER, GenSpec, generate_dataset
from microreduce.pipeline import (
    GateState,
    IngestEvent,
    MapWriteError,
    PipelineEnv,
    batch_body,
    ingest_handler,
    map_handler,
    reduce_aggregate_handler,
    reduce_gate,
    reduce_rank_handler,
)
from microreduce.ports import ShuffleEntry, make_adapter
from microreduce.runtime import FunctionConfig, FunctionRuntime, StorageClients
from microreduce.sim import Simulator
from microreduce.storage import (
    KvStore,
    MessageQueue,
    ObjectStore,
    ThrottlePolicy,
)

EID = "7b8c1d84-e894-4969-83f3-72df58013200"


def make_harness(shuffle="object", throttle=None, batch_size=100,
                 map_failure_rate=0.0, seed=0):
    sim = Simulator()
    clients = StorageClients(
        DEFAULT_CALIBRATION,
        objects=ObjectStore(),
        raw_objects=ObjectStore(),
        kv=KvStore(clock=sim.now, throttle=throttle),
        queue=MessageQueue(clock=sim.now),
    )
    port = make_adapter(shuffle, clients)
    runtime = FunctionRuntime(sim, clients, seed=seed)
    env = PipelineEnv(port=port, batch_size=batch_size,
                      map_failure_rate=map_failure_rate)
    return SimpleNamespace(sim=sim, clients=clients, port=port, runtime=runtime,
                           env=env, kv=clients.kv, queue=clients.queue,
                           raw=clients.raw_objects, objects=clients.objects)


def invoke(h, fn, handler, payload, eid=EID):
    proc = h.runtime.invoke(fn, partial(handler, h.env), payload, eid)
    h.sim.run(until=proc.finished)
    return proc.result


def csv_with_rows(n_valid):
    lines = [CSV_HEADER]
    for i in range(n_valid):
        lines.append(
            f"1999,1,1,1,900,855,1000,955,AA,{i},N1AA,60,60,50,"
            f"{i % 30},0,ORD,DFW,500,5,10,0,,0,0,0,0,0,0"
        )
    return ("\n".join(lines) + "\n").encode()


class TestIngest:
    def ingest(self, h, body, batch_size=100):
        h.raw.put("in.csv", body)
        h.env.batch_size = batch_size
        fn = FunctionConfig("ingest", 2048, workers=2)
        event = IngestEvent(EID, "raw", "in.csv").to_dict()
        return invoke(h, fn, ingest_handler, event)

    def test_batch_arithmetic_with_short_tail(self):
        h = make_harness()
        record = self.ingest(h, csv_with_rows(1_234))
        assert record.outcome == "ok"
        assert record.result == {
            "batches_emitted": 13, "records_emitted": 1234,
            "total_rows": 1234, "invalid_rows": 0,
        }
        assert h.queue.sent_count == 13
        bodies = [h.queue.receive()[0] for _ in range(13)]
        sizes = [len(json.loads(m.body)["records"]) for m in bodies]
        assert sizes == [100] * 12 + [34]
        assert h.kv.counter_get(EID) == (1234, 0)

    def test_empty_file_touches_nothing(self):
        h = make_harness()
        record = self.ingest(h, (CSV_HEADER + "\n").encode())
        assert record.outcome == "ok"
        assert record.result["batches_emitted"] == 0
        assert h.kv.counter_get(EID) == (0, 0)
        assert h.queue.sent_count == 0

    def test_broken_header_is_invocation_error_nothing_counted(self):
        h = make_harness()
        record = self.ingest(h, b"Year,Month\n1,2\n")
        assert record.outcome == "error"
        assert h.kv.counter_get(EID) == (0, 0)
        assert h.queue.sent_count == 0

    def test_counter_written_only_after_all_sends(self):
        h = make_harness()
        h.raw.put("in.csv", csv_with_rows(500))
        fn = FunctionConfig("ingest", 2048, workers=2)
        event = IngestEvent(EID, "raw", "in.csv").to_dict()
        violations = []

        def watcher():
            while True:
                ingested, _ = h.kv.counter_get(EID)
                if ingested > 0 and h.queue.sent_count != 5:
                    violations.append((ingested, h.queue.sent_count))
                if ingested > 0:
                    return
                yield 1.0

        h.sim.spawn(watcher())
        proc = h.runtime.invoke(fn, partial(ingest_handler, h.env), event, EID)
        h.sim.run(until=proc.finished)
        assert proc.result.outcome == "ok"
        assert not violations

    def test_invalid_rows_filtered_at_ingest(self):
        h = make_harness()
        body = csv_with_rows(10) + b"1999,1,1,1,900,855,1000,955,AA,9,N1AA,60,60,50,,0,ORD,DFW,500,5,10,0,,0,0,0,0,0,0\n"
        record = self.ingest(h, body)
        assert record.result["records_emitted"] == 10
        assert record.result["invalid_rows"] == 1


class TestMap:
    def payload(self, counts: dict[str, int], seq=0):
        records = []
        for carrier, n in counts.items():
            records.extend([carrier, 7] for _ in range(n))
        return json.loads(batch_body(EID, seq, "in.csv", records))

    def test_four_carriers_four_entries(self):
        h = make_harness()
        fn = FunctionConfig("map", 128)
        record = invoke(h, fn, map_handler, self.payload({"A": 30, "B": 30, "C": 30, "D": 10}))
        assert record.outcome == "ok"
        assert record.result == {"entries_written": 4}
        assert h.kv.counter_get(EID) == (0, 100)

    def test_single_carrier_single_entry_full_count(self):
        h = make_harness()
        record = invoke(h, FunctionConfig("map", 128), map_handler,
                        self.payload({"AA": 100}))
        assert record.result == {"entries_written": 1}
        entries = [e for e in self._entries(h, "AA")]
        assert len(entries) == 1
        assert entries[0].count == 100
        assert entries[0].delay_sum == 700

    def _entries(self, h, pk):
        gen = h.port.read_partition(EID, pk)
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def test_injected_failure_tombstones_and_skips_counter(self):
        h = make_harness(map_failure_rate=1.0)
        record = invoke(h, FunctionConfig("map", 128), map_handler,
                        self.payload({"A": 50, "B": 50}))
        assert record.outcome == "error"
        assert "InjectedMapFailure" in repr(record.exception)
        assert h.kv.counter_get(EID) == (0, 0)
        assert self._entries(h, "A") == [] and self._entries(h, "B") == []

    def test_throttled_twice_fails_batch_cleanly(self):
        h = make_harness(shuffle="kv",
                         throttle=ThrottlePolicy(0.0, 1.0, enabled=True))
        record = invoke(h, FunctionConfig("map", 128), map_handler,
                        self.payload({"A": 10, "B": 10}))
        assert record.outcome == "error"
        assert isinstance(record.exception, MapWriteError)
        assert h.kv.counter_get(EID) == (0, 0)
        assert h.kv.scan(EID) == []  # first write tombstoned with the rest

    def test_throttle_retry_can_succeed_after_refill(self):
        # burst covers one write; the 50 ms backoff refills enough for the retry
        h = make_harness(shuffle="kv",
                         throttle=ThrottlePolicy(40.0, 1.0, enabled=True))
        record = invoke(h, FunctionConfig("map", 128), map_handler,
                        self.payload({"A": 10, "B": 10}))
        assert record.outcome == "ok"
        assert h.kv.counter_get(EID) == (0, 20)

    def test_redelivered_batch_counts_once(self):
        h = make_harness()
        payload = self.payload({"A": 60, "B": 40}, seq=3)
        first = invoke(h, FunctionConfig("map", 128), map_handler, payload)
        second = invoke(h, FunctionConfig("map", 128), map_handler, payload)
        assert first.outcome == second.outcome == "ok"
        # both attempts' entries exist under distinct instance ids, and the
        # per-partition totals are resolved by the counter rule: only
        # successful attempts incremented the counter
        assert h.kv.counter_get(EID) == (0, 200)
        entries = self._entries(h, "A")
        assert len(entries) == 2
        assert {e.instance_id for e in entries} == {first.instance_id, second.instance_id}


class TestGate:
    def run_gate(self, h, **kwargs):
        proc = h.sim.spawn(reduce_gate(h.clients, EID, **kwargs))
        h.sim.run(until=proc.finished)
        return proc.result

    def test_equal_counters_pass(self):
        h = make_harness()
        h.kv.counter_add(EID, "ingested", 12)
        h.kv.counter_add(EID, "mapped", 12)
        state = self.run_gate(h)
        assert state.passes and not state.overridden
        assert state.attempts == 1
        assert (state.ingested, state.mapped) == (12, 12)

    def test_zero_counters_do_not_pass(self):
        h = make_harness()
        state = self.run_gate(h, max_attempts=3)
        assert not state.passes
        assert state.attempts == 3

    def test_forever_lagging_map_stalls(self):
        h = make_harness()
        h.kv.counter_add(EID, "ingested", 100)
        h.kv.counter_add(EID, "mapped", 99)
        state = self.run_gate(h, max_attempts=5)
        assert not state.passes
        assert (state.ingested, state.mapped) == (100, 99)

    def test_override_passes_a_stalled_gate(self):
        h = make_harness()
        h.kv.counter_add(EID, "ingested", 100)
        h.kv.counter_add(EID, "mapped", 94)
        state = self.run_gate(h, max_attempts=4, override_on_stall=True)
        assert state.passes and state.overridden

    def test_delayed_map_needs_proportional_polls(self):
        h = make_harness()
        h.kv.counter_add(EID, "ingested", 10)

        def late_mapper():
            yield 5_000.0
            h.kv.counter_add(EID, "mapped", 10)

        h.sim.spawn(late_mapper())
        state = self.run_gate(h)
        assert state.passes
        assert state.attempts >= 5
        # the pass check happened at or after the counter write
        write_time = max(w.at_ms for w in h.kv.counter_history)
        assert h.sim.now() >= write_time

    def test_gate_state_invariant(self):
        assert GateState(EID, 5, 5, 1).passes
        assert not GateState(EID, 0, 0, 1).passes
        assert GateState(EID, 5, 3, 1, overridden=True).passes


class TestReduceAggregate:
    def seed_entries(self, h, pk, parts):
        for i, (s, c) in enumerate(parts):
            iid = f"0000000{i}-0000-4000-8000-00000000000{i}"
            gen = h.port.write_entry(ShuffleEntry(EID, pk, iid, s, c))
            try:
                while True:
                    next(gen)
            except StopIteration:
                pass

    def test_merge_example(self):
        h = make_harness()
        self.seed_entries(h, "AA", [(10, 2), (-4, 2)])
        record = invoke(h, FunctionConfig("reduce1", 10240), reduce_aggregate_handler,
                        {"partition_key": "AA"})
        assert record.outcome == "ok"
        assert record.result["delay_sum"] == 6
        assert record.result["count"] == 4
        assert h.kv.list_results(EID) == [("AA", 6, 4)]

    def test_zero_entries_degenerate(self):
        h = make_harness()
        record = invoke(h, FunctionConfig("reduce1", 10240), reduce_aggregate_handler,
                        {"partition_key": "GHOST"})
        assert record.outcome == "error"
        assert isinstance(record.exception, DegenerateAggregateError)
        assert h.kv.list_results(EID) == []

    def test_duration_scales_with_entry_volume(self):
        h = make_harness()
        sizes = {"AA": 400, "HP": 110, "PS": 5}
        for pk, n in sizes.items():
            self.seed_entries(h, pk, [(1, 1)] * n)
        durations = {}
        for pk in sizes:
            record = invoke(h, FunctionConfig("reduce1", 10240),
                            reduce_aggregate_handler, {"partition_key": pk})
            durations[pk] = record.duration_ms
        ratio_entries = sizes["AA"] / sizes["HP"]
        ratio_durations = durations["AA"] / durations["HP"]
        assert abs(ratio_durations - ratio_entries) / ratio_entries < 0.20

    def test_timeout_when_volume_exceeds_budget(self):
        h = make_harness()
        self.seed_entries(h, "AA", [(1, 1)] * 200)
        record = invoke(h, FunctionConfig("reduce1", 10240, timeout_ms=1_000),
                        reduce_aggregate_handler, {"partition_key": "AA"})
        assert record.outcome == "timeout"
        assert record.duration_ms == 1_000.0
        assert h.kv.list_results(EID) == []  # aborted before the write


class TestReduceRank:
    def test_oracle_identical_ranking_and_artifact(self):
        h = make_harness()
        spec = GenSpec(files=1, rows_per_file=2_000, seed=5)
        ledger = generate_dataset(spec, ObjectStore())
        for carrier, (s, c) in ledger.carriers.items():
            h.kv.put_result(EID, carrier, s, c)
        record = invoke(h, FunctionConfig("reduce2", 128), reduce_rank_handler,
                        {"limit": 10})
        assert record.outcome == "ok"
        expected = ledger.expected_ranking(10)
        got = [(d["carrier"], d["on_time_performance"]) for d in record.result["ranking"]]
        assert got == list(expected.entries)
        stored = json.loads(h.objects.get(f"rankings/{EID}.json"))
        assert stored == record.result["ranking"]
        assert all(list(d) == ["carrier", "on_time_performance"] for d in stored)

    def test_limit_one(self):
        h = make_harness()
        h.kv.put_result(EID, "AA", 10, 10)
        h.kv.put_result(EID, "BB", -10, 10)
        record = invoke(h, FunctionConfig("reduce2", 128), reduce_rank_handler,
                        {"limit": 1})
        assert record.result["ranking"] == [
            {"carrier": "BB", "on_time_performance": -1.0}
        ]

    def test_duration_is_tens_of_ms_at_small_memory(self):
        h = make_harness()
        for i, carrier in enumerate(["AA", "BB", "CC", "DD"]):
            h.kv.put_result(EID, carrier, i, 10)
        record = invoke(h, FunctionConfig("reduce2", 128), reduce_rank_handler, {})
        assert 10.0 <= record.duration_ms <= 120.0
