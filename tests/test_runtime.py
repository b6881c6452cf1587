import math
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from microreduce.calibration import (
    ANCHOR_FILE_BYTES,
    ANCHOR_INGEST_MS,
    ANCHOR_ROWS,
    CalibrationTable,
    DEFAULT_CALIBRATION,
    effective_parallelism,
    fit_ingest_constants,
    vcpus,
)
from microreduce.runtime import (
    FunctionConfig,
    FunctionRuntime,
    Interrupted,
    QueueSource,
    RuntimeLimits,
    StorageClients,
    load_ledger_csv,
    render_ledger_csv,
)
from microreduce.sim import SimError, Simulator
from microreduce.storage import (
    KvItem,
    KvStore,
    MessageQueue,
    ObjectStore,
    StorageFaultError,
    ThrottledError,
    ThrottlePolicy,
)

from conftest import invoke, peak_concurrency

ZERO_INIT = replace(DEFAULT_CALIBRATION, init_ms_mean=0.0, init_ms_sigma=0.0)


def make_runtime(seed=0, limits=None, cal=None, sim=None, objects=None, queue=None):
    sim = sim or Simulator()
    clients = StorageClients(
        cal or DEFAULT_CALIBRATION,
        objects=objects if objects is not None else ObjectStore(),
        raw_objects=ObjectStore(),
        kv=KvStore(clock=sim.now),
        queue=queue if queue is not None else MessageQueue(clock=sim.now),
    )
    return FunctionRuntime(sim, clients, limits=limits or RuntimeLimits(), seed=seed)


def run_to_end(rt, fn, handler, execution_id=""):
    """Run one invocation with an empty payload to its end; return its record."""
    proc = invoke(rt, fn, handler, {}, execution_id)
    rt.sim.run(until=proc.finished)
    return proc.result


def busy_handler(units):
    def handler(ctx, payload):
        yield from ctx.work(units)
        return {"done": True}

    return handler


def latency_handler(ms):
    def handler(ctx, payload):
        yield ms
        return ms

    return handler


def cleanup_handler(reraise):
    # runs 10 ms of cleanup when the timeout is thrown in
    def handler(ctx, payload):
        try:
            yield 10_000.0
        except Exception:
            yield 10.0
            if reraise:
                raise

    return handler


class TestVcpus:
    def test_anchor_points(self):
        assert vcpus(1024) == 2
        assert vcpus(2048) == 2
        assert vcpus(3072) == 3

    def test_floor_of_the_model(self):
        assert vcpus(128) == 1
        assert vcpus(512) == 1

    def test_monotone_and_bounded(self):
        values = [vcpus(m) for m in range(128, 10_241, 64)]
        assert values == sorted(values)
        assert values[0] >= 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vcpus(64)
        with pytest.raises(ValueError):
            vcpus(20_000)


class TestFunctionConfig:
    def test_workers_capped_by_vcpus(self):
        FunctionConfig("f", 3072, workers=3)
        with pytest.raises(ValueError):
            FunctionConfig("f", 1024, workers=3)

    def test_timeout_cap(self):
        with pytest.raises(ValueError):
            FunctionConfig("f", 1024, timeout_ms=900_001)

    def test_memory_domain(self):
        with pytest.raises(ValueError):
            FunctionConfig("f", 64)


class TestCalibrationFit:
    def test_fit_reproduces_frozen_defaults(self):
        row_units, p = fit_ingest_constants(CalibrationTable())
        assert math.isclose(row_units, DEFAULT_CALIBRATION.ingest_row_units)
        assert math.isclose(p, DEFAULT_CALIBRATION.amdahl_parallel_fraction)
        assert 0.0 < p < 1.0

    def test_model_hits_anchors_within_ten_percent(self):
        cal = DEFAULT_CALIBRATION
        batches = math.ceil(ANCHOR_ROWS / 100)
        fixed = (cal.object_get_ms(ANCHOR_FILE_BYTES)
                 + batches * cal.queue_send_ms + cal.counter_add_ms)
        work = ANCHOR_ROWS * cal.ingest_row_units + batches * cal.ingest_batch_units
        for workers, mem in ((1, 1024), (2, 2048), (3, 3072)):
            simulated = fixed + cal.work_ms(work, workers, vcpus(mem))
            target = ANCHOR_INGEST_MS[workers]
            assert abs(simulated - target) / target < 0.10

    def test_doubling_workers_never_doubles_throughput(self):
        cal = DEFAULT_CALIBRATION
        t1 = cal.work_ms(1000.0, 1, 8)
        t2 = cal.work_ms(1000.0, 2, 8)
        t4 = cal.work_ms(1000.0, 4, 8)
        assert t1 / t2 < 2.0 and t2 / t4 < 2.0
        assert t2 < t1 and t4 < t2

    def test_zero_units_is_free(self):
        assert DEFAULT_CALIBRATION.work_ms(0.0, 3, 3) == 0.0

    def test_effective_parallelism_monotone_capped(self):
        p = 0.66
        effs = [effective_parallelism(w, 8, p) for w in range(1, 9)]
        assert effs[0] == 1.0
        assert effs == sorted(effs)
        # vCPU ceiling binds
        assert effective_parallelism(8, 2, p) == effective_parallelism(2, 2, p)

    def test_table_round_trip(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("".join(f"{f.name}={getattr(DEFAULT_CALIBRATION, f.name)!r}\n"
                                for f in fields(CalibrationTable)), encoding="utf-8")
        loaded = CalibrationTable.load(path)
        assert loaded == DEFAULT_CALIBRATION

    def test_table_partial_override(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("# comment\nkv_put_ms = 9.5\n", encoding="utf-8")
        loaded = CalibrationTable.load(path, base=DEFAULT_CALIBRATION)
        assert loaded.kv_put_ms == 9.5
        assert loaded.object_get_base_ms == DEFAULT_CALIBRATION.object_get_base_ms

    def test_table_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("bogus_key=1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            CalibrationTable.load(path)


class TestInvocation:
    def test_first_call_is_cold_with_seeded_init(self):
        rt = make_runtime(seed=1)
        fn = FunctionConfig("fn", 1024)
        record = run_to_end(rt, fn, busy_handler(10.0))
        assert record.cold_start and record.outcome == "ok"
        assert 700 < record.init_ms < 1000  # seeded draw near the 850 mean
        rt2 = make_runtime(seed=1)
        again = run_to_end(rt2, fn, busy_handler(10.0))
        assert again.init_ms == record.init_ms

    def test_warm_reuse_within_idle_window(self):
        rt = make_runtime()
        fn = FunctionConfig("fn", 1024)
        first = run_to_end(rt, fn, busy_handler(5.0))
        second = run_to_end(rt, fn, busy_handler(5.0))
        assert first.cold_start and not second.cold_start
        assert second.init_ms == 0.0

    def test_instance_expires_after_idle_window(self):
        sim = Simulator()
        rt = make_runtime(sim=sim,
                          cal=replace(DEFAULT_CALIBRATION, warm_pool_idle_ms=1_000))
        fn = FunctionConfig("fn", 1024)
        run_to_end(rt, fn, busy_handler(5.0))

        def wait_then_invoke():
            yield 5_000.0
            record = yield from rt.invocation(fn, busy_handler(5.0), {})
            return record

        proc = sim.spawn(wait_then_invoke())
        sim.run(until=proc.finished)
        assert proc.result.cold_start

    def test_serial_invocations_single_cold_start_with_infinite_idle(self):
        rt = make_runtime(cal=replace(DEFAULT_CALIBRATION, warm_pool_idle_ms=math.inf))
        fn = FunctionConfig("fn", 1024)
        records = [run_to_end(rt, fn, busy_handler(1.0)) for _ in range(10)]
        assert sum(r.cold_start for r in records) == 1

    def test_billing_arithmetic(self):
        rt = make_runtime()
        fn = FunctionConfig("fn", 2048)
        record = run_to_end(rt, fn, busy_handler(0.0))
        assert record.billed_gb_ms == 2.0 * record.duration_ms
        # the reference example: 2 GB for 88403 ms bills 176806 GB-ms
        assert 2048 / 1024 * 88403 == 176806

    def test_handler_error_recorded_and_propagates_nothing(self):
        rt = make_runtime()
        fn = FunctionConfig("fn", 1024)

        def broken(ctx, payload):
            yield 1.0
            raise RuntimeError("boom")

        record = run_to_end(rt, fn, broken)
        assert record.outcome == "error"
        assert "boom" in repr(record.exception)
        assert isinstance(record.exception, RuntimeError)

    def test_error_record_drops_tracebacks_along_a_cyclic_chain(self):
        rt = make_runtime()
        fn = FunctionConfig("fn", 1024)
        inner = ValueError("inner")

        def broken(ctx, payload):
            yield 1.0
            try:
                try:
                    raise inner
                except ValueError as exc:
                    raise RuntimeError("outer") from exc
            except RuntimeError as outer:
                inner.__context__ = outer  # a cycle a raise itself would cut
                raise

        record = run_to_end(rt, fn, broken)
        assert record.outcome == "error"
        assert record.exception.__cause__ is inner
        assert inner.__context__ is record.exception
        assert record.exception.__traceback__ is None
        assert inner.__traceback__ is None

    @pytest.mark.parametrize("handler, outcome, duration, resumed_at", [
        pytest.param(latency_handler(100_000.0), "timeout", 500.0, 500.0,
                     id="latency-past-deadline"),
        pytest.param(latency_handler(500.0), "timeout", 500.0, 500.0,
                     id="latency-at-deadline"),
        pytest.param(latency_handler(499.0), "ok", 499.0, 499.0, id="latency-before"),
        pytest.param(cleanup_handler(reraise=True), "timeout", 500.0, 510.0,
                     id="cleanup-reraised"),
        pytest.param(cleanup_handler(reraise=False), "ok", 510.0, 510.0,
                     id="cleanup-swallowed"),
    ])
    def test_timeout_is_exact_and_aborts(self, handler, outcome, duration, resumed_at):
        sim = Simulator()
        rt = make_runtime(sim=sim, cal=replace(DEFAULT_CALIBRATION, init_ms_mean=0.0,
                                               init_ms_sigma=0.0))
        fn = FunctionConfig("fn", 1024, timeout_ms=500)
        resumed = []

        def caller():
            record = yield from rt.invocation(fn, handler, {})
            resumed.append(sim.now())
            yield 1_000.0
            resumed.append(sim.now())
            return record

        proc = sim.spawn(caller())
        sim.run()
        assert (proc.result.outcome, proc.result.duration_ms) == (outcome, duration)
        assert resumed == [resumed_at, resumed_at + 1_000.0]

    def test_timeout_leaves_the_calling_process_running(self):
        sim = Simulator()
        rt = make_runtime(sim=sim, cal=replace(DEFAULT_CALIBRATION, init_ms_mean=0.0,
                                               init_ms_sigma=0.0))
        fn = FunctionConfig("fn", 1024, timeout_ms=500)
        resumed = []

        def caller():
            records = []
            for ms in (10_000.0, 100.0):
                records.append((yield from rt.invocation(fn, latency_handler(ms), {})))
                resumed.append(sim.now())
            yield 20_000.0  # no stray wake and no live timeout
            resumed.append(sim.now())
            return records

        proc = sim.spawn(caller())
        sim.run()
        assert [(r.outcome, r.duration_ms) for r in proc.result] == [
            ("timeout", 500.0), ("ok", 100.0)]
        assert resumed == [500.0, 600.0, 20_600.0]

    def test_queue_consumer_survives_a_handler_timeout(self):
        cal = replace(DEFAULT_CALIBRATION, init_ms_mean=0.0, init_ms_sigma=0.0)
        sim = Simulator()
        queue = MessageQueue(clock=sim.now, visibility_timeout_ms=5_000.0)
        clients = StorageClients(cal, objects=ObjectStore(), kv=KvStore(clock=sim.now),
                                 queue=queue)
        rt = FunctionRuntime(sim, clients)

        def handler(ctx, payload):
            yield 10.0 if rt.ledger else 10_000.0  # only the first attempt overruns
            return None

        queue.send('{"execution_id": "e"}')
        source = QueueSource(rt, FunctionConfig("map", 1024, timeout_ms=1_000), queue,
                             handler)
        source.start()
        sim.run(max_time=60_000.0)
        source.stop()
        assert [(r.outcome, r.start_ms, r.duration_ms) for r in rt.ledger] == [
            ("timeout", 1.0, 1000.0), ("ok", 5022.0, 10.0)]
        assert source.pool_size == 1
        assert len(queue) == 0 and queue.dlq_count() == 0

    def test_default_timeout_is_fifteen_minutes(self):
        rt = make_runtime()
        fn = FunctionConfig("fn", 1024)
        record = run_to_end(rt, fn, busy_handler(1_000_000.0))
        assert record.outcome == "timeout"
        assert record.duration_ms == 900_000.0

    def test_billing_sums_exactly(self):
        rt = make_runtime()
        fn = FunctionConfig("fn", 1536)
        for _ in range(7):
            run_to_end(rt, fn, busy_handler(3.0))
        total = sum(r.billed_gb_ms for r in rt.ledger)
        assert total == sum((1536 / 1024) * r.duration_ms for r in rt.ledger)
        assert sum(r.cold_start for r in rt.ledger) <= len(rt.ledger)


def test_handler_yielding_an_event_fails_loudly():
    # a handler yields only latencies and known ops; a wait on an event is
    # neither, and an unknown op name must not become a handler error that the
    # queue would retry
    sim = Simulator()
    rt = make_runtime(sim=sim, cal=ZERO_INIT)
    ev = sim.event()

    def waits(ctx, payload):
        yield ev
        return None

    def trigger():
        yield 100.0
        ev.trigger()

    sim.spawn(trigger())
    invoke(rt, FunctionConfig("fn", 1024), waits, {})
    with pytest.raises(SimError):
        sim.run()
    assert rt.ledger == []

    def misspells(ctx, payload):
        yield ("object_gte", "k")
        return None

    rt = make_runtime(cal=ZERO_INIT)
    invoke(rt, FunctionConfig("fn", 1024), misspells, {})
    with pytest.raises(SimError, match="'fn'.*object_gte"):
        rt.sim.run()
    assert rt.ledger == []


class TestConcurrencyCeiling:
    def test_cap_enforced_and_fifo(self):
        sim = Simulator()
        rt = make_runtime(sim=sim, limits=RuntimeLimits(account_concurrency=3),
                          cal=replace(DEFAULT_CALIBRATION, init_ms_sigma=0.0))
        fn = FunctionConfig("fn", 1024)
        order = []

        def tracked(tag):
            def handler(ctx, payload):
                yield from ctx.work(100.0)
                order.append(tag)
                return tag

            return handler

        procs = [invoke(rt, fn, tracked(i), {}) for i in range(9)]
        sim.run(until=sim.all_of(procs))
        assert peak_concurrency(rt.ledger) == 3
        assert order == list(range(9))  # FIFO overflow queue

    def test_queued_invocations_not_billed_for_waiting(self):
        sim = Simulator()
        rt = make_runtime(sim=sim, limits=RuntimeLimits(account_concurrency=1),
                          cal=replace(DEFAULT_CALIBRATION, init_ms_mean=0.0,
                                      init_ms_sigma=0.0))
        fn = FunctionConfig("fn", 1024)
        procs = [invoke(rt, fn, busy_handler(100.0), {}) for _ in range(3)]
        sim.run(until=sim.all_of(procs))
        for record in rt.ledger:
            assert record.duration_ms == pytest.approx(100.0)


class TestDeterminism:
    def test_identical_seeds_identical_ledgers(self):
        def run():
            rt = make_runtime(seed=7)
            fn_a = FunctionConfig("a", 1024)
            fn_b = FunctionConfig("b", 2048)
            sim = rt.sim
            procs = [invoke(rt, fn_a, busy_handler(50.0), {}) for _ in range(5)]
            procs += [invoke(rt, fn_b, busy_handler(20.0), {}) for _ in range(5)]
            sim.run(until=sim.all_of(procs))
            return render_ledger_csv(rt.ledger)

        assert run() == run()


class TestLedgerCsv:
    def test_round_trip(self, tmp_path):
        rt = make_runtime()
        fn = FunctionConfig("fn", 1024)
        run_to_end(rt, fn, busy_handler(10.0), execution_id="e1")
        path = tmp_path / "ledger.csv"
        path.write_text(render_ledger_csv(rt.ledger), encoding="utf-8")
        loaded = load_ledger_csv(path)
        assert len(loaded) == 1
        assert loaded[0].function == "fn"
        assert loaded[0].execution_id == "e1"
        assert loaded[0].cold_start is True
        assert loaded[0].duration_ms == pytest.approx(rt.ledger[0].duration_ms, abs=1e-3)

    def test_header_is_frozen(self):
        text = render_ledger_csv([])
        assert text.splitlines()[0] == (
            "function,execution_id,instance_id,cold_start,init_ms,duration_ms,"
            "billed_gb_ms,max_mem_used_mb,outcome"
        )


class TestQueueSourceScaling:
    def run_pool(self, minutes, backlog, cap=1000, handler_ms=1e9):
        sim = Simulator()
        queue = MessageQueue(clock=sim.now)
        rt = make_runtime(sim=sim, limits=RuntimeLimits(
            account_concurrency=10_000, queue_scale_cap=cap), queue=queue)
        for i in range(backlog):
            queue.send('{"execution_id": "e", "n": %d}' % i)

        def slow(ctx, payload):
            yield handler_ms
            return None

        source = QueueSource(rt, FunctionConfig("map", 1024), queue, slow)
        source.start()
        sim.run(max_time=minutes * 60_000.0 + 1.0)
        source.stop()
        return source

    def test_backlog_zero_pool_stays_one(self):
        source = self.run_pool(minutes=5, backlog=0)
        assert source.pool_size == 1

    def test_growth_is_sixty_per_minute(self):
        source = self.run_pool(minutes=3, backlog=100_000)
        assert source.pool_size == 1 + 60 * 3

    def test_growth_respects_cap(self):
        source = self.run_pool(minutes=10, backlog=100_000, cap=150)
        assert source.pool_size == 150


class CountingObjectStore(ObjectStore):
    def __init__(self):
        super().__init__()
        self.queries = 0

    def get(self, key):
        self.queries += 1
        return super().get(key)

    def list(self, prefix=""):
        self.queries += 1
        return super().list(prefix)


class CountingKvStore(KvStore):
    def __init__(self):
        super().__init__()
        self.queries = 0

    def query_lsi(self, hash_key, lsi_sort_key):
        self.queries += 1
        return super().query_lsi(hash_key, lsi_sort_key)

    def scan(self, hash_key):
        self.queries += 1
        return super().scan(hash_key)

    def list_results(self, execution_id):
        self.queries += 1
        return super().list_results(execution_id)


def counting_clients():
    stores = SimpleNamespace(objects=CountingObjectStore(), raw=CountingObjectStore(),
                             kv=CountingKvStore(), queue=MessageQueue())
    for key, size in (("e/AA/1.json", 5_000), ("e/AA/2.json", 10), ("e/UA/1.json", 10)):
        stores.objects.put(key, b"x" * size)
    stores.raw.put("part-0000.csv", b"x" * 3_000)
    for sort_key, pk in (("i1#AA", "AA"), ("i2#AA", "AA"), ("i1#UA", "UA")):
        stores.kv.put_item(KvItem("e", sort_key, pk, {}))
    for carrier in ("AA", "UA"):
        stores.kv.put_result("e", carrier, 10, 2)
    clients = StorageClients(DEFAULT_CALIBRATION, objects=stores.objects,
                             raw_objects=stores.raw, kv=stores.kv, queue=stores.queue)
    return clients, stores


def one_op(*op):
    return (yield op)


def issue(clients, gen):
    """Drive ``gen`` at virtual time 0 with no deadline; return the latencies
    the driver yields and what ``gen`` returns."""
    driver = FunctionRuntime(Simulator(), clients).drive(gen, "fn")
    latencies = []
    try:
        while True:
            latencies.append(next(driver))
    except StopIteration as stop:
        return latencies, stop.value


def snapshot(stores):
    return (stores.objects.list(), stores.kv.scan("e"), stores.kv.counter_get("e"),
            stores.kv.list_results("e"), len(stores.queue))


AT_ISSUE_OPS = {
    "object_get": (("e/AA/1.json",), lambda cal, body: cal.object_get_ms(len(body))),
    "raw_object_get": (("part-0000.csv",), lambda cal, body: cal.object_get_ms(len(body))),
    "object_list": (("e/",), lambda cal, keys: cal.object_list_ms(len(keys))),
    "kv_query_lsi": (("e", "AA"), lambda cal, items: cal.kv_query_ms(len(items))),
    "kv_scan": (("e",), lambda cal, items: cal.kv_query_ms(len(items))),
    "results_list": (("e",), lambda cal, rows: cal.kv_query_ms(len(rows))),
}

WRITE_OPS = {
    "object_put": (("e/BB/1.json", b"x" * 2_048), lambda cal: cal.object_put_ms(2_048)),
    "object_delete": (("e/AA/2.json",), lambda cal: cal.object_put_ms(0)),
    "kv_put": ((KvItem("e", "i3#BB", "BB", {}),), lambda cal: cal.kv_put_ms),
    "kv_delete": (("e", "i1#AA"), lambda cal: cal.kv_put_ms),
    "counter_add": (("e", "mapped", 5), lambda cal: cal.counter_add_ms),
    "results_put": (("e", "BB", 3, 1), lambda cal: cal.kv_put_ms),
    "queue_send": (("body",), lambda cal: cal.queue_send_ms),
}


def test_op_table_applies_reads_that_list_or_fetch_at_issue():
    clients, _ = counting_clients()
    at_issue = {name for name, (applied_at_issue, _, _) in clients.ops.items()
                if applied_at_issue}
    assert at_issue == set(AT_ISSUE_OPS)
    assert set(clients.ops) - at_issue == set(WRITE_OPS) | {
        "counter_get", "queue_receive", "queue_delete"}


@pytest.mark.parametrize("op", sorted(AT_ISSUE_OPS))
def test_read_facade_queries_once_and_prices_its_result(op):
    args, price = AT_ISSUE_OPS[op]
    clients, stores = counting_clients()
    latencies, result = issue(clients, one_op(op, *args))
    assert result
    assert stores.objects.queries + stores.raw.queries + stores.kv.queries == 1
    assert latencies == [price(clients.cal, result)]


@pytest.mark.parametrize("op", sorted(WRITE_OPS))
def test_write_op_is_priced_by_its_args_and_lands_after_its_latency(op):
    args, price = WRITE_OPS[op]
    clients, stores = counting_clients()
    before = snapshot(stores)
    driver = FunctionRuntime(Simulator(), clients).drive(one_op(op, *args), "fn")
    assert next(driver) == price(clients.cal)
    assert snapshot(stores) == before  # not landed while the latency runs
    with pytest.raises(StopIteration):
        next(driver)
    assert snapshot(stores) != before


def test_reads_priced_by_their_args_see_the_state_at_completion():
    clients, stores = counting_clients()
    cal = clients.cal
    counter = FunctionRuntime(Simulator(), clients).drive(one_op("counter_get", "e"), "fn")
    assert next(counter) == cal.counter_get_ms
    stores.kv.counter_add("e", "ingested", 3)
    with pytest.raises(StopIteration) as stop:
        next(counter)
    assert stop.value.value == (3, 0)
    receive = FunctionRuntime(Simulator(), clients).drive(one_op("queue_receive"), "fn")
    assert next(receive) == cal.queue_receive_ms
    stores.queue.send("late")
    with pytest.raises(StopIteration) as stop:
        next(receive)
    assert [msg.body for msg in stop.value.value] == ["late"]


@pytest.mark.parametrize("op, price, error", [
    (("object_put", "e/BB/1.json", b"x"), lambda cal: cal.object_put_ms(1), StorageFaultError),
    (("kv_put", KvItem("e", "i3#BB", "BB", {})), lambda cal: cal.kv_put_ms, ThrottledError),
], ids=["object_put", "kv_put"])
def test_write_op_failure_is_thrown_in_at_its_yield_after_the_latency(op, price, error):
    objects = ObjectStore(fault_rate=1.0)
    kv = KvStore(throttle=ThrottlePolicy(0.0, 0.0, enabled=True))
    clients = StorageClients(DEFAULT_CALIBRATION, objects=objects, kv=kv)

    def handler():
        try:
            yield op
        except error as exc:
            return exc

    latencies, result = issue(clients, handler())
    assert latencies == [price(DEFAULT_CALIBRATION)]
    assert isinstance(result, error)
    assert objects.list() == [] and kv.scan("e") == []


def test_object_get_missing_key_raises_before_yield():
    clients, _ = counting_clients()

    def handler():
        try:
            yield ("object_get", "e/AA/missing.json")
        except KeyError:
            return "missing"

    assert issue(clients, handler()) == ([], "missing")


def test_empty_explicit_store_is_not_swapped_for_the_shuffle_store():
    # an empty ObjectStore is falsy (it has __len__); the op table must still
    # bind the store it is given
    shuffle, raw = ObjectStore(), ObjectStore()
    shuffle.put("part-0000.csv", b"shuffle body")
    clients = StorageClients(DEFAULT_CALIBRATION, objects=shuffle, raw_objects=raw)
    with pytest.raises(KeyError):
        issue(clients, one_op("raw_object_get", "part-0000.csv"))
    issue(clients, one_op("object_put", "part-0001.csv", b"body"))
    assert raw.list() == []
    assert shuffle.list() == ["part-0000.csv", "part-0001.csv"]


@pytest.mark.parametrize("timeout_ms", [1, 2], ids=["crosses", "reaches"])
def test_write_op_whose_latency_reaches_the_deadline_never_lands(timeout_ms):
    # an empty put costs object_put_base_ms = 2 ms
    assert ZERO_INIT.object_put_ms(0) == 2.0
    objects = ObjectStore()
    rt = make_runtime(cal=ZERO_INIT, objects=objects)

    def handler(ctx, payload):
        yield ("object_put", "k", b"")

    record = run_to_end(rt, FunctionConfig("fn", 1024, timeout_ms=timeout_ms), handler)
    rt.sim.run()
    assert (record.outcome, record.duration_ms) == ("timeout", float(timeout_ms))
    assert objects.list() == []


def test_write_op_issued_in_cleanup_after_the_timeout_lands_uncut():
    objects = ObjectStore()
    rt = make_runtime(cal=ZERO_INIT, objects=objects)

    def handler(ctx, payload):
        try:
            yield 10_000.0
        except Interrupted:
            yield ("object_put", "tombstone", b"x" * 4_096)
            raise

    record = run_to_end(rt, FunctionConfig("fn", 1024, timeout_ms=500), handler)
    assert (record.outcome, record.duration_ms) == ("timeout", 500.0)
    assert objects.list() == ["tombstone"]
    assert rt.sim.now() == 500.0 + ZERO_INIT.object_put_ms(4_096)


class CountingQueue(MessageQueue):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.receive_instants = []

    def receive(self, max_messages=1):
        self.receive_instants.append(self._clock())
        return super().receive(max_messages)


def test_idle_consumer_receives_at_its_poll_ticks_without_polling():
    cal = replace(DEFAULT_CALIBRATION, init_ms_mean=0.0, init_ms_sigma=0.0)
    poll, receive = cal.consumer_poll_interval_ms, cal.queue_receive_ms
    # A's deadline lands exactly on a tick: 1408 + 19,950 = 1459 + 99 * 201
    visibility, work = 19_950.0, 50.0

    def first_tick(last, at_or_after):
        # a polling consumer's receive instants after an empty receive at last
        t = (last + poll) + receive
        while t < at_or_after:
            t = (t + poll) + receive
        return t

    sim = Simulator()
    queue = CountingQueue(clock=sim.now, visibility_timeout_ms=visibility)
    clients = StorageClients(cal, objects=ObjectStore(), kv=KvStore(clock=sim.now),
                             queue=queue)
    rt = FunctionRuntime(sim, clients)
    failed = []

    received = []

    def handler(ctx, payload):
        received.append(payload)
        yield work
        if payload.n == "A" and not failed:
            failed.append(True)
            raise RuntimeError("first attempt fails")
        return None

    sends = {"A": 1_234.5, "B": 100_000.75}
    bodies = {n: SimpleNamespace(execution_id="e", n=n) for n in sends}

    def sender():
        for n, at in sends.items():
            yield at - sim.now()
            queue.send(bodies[n])

    sim.spawn(sender())
    source = QueueSource(rt, FunctionConfig("map", 1024), queue, handler)
    source.start()

    # first receive at 1.0 finds nothing; A is taken at the first tick after
    # its send, fails, and comes back at the first tick after its deadline
    a1 = first_tick(1.0, sends["A"])
    idle = (a1 + work) + receive
    a2 = first_tick(idle, a1 + visibility)
    idle = ((a2 + work) + cal.queue_delete_ms) + receive
    b1 = first_tick(idle, sends["B"])
    idle = ((b1 + work) + cal.queue_delete_ms) + receive
    sim.run(max_time=idle + 300_000.0)
    source.stop()

    assert [(r.outcome, r.start_ms) for r in rt.ledger] == [
        ("error", a1), ("ok", a2), ("ok", b1)]
    # the handler gets the very object sent, and the ledger its execution id
    assert len(received) == 3
    assert all(got is bodies[n] for got, n in zip(received, "AAB"))
    assert {r.execution_id for r in rt.ledger} == {"e"}
    assert source.pool_size == 1
    assert len(queue) == 0 and queue.dlq_count() == 0
    # a polling consumer would receive ~1,490 times in the idle stretch
    assert len([t for t in queue.receive_instants if t > idle]) <= 3


def test_every_receive_goes_through_the_op_table():
    # sends spaced wider than a poll put the consumer to sleep between them;
    # the receive at each wake is the table's op like every polling receive
    sim = Simulator()
    queue = CountingQueue(clock=sim.now)
    rt = make_runtime(sim=sim, cal=ZERO_INIT, queue=queue)
    at_issue, receive, price = rt.clients.ops["queue_receive"]
    applied = []

    def counted_receive():
        applied.append(sim.now())
        return receive()

    rt.clients.ops["queue_receive"] = (at_issue, counted_receive, price)

    def sender():
        for _ in range(3):
            yield 10_000.0
            queue.send(SimpleNamespace(execution_id="e"))

    def handler(ctx, payload):
        yield 5.0

    sim.spawn(sender())
    source = QueueSource(rt, FunctionConfig("map", 1024), queue, handler)
    source.start()
    sim.run(max_time=60_000.0)
    source.stop()

    assert [r.outcome for r in rt.ledger] == ["ok"] * 3
    # an empty receive at the start and after each message, and one at each wake
    assert len(queue.receive_instants) == 7
    assert applied == queue.receive_instants
