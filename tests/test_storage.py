import itertools
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microreduce.storage import (
    KvItem,
    KvStore,
    MessageQueue,
    ObjectStore,
    ReceivedMessage,
    StorageFaultError,
    ThrottledError,
    ThrottlePolicy,
    TokenBucket,
)

from conftest import FakeClock


class TestObjectStore:
    def test_read_your_write(self):
        store = ObjectStore()
        store.put("k", b"body")
        assert store.get("k") == b"body"

    def test_last_writer_wins(self):
        store = ObjectStore()
        store.put("k", b"one")
        store.put("k", b"two")
        assert store.get("k") == b"two"

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            ObjectStore().get("nope")

    def test_forced_fault_rate(self):
        store = ObjectStore(fault_rate=1.0)
        with pytest.raises(StorageFaultError):
            store.put("k", b"x")
        assert len(store) == 0

    def test_list_prefix_sorted(self):
        store = ObjectStore()
        assert store.list("anything") == []
        for key in ("e/AA/2.json", "e/BB/1.json", "e/AA/1.json"):
            store.put(key, b"x")
        assert store.list("e/AA/") == ["e/AA/1.json", "e/AA/2.json"]
        assert store.list("") == sorted(["e/AA/1.json", "e/AA/2.json", "e/BB/1.json"])

    def test_dump_to_dir(self, tmp_path):
        store = ObjectStore()
        store.put("run/AA/x.json", b"{}")
        store.dump_to_dir(tmp_path)
        assert (tmp_path / "run" / "AA" / "x.json").read_bytes() == b"{}"

    def test_put_keeps_values_and_copies_mutable_buffers(self):
        store, value = ObjectStore(), (b"a", b"b")
        store.put("value", value)
        assert store.get("value") is value
        for buffer in (bytearray(b"ab"), memoryview(bytearray(b"ab"))):
            store.put("buffer", buffer)
            buffer[0] = ord("z")
            assert store.get("buffer") == b"ab"
            assert type(store.get("buffer")) is bytes


_LIST_KEYS = st.text(alphabet=st.sampled_from("ab/\x00\u00dc\uffff\U0010ffff"), max_size=4)


@given(st.lists(st.tuples(st.sampled_from(["put", "delete", "list"]), _LIST_KEYS),
                max_size=60))
@settings(max_examples=500)
def test_object_list_equals_a_sorted_scan(ops):
    store, keys = ObjectStore(), set()
    for op, key in ops:
        if op == "put":
            store.put(key, b"x")
            keys.add(key)
        elif op == "delete":
            store.delete(key)
            keys.discard(key)
        else:
            assert store.list(key) == sorted(k for k in keys if k.startswith(key))
    for prefix in ("", "\u00dc", "\U0010ffff", "a\U0010ffff"):
        assert store.list(prefix) == sorted(k for k in keys if k.startswith(prefix))


class TestTokenBucket:
    def test_burst_arithmetic(self):
        clock = FakeClock()
        bucket = TokenBucket(ThrottlePolicy(0.0, 5.0, enabled=True), clock)
        results = [bucket.try_acquire() for _ in range(6)]
        assert results == [True] * 5 + [False]

    def test_disabled_policy_never_throttles(self):
        bucket = TokenBucket(ThrottlePolicy(0.0, 0.0, enabled=False), FakeClock())
        assert all(bucket.try_acquire() for _ in range(100))

    def test_refill_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(ThrottlePolicy(10.0, 3.0, enabled=True), clock)
        for _ in range(3):
            assert bucket.try_acquire()
        clock.advance(60_000)  # a minute refills far beyond the cap
        results = [bucket.try_acquire() for _ in range(4)]
        assert results == [True, True, True, False]

    @given(
        rate=st.floats(0.0, 50.0),
        burst=st.floats(0.0, 20.0),
        gaps_ms=st.lists(st.floats(0.0, 2_000.0), min_size=1, max_size=60),
    )
    @settings(max_examples=150)
    def test_window_bound(self, rate, burst, gaps_ms):
        # over any demand window, grants <= burst + rate * elapsed
        clock = FakeClock()
        bucket = TokenBucket(ThrottlePolicy(rate, burst, enabled=True), clock)
        granted = 0
        for gap in gaps_ms:
            clock.advance(gap)
            if bucket.try_acquire():
                granted += 1
        elapsed_s = sum(gaps_ms) / 1000.0
        assert granted <= burst + rate * elapsed_s + 1e-6


class TestKvStore:
    def item(self, hk="h", sk="i1#AA", lsi="AA", n=1):
        return KvItem(hk, sk, lsi, {"n": n})

    def test_put_get_query(self):
        kv = KvStore()
        kv.put_item(self.item(sk="i1#AA", lsi="AA"))
        kv.put_item(self.item(sk="i2#AA", lsi="AA"))
        kv.put_item(self.item(sk="i1#BB", lsi="BB"))
        assert kv.get_item("h", "i1#AA") is not None
        assert [it.sort_key for it in kv.query_lsi("h", "AA")] == ["i1#AA", "i2#AA"]
        assert kv.query_lsi("h", "ZZ") == []
        assert len(kv.scan("h")) == 3

    def test_primary_key_unique_last_write_wins(self):
        kv = KvStore()
        kv.put_item(self.item(n=1))
        kv.put_item(self.item(n=2))
        assert kv.get_item("h", "i1#AA").payload["n"] == 2
        assert len(kv.scan("h")) == 1

    def test_lsi_union_equals_scan(self):
        kv = KvStore()
        for i in range(10):
            lsi = "AA" if i % 3 else "BB"
            kv.put_item(self.item(sk=f"i{i}#{lsi}", lsi=lsi))
        union = {it.sort_key for it in kv.query_lsi("h", "AA")} | {
            it.sort_key for it in kv.query_lsi("h", "BB")
        }
        assert union == {it.sort_key for it in kv.scan("h")}

    def test_throttled_write_leaves_store_unchanged(self):
        kv = KvStore(throttle=ThrottlePolicy(0.0, 1.0, enabled=True))
        throttled = 0
        for sk in ("a#AA", "b#AA", "c#AA"):
            try:
                kv.put_item(self.item(sk=sk))
            except ThrottledError:
                throttled += 1
        assert [it.sort_key for it in kv.scan("h")] == ["a#AA"]
        assert throttled == 2

    def test_counter_basics(self):
        kv = KvStore()
        assert kv.counter_add("e", "ingested", 12) == 12
        assert kv.counter_add("e", "ingested", 3) == 15
        assert kv.counter_get("e") == (15, 0)
        assert kv.counter_get("unknown") == (0, 0)
        with pytest.raises(ValueError):
            kv.counter_add("e", "bogus", 1)
        with pytest.raises(ValueError):
            kv.counter_add("e", "mapped", 0)

    def test_counter_replay_to_recorded_total(self):
        # replaying a recorded workload of batched increments reproduces
        # the recorded final value exactly
        kv = KvStore()
        total = 1_299_481
        step = 4_999
        added = 0
        while added < total:
            delta = min(step, total - added)
            kv.counter_add("job", "ingested", delta)
            kv.counter_add("job", "mapped", delta)
            added += delta
        assert kv.counter_get("job") == (total, total)
        # the write history is non-decreasing per field and ends at the counter
        history = {f: [w.value for w in kv.counter_history if w.fieldname == f]
                   for f in ("ingested", "mapped")}
        assert all(values == sorted(values) for values in history.values())
        assert history["mapped"][-1] == kv.counter_get("job")[1]


class TestQueue:
    def test_send_receive_delete(self):
        clock = FakeClock()
        q = MessageQueue(clock=clock)
        q.send("m1")
        got = q.receive(max_messages=10)
        assert [m.body for m in got] == ["m1"]
        assert q.delete(got[0].receipt)
        assert len(q) == 0
        assert q.visible_count() == 0

    def test_invisible_while_in_flight(self):
        clock = FakeClock()
        q = MessageQueue(clock=clock)
        q.send("m1")
        q.receive()
        assert q.receive() == []
        assert q.in_flight_count() == 1

    def test_redelivery_after_visibility_timeout(self):
        clock = FakeClock()
        q = MessageQueue(clock=clock, visibility_timeout_ms=30_000)
        q.send("m1")
        first = q.receive()[0]
        assert first.receive_count == 1
        clock.advance(30_001)
        second = q.receive()[0]
        assert second.receive_count == 2
        assert second.body == "m1"
        # the stale receipt can no longer delete
        assert not q.delete(first.receipt)
        assert q.delete(second.receipt)

    def test_dlq_after_max_receives(self):
        # a body that is not text retires as its str()
        for body in ("poison", ("poison", 7)):
            clock = FakeClock()
            q = MessageQueue(clock=clock, visibility_timeout_ms=1_000, max_receives=3)
            q.send(body)
            deliveries = 0
            for _ in range(10):
                got = q.receive()
                assert all(m.body is body for m in got)
                deliveries += len(got)  # consumer always fails: never deletes
                clock.advance(1_001)
            assert deliveries == 3
            assert q.dlq_count() == 1
            assert q.dlq_bodies == [str(body)]
            assert len(q) == 0

    def test_receipts_are_single_use(self):
        q = MessageQueue(clock=FakeClock())
        q.send("m")
        receipt = q.receive()[0].receipt
        assert q.delete(receipt)
        assert not q.delete(receipt)

    def test_conservation_under_random_consumers(self):
        # every message ends deleted once or dead-lettered, never lost
        import random

        rng = random.Random(99)
        clock = FakeClock()
        q = MessageQueue(clock=clock, visibility_timeout_ms=500, max_receives=3)
        n = 120
        for i in range(n):
            q.send(f"m{i}")
        deleted = 0
        for _ in range(3_000):
            clock.advance(rng.uniform(0, 400))
            for msg in q.receive(max_messages=rng.randrange(1, 4)):
                if rng.random() < 0.5:
                    assert q.delete(msg.receipt)
                    deleted += 1
            if len(q) == 0:
                break
        clock.advance(10_000)
        q.receive()  # final sweep
        assert deleted + q.dlq_count() == n
        assert len(q) == 0


# -- reference model for the queue ------------------------------------------


@dataclass
class _RefEntry:
    body: str
    receive_count: int = 0
    visible_at: float = 0.0
    receipt: Optional[int] = None


class ListSweepQueue:
    """The earlier MessageQueue, kept as the reference: ids in a list, and
    every receive or visible count walks all of them to expire visibility."""

    def __init__(self, clock, visibility_timeout_ms, max_receives):
        self._clock = clock
        self.visibility_timeout_ms = visibility_timeout_ms
        self.max_receives = max_receives
        self._entries: dict[int, _RefEntry] = {}
        self._order: list[int] = []
        self._ids = itertools.count(1)
        self._receipts = itertools.count(1)
        self._receipt_to_id: dict[int, int] = {}
        self.dlq_bodies: list[str] = []

    def send(self, body):
        mid = next(self._ids)
        self._entries[mid] = _RefEntry(body=body)
        self._order.append(mid)

    def _sweep(self, now):
        for mid in list(self._order):
            entry = self._entries.get(mid)
            if entry is None:
                continue
            if entry.receipt is not None and now >= entry.visible_at:
                entry.receipt = None
                if entry.receive_count >= self.max_receives:
                    del self._entries[mid]
                    self._order.remove(mid)
                    self.dlq_bodies.append(entry.body)

    def receive(self, max_messages=1):
        now = self._clock()
        out = []
        self._sweep(now)
        for mid in self._order:
            if len(out) >= max_messages:
                break
            entry = self._entries[mid]
            if entry.receipt is not None:
                continue
            receipt = next(self._receipts)
            entry.receipt = receipt
            entry.receive_count += 1
            entry.visible_at = now + self.visibility_timeout_ms
            self._receipt_to_id[receipt] = mid
            out.append(ReceivedMessage(receipt, entry.body, entry.receive_count))
        return out

    def delete(self, receipt):
        now = self._clock()
        mid = self._receipt_to_id.pop(receipt, None)
        if mid is None:
            return False
        entry = self._entries.get(mid)
        if entry is None or entry.receipt != receipt or now >= entry.visible_at:
            return False
        del self._entries[mid]
        self._order.remove(mid)
        return True

    def visible_count(self):
        self._sweep(self._clock())
        return sum(1 for e in self._entries.values() if e.receipt is None)

    def in_flight_count(self):
        return sum(1 for e in self._entries.values() if e.receipt is not None)

    def __len__(self):
        return len(self._entries)


QUEUE_OPS = st.one_of(
    st.tuples(st.just("send")),
    st.tuples(st.just("receive"), st.integers(1, 3)),
    # receipts are drawn by index into those handed out so far (live,
    # stale or already used), or one never handed out
    st.tuples(st.just("delete"), st.integers(0, 40)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 99.0, 100.0, 101.0, 250.0])),
    st.tuples(st.just("visible_count")),
    # a new timeout applies to later receives only, so deadlines stop
    # following delivery order
    st.tuples(st.just("timeout"), st.sampled_from([50.0, 100.0, 200.0])),
)


@given(
    ops=st.lists(QUEUE_OPS, max_size=80),
    visibility=st.sampled_from([100.0, 200.0]),
    max_receives=st.integers(1, 3),
)
@settings(max_examples=400, deadline=None)
def test_queue_matches_list_sweep_reference(ops, visibility, max_receives):
    clock = FakeClock()
    q = MessageQueue(clock=clock, visibility_timeout_ms=visibility,
                     max_receives=max_receives)
    ref = ListSweepQueue(clock, visibility, max_receives)
    receipts: list[int] = []
    for n, (op, *args) in enumerate(ops):
        if op == "send":
            q.send(f"m{n}")
            ref.send(f"m{n}")
        elif op == "receive":
            got = q.receive(args[0])
            assert got == ref.receive(args[0])
            receipts.extend(m.receipt for m in got)
        elif op == "delete":
            receipt = receipts[args[0]] if args[0] < len(receipts) else 10_000 + args[0]
            assert q.delete(receipt) == ref.delete(receipt)
        elif op == "advance":
            clock.advance(args[0])
        elif op == "timeout":
            q.visibility_timeout_ms = ref.visibility_timeout_ms = args[0]
        else:
            assert q.visible_count() == ref.visible_count()
        assert q.in_flight_count() == ref.in_flight_count()
        assert len(q) == len(ref)
        assert q.dlq_bodies == ref.dlq_bodies
        # a receipt stays mapped only while its message is in flight under it
        for receipt, mid in q._receipt_to_id.items():
            assert q._entries[mid].receipt == receipt
    clock.advance(1_000.0)
    assert q.receive(100) == ref.receive(100)
    assert q.dlq_bodies == ref.dlq_bodies
