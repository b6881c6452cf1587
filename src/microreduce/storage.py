"""Local emulations of object storage, key-value storage, and queuing.

All three backends are in-memory and hold no locks: every call comes from
the simulator's single thread, so each call finishes before the next one
starts.  Time comes from an injected ``clock`` callable (milliseconds),
so they act alike under the virtual clock and fake test clocks.  Latency
is *not* modeled here; callers charge it on the virtual timeline.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable, Optional

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


class StorageFaultError(RuntimeError):
    """Injected backend fault."""


class ThrottledError(RuntimeError):
    """Write rejected by the provisioning throttle; store unchanged."""


# -- token bucket ----------------------------------------------------------


@dataclass
class ThrottlePolicy:
    sustained_ops_per_sec: float = 0.0
    burst_capacity: float = 0.0
    enabled: bool = False


class TokenBucket:
    """Standard token bucket; available tokens never exceed the burst cap."""

    def __init__(self, policy: ThrottlePolicy, clock: Clock):
        self.policy = policy
        self._clock = clock
        self._tokens = float(policy.burst_capacity)
        self._last = clock()

    def try_acquire(self, n: float = 1.0) -> bool:
        if not self.policy.enabled:
            return True
        now = self._clock()
        elapsed_s = max(0.0, now - self._last) / 1000.0
        self._last = now
        self._tokens = min(
            self.policy.burst_capacity,
            self._tokens + elapsed_s * self.policy.sustained_ops_per_sec,
        )
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False


# -- object store ----------------------------------------------------------


class ObjectStore:
    """Prefix-addressed store of values; last writer wins, listing is sorted.

    A body is kept as given, unless it is a mutable ``bytearray`` or
    ``memoryview``, which is copied to ``bytes``.  Its ``len`` is its size in
    bytes, which prices it, and ``bytes(body)`` renders it only when the store
    is dumped; so a ``ShuffleEntry`` is stored as itself.  Listing bisects a
    sorted key list, rebuilt on the first listing after a new key or a delete.
    """

    def __init__(self, fault_rate: float = 0.0, fault_seed: int = 0):
        self._objects: dict[str, Any] = {}
        self._sorted_keys: Optional[list[str]] = []  # None when stale
        self.fault_rate = fault_rate
        self._fault_rng = Random(fault_seed)

    def put(self, key: str, body: Any) -> None:
        if self.fault_rate > 0.0 and self._fault_rng.random() < self.fault_rate:
            raise StorageFaultError(f"injected fault on put {key!r}")
        if isinstance(body, (bytearray, memoryview)):
            body = bytes(body)
        objects = self._objects
        if key not in objects:
            self._sorted_keys = None
        objects[key] = body

    def get(self, key: str) -> Any:
        try:
            return self._objects[key]
        except KeyError:
            raise KeyError(f"no such object {key!r}") from None

    def delete(self, key: str) -> None:
        objects = self._objects
        if key in objects:
            del objects[key]
            self._sorted_keys = None

    def list(self, prefix: str = "") -> list[str]:
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._objects)
        # The keys that start with ``prefix`` are one run that begins where
        # ``prefix`` itself would sort; a key's first ``len(prefix)``
        # characters sort like the key, so the run ends at the first key
        # whose cut sorts after ``prefix``.
        start = bisect_left(keys, prefix)
        n = len(prefix)
        return keys[start:bisect_right(keys, prefix, start, key=lambda k: k[:n])]

    def size(self, key: str) -> int:
        return len(self.get(key))

    def __len__(self) -> int:
        return len(self._objects)

    def dump_to_dir(self, root: Path | str) -> None:
        """Mirror stored keys as files under ``root``, each holding
        ``bytes(body)``, for inspection."""
        root = Path(root)
        for key, body in self._objects.items():
            path = root / key
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(body))


# -- key-value store -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class KvItem:
    """Item in the shuffle table.

    The physical sort key combines the writing invocation's instance id
    with the partition key, because one invocation emits one item per
    partition key and (hash_key, sort_key) must stay unique.
    """

    hash_key: str
    sort_key: str
    lsi_sort_key: str
    payload: Any


@dataclass(slots=True)
class CounterWrite:
    at_ms: float
    execution_id: str
    fieldname: str
    value: int


class KvStore:
    """Key-value tables: shuffle items (with an LSI), counters, results.

    ``counter_add`` loses no update because no two calls overlap (see the
    module docstring); the write history is kept for event-order audits.
    """

    def __init__(self, clock: Clock = _zero_clock,
                 throttle: Optional[ThrottlePolicy] = None):
        self._clock = clock
        self._items: dict[str, dict[str, KvItem]] = {}
        self._counters: dict[str, dict[str, int]] = {}
        self._results: dict[str, dict[str, tuple[int, int]]] = {}
        self.counter_history: list[CounterWrite] = []
        self.bucket = TokenBucket(throttle or ThrottlePolicy(), clock)

    # shuffle table

    def put_item(self, item: KvItem) -> None:
        if not self.bucket.try_acquire():
            raise ThrottledError(
                f"write capacity exceeded for {item.hash_key}/{item.sort_key}"
            )
        self._items.setdefault(item.hash_key, {})[item.sort_key] = item

    def get_item(self, hash_key: str, sort_key: str) -> Optional[KvItem]:
        return self._items.get(hash_key, {}).get(sort_key)

    def delete_item(self, hash_key: str, sort_key: str) -> None:
        self._items.get(hash_key, {}).pop(sort_key, None)

    def query_lsi(self, hash_key: str, lsi_sort_key: str) -> list[KvItem]:
        """All items under ``hash_key`` whose index key matches, sort-key order."""
        bucket = self._items.get(hash_key, {})
        return [
            bucket[k] for k in sorted(bucket) if bucket[k].lsi_sort_key == lsi_sort_key
        ]

    def scan(self, hash_key: str) -> list[KvItem]:
        bucket = self._items.get(hash_key, {})
        return [bucket[k] for k in sorted(bucket)]

    # counters

    def counter_add(self, execution_id: str, fieldname: str, delta: int) -> int:
        if fieldname not in ("ingested", "mapped"):
            raise ValueError(f"unknown counter field {fieldname!r}")
        if delta < 1:
            raise ValueError("delta must be >= 1")
        row = self._counters.setdefault(execution_id, {"ingested": 0, "mapped": 0})
        row[fieldname] += delta
        value = row[fieldname]
        self.counter_history.append(
            CounterWrite(self._clock(), execution_id, fieldname, value)
        )
        return value

    def counter_get(self, execution_id: str) -> tuple[int, int]:
        row = self._counters.get(execution_id, {"ingested": 0, "mapped": 0})
        return row["ingested"], row["mapped"]

    # results table

    def put_result(self, execution_id: str, carrier: str, delay_sum: int, count: int) -> None:
        self._results.setdefault(execution_id, {})[carrier] = (delay_sum, count)

    def list_results(self, execution_id: str) -> list[tuple[str, int, int]]:
        rows = self._results.get(execution_id, {})
        return [(c, s, n) for c, (s, n) in sorted(rows.items())]


# -- queue -----------------------------------------------------------------


@dataclass(slots=True)
class _QueueEntry:
    body: Any
    receive_count: int = 0
    visible_at: float = 0.0
    receipt: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ReceivedMessage:
    receipt: int
    body: Any
    receive_count: int


class MessageQueue:
    """At-least-once queue with visibility timeout and dead-letter routing.

    Bodies are any value, handed to consumers as sent.  ``receive`` hands
    out visible messages lowest id first, so a redelivered message goes out
    before any message sent after it.  A message delivered ``max_receives``
    times without being deleted moves to the DLQ, as ``str(body)``, when its
    last visibility timeout expires; the expiries one call finds are applied
    in id order.  Receipts are single-use tokens, so concurrent consumers
    cannot double-delete.  Visible ids sit in a heap and visibility
    deadlines in another, so each operation costs O(log n) in the queue's
    size; a deleted message's deadline leaves the heap once it reaches the
    top.  ``on_send``, when set, is called right after each ``send`` has
    enqueued its message; a queue source sets it while it runs.
    """

    def __init__(
        self,
        clock: Clock = _zero_clock,
        visibility_timeout_ms: float = 30_000.0,
        max_receives: int = 3,
    ):
        self._clock = clock
        self.visibility_timeout_ms = visibility_timeout_ms
        self.max_receives = max_receives
        self._entries: dict[int, _QueueEntry] = {}
        self._visible: list[int] = []  # heap of ids
        self._deadlines: list[tuple[float, int, int]] = []  # (visible_at, id, receipt)
        self._ids = itertools.count(1)
        self._receipts = itertools.count(1)
        self._receipt_to_id: dict[int, int] = {}  # receipts of messages in flight
        self.on_send: Optional[Callable[[], None]] = None
        self.dlq_bodies: list[str] = []

    def send(self, body: Any) -> None:
        mid = next(self._ids)
        self._entries[mid] = _QueueEntry(body=body)
        heapq.heappush(self._visible, mid)
        if self.on_send is not None:
            self.on_send()

    def next_deadline(self) -> Optional[float]:
        """The earliest visibility deadline of a message in flight, or None."""
        self._drop_deleted_deadlines()
        return self._deadlines[0][0] if self._deadlines else None

    def _drop_deleted_deadlines(self) -> None:
        # Pop deadlines of deleted messages off the top of the heap.
        deadlines = self._deadlines
        while deadlines:
            _, mid, receipt = deadlines[0]
            entry = self._entries.get(mid)
            if entry is not None and entry.receipt == receipt:
                return
            heapq.heappop(deadlines)

    def _expire(self, now: float) -> None:
        # Make expired messages visible again; retire exhausted ones to the DLQ.
        deadlines = self._deadlines
        expired: list[int] = []
        while deadlines and deadlines[0][0] <= now:
            _, mid, receipt = heapq.heappop(deadlines)
            entry = self._entries.get(mid)
            if entry is not None and entry.receipt == receipt:
                expired.append(mid)
        expired.sort()
        for mid in expired:
            entry = self._entries[mid]
            self._receipt_to_id.pop(entry.receipt, None)
            entry.receipt = None
            if entry.receive_count >= self.max_receives:
                del self._entries[mid]
                self.dlq_bodies.append(str(entry.body))
            else:
                heapq.heappush(self._visible, mid)

    def receive(self, max_messages: int = 1) -> list[ReceivedMessage]:
        if max_messages < 1:
            raise ValueError("max_messages must be >= 1")
        now = self._clock()
        out: list[ReceivedMessage] = []
        self._expire(now)
        visible = self._visible
        while visible and len(out) < max_messages:
            mid = heapq.heappop(visible)
            entry = self._entries[mid]
            receipt = next(self._receipts)
            entry.receipt = receipt
            entry.receive_count += 1
            entry.visible_at = now + self.visibility_timeout_ms
            self._receipt_to_id[receipt] = mid
            heapq.heappush(self._deadlines, (entry.visible_at, mid, receipt))
            out.append(
                ReceivedMessage(receipt=receipt, body=entry.body,
                                receive_count=entry.receive_count)
            )
        return out

    def delete(self, receipt: int) -> bool:
        """Delete by receipt; False when the receipt is stale or reused."""
        now = self._clock()
        mid = self._receipt_to_id.pop(receipt, None)
        if mid is None or now >= self._entries[mid].visible_at:
            return False
        del self._entries[mid]
        self._drop_deleted_deadlines()
        return True

    def visible_count(self) -> int:
        now = self._clock()
        self._expire(now)
        return len(self._visible)

    def in_flight_count(self) -> int:
        return len(self._entries) - len(self._visible)

    def __len__(self) -> int:
        return len(self._entries)

    def dlq_count(self) -> int:
        return len(self.dlq_bodies)
