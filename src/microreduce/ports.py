"""Shuffle storage port with object-store and key-value adapters.

Both adapters expose the same three operations (write an entry, read a
partition, list partitions) and are observationally equivalent when the
backend is fault-free; which one a job uses is pure configuration.  Each
operation is a generator that yields storage ops for ``FunctionRuntime.drive``
to apply; an adapter holds no store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .storage import KvItem


@dataclass(frozen=True, slots=True)
class ShuffleEntry:
    """Per-partition-key output of one map invocation."""

    execution_id: str
    partition_key: str
    instance_id: str
    delay_sum: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("entry count must be >= 1")

    def to_doc(self) -> dict:
        return {
            "execution_id": self.execution_id,
            "partition_key": self.partition_key,
            "instance_id": self.instance_id,
            "delay_sum": self.delay_sum,
            "count": self.count,
        }

    @staticmethod
    def from_doc(doc: dict) -> "ShuffleEntry":
        return ShuffleEntry(
            execution_id=doc["execution_id"],
            partition_key=doc["partition_key"],
            instance_id=doc["instance_id"],
            delay_sum=doc["delay_sum"],
            count=doc["count"],
        )


def object_key_for(entry: ShuffleEntry) -> str:
    return f"{entry.execution_id}/{entry.partition_key}/{entry.instance_id}.json"


class ObjectShuffleAdapter:
    """Entries as JSON objects under ``{execution}/{partition}/{instance}.json``."""

    def write_entry(self, entry: ShuffleEntry):
        body = json.dumps(entry.to_doc(), sort_keys=True).encode("utf-8")
        yield ("object_put", object_key_for(entry), body)

    def read_partition(self, execution_id: str, partition_key: str):
        keys = yield ("object_list", f"{execution_id}/{partition_key}/")
        entries = []
        for key in keys:
            body = yield ("object_get", key)
            entries.append(ShuffleEntry.from_doc(json.loads(body)))
        return entries

    def list_partitions(self, execution_id: str):
        keys = yield ("object_list", f"{execution_id}/")
        partitions = sorted({key.split("/")[1] for key in keys})
        return partitions

    def delete_instance_entries(self, execution_id: str, instance_id: str,
                                partition_keys: list[str]):
        for pk in partition_keys:
            yield ("object_delete", f"{execution_id}/{pk}/{instance_id}.json")


class KvShuffleAdapter:
    """Entries as table items: hash key = execution id, a local secondary
    index keyed by partition serves per-partition queries.

    One invocation emits one item per partition key, so the physical sort
    key is ``{instance_id}#{partition_key}`` to keep primary keys unique.
    """

    def write_entry(self, entry: ShuffleEntry):
        item = KvItem(
            hash_key=entry.execution_id,
            sort_key=f"{entry.instance_id}#{entry.partition_key}",
            lsi_sort_key=entry.partition_key,
            payload=entry.to_doc(),
        )
        yield ("kv_put", item)

    def read_partition(self, execution_id: str, partition_key: str):
        items = yield ("kv_query_lsi", execution_id, partition_key)
        return [ShuffleEntry.from_doc(item.payload) for item in items]

    def list_partitions(self, execution_id: str):
        items = yield ("kv_scan", execution_id)
        return sorted({item.lsi_sort_key for item in items})

    def delete_instance_entries(self, execution_id: str, instance_id: str,
                                partition_keys: list[str]):
        for pk in partition_keys:
            yield ("kv_delete", execution_id, f"{instance_id}#{pk}")


def make_adapter(kind: str):
    if kind == "object":
        return ObjectShuffleAdapter()
    if kind == "kv":
        return KvShuffleAdapter()
    raise ValueError(f"unknown shuffle backend {kind!r} (expected object|kv)")
