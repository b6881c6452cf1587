"""Shuffle storage port with object-store and key-value adapters.

Both adapters expose the same four operations (write an entry, tombstone
one, read a partition, list partitions) and are observationally equivalent
when the backend is fault-free; which one a job uses is pure configuration.
An adapter holds no store: it builds each write and tombstone as one storage
op, which the map handler yields for ``FunctionRuntime.drive`` to apply, and
the reads, which use their ops' results, are generators that yield them.
Entries cross the store as frozen ``ShuffleEntry`` values, never as bytes:
an entry's ``len`` is the byte size of its canonical JSON, which prices it,
and ``bytes`` renders that JSON only when the store is dumped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .storage import KvItem

# Canonical JSON (sorted keys, default separators) less its five values.
_DOC_FIXED_LEN = len('{"count": , "delay_sum": , "execution_id": , '
                     '"instance_id": , "partition_key": }')


def _json_len(s: str) -> int:
    """Length of ``json.dumps(s)``; printable ASCII other than ``"`` and
    ``\\`` is not escaped, so only other strings are rendered."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return len(s) + 2
    return len(json.dumps(s))


@dataclass(frozen=True, slots=True)
class ShuffleEntry:
    """Per-partition-key output of one map invocation.

    ``len(entry)`` is the byte length of ``bytes(entry)``, its canonical
    JSON, worked out once at construction.
    """

    execution_id: str
    partition_key: str
    instance_id: str
    delay_sum: int
    count: int
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("entry count must be >= 1")
        object.__setattr__(self, "_size", _DOC_FIXED_LEN
                           + _json_len(self.execution_id) + _json_len(self.partition_key)
                           + _json_len(self.instance_id)
                           + len(str(self.delay_sum)) + len(str(self.count)))

    def __len__(self) -> int:
        return self._size

    def __bytes__(self) -> bytes:
        return json.dumps(self.to_doc(), sort_keys=True).encode("utf-8")

    def to_doc(self) -> dict:
        return {
            "execution_id": self.execution_id,
            "partition_key": self.partition_key,
            "instance_id": self.instance_id,
            "delay_sum": self.delay_sum,
            "count": self.count,
        }


def object_key_for(execution_id: str, partition_key: str, instance_id: str) -> str:
    return f"{execution_id}/{partition_key}/{instance_id}.json"


class ObjectShuffleAdapter:
    """Entries as objects under ``{execution}/{partition}/{instance}.json``;
    each object is the entry itself."""

    def write_op(self, entry: ShuffleEntry) -> tuple:
        return ("object_put", object_key_for(entry.execution_id, entry.partition_key,
                                             entry.instance_id), entry)

    def delete_op(self, execution_id: str, instance_id: str, partition_key: str) -> tuple:
        return ("object_delete", object_key_for(execution_id, partition_key, instance_id))

    def read_partition(self, execution_id: str, partition_key: str):
        keys = yield ("object_list", f"{execution_id}/{partition_key}/")
        entries = []
        for key in keys:
            entries.append((yield ("object_get", key)))
        return entries

    def list_partitions(self, execution_id: str):
        keys = yield ("object_list", f"{execution_id}/")
        partitions = sorted({key.split("/")[1] for key in keys})
        return partitions


def _kv_sort_key(instance_id: str, partition_key: str) -> str:
    return f"{instance_id}#{partition_key}"


class KvShuffleAdapter:
    """Entries as table items whose payload is the entry: hash key =
    execution id, a local secondary index keyed by partition serves
    per-partition queries.

    One invocation emits one item per partition key, so the physical sort
    key is ``{instance_id}#{partition_key}`` to keep primary keys unique.
    """

    def write_op(self, entry: ShuffleEntry) -> tuple:
        return ("kv_put", KvItem(
            hash_key=entry.execution_id,
            sort_key=_kv_sort_key(entry.instance_id, entry.partition_key),
            lsi_sort_key=entry.partition_key,
            payload=entry,
        ))

    def delete_op(self, execution_id: str, instance_id: str, partition_key: str) -> tuple:
        return ("kv_delete", execution_id, _kv_sort_key(instance_id, partition_key))

    def read_partition(self, execution_id: str, partition_key: str):
        items = yield ("kv_query_lsi", execution_id, partition_key)
        return [item.payload for item in items]

    def list_partitions(self, execution_id: str):
        items = yield ("kv_scan", execution_id)
        return sorted({item.lsi_sort_key for item in items})


def make_adapter(kind: str):
    if kind == "object":
        return ObjectShuffleAdapter()
    if kind == "kv":
        return KvShuffleAdapter()
    raise ValueError(f"unknown shuffle backend {kind!r} (expected object|kv)")
