import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microreduce.calibration import DEFAULT_CALIBRATION
from microreduce.ports import (
    KvShuffleAdapter,
    ObjectShuffleAdapter,
    ShuffleEntry,
    make_adapter,
    object_key_for,
)
from microreduce.runtime import StorageClients
from microreduce.storage import KvStore, ObjectStore
from conftest import apply, drain, make_clients

EID = "0a632a0b-68c6-4875-9ba0-0f2bcd9bd556"
IID = "61bfaa93-4392-4fb0-9e74-a92d4244db7b"
IID2 = "f3bdb8b5-6d74-41bc-bb1e-3880d2cd2a53"


def entry(pk="AA", iid=IID, s=10, c=2):
    return ShuffleEntry(execution_id=EID, partition_key=pk, instance_id=iid,
                        delay_sum=s, count=c)


def test_entry_doc_field_names_are_frozen():
    doc = entry().to_doc()
    assert list(doc) == ["execution_id", "partition_key", "instance_id",
                         "delay_sum", "count"]


_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028Ü'), max_size=8)


@given(st.builds(ShuffleEntry, _TEXT, _TEXT | st.just("Ü1"), _TEXT, st.integers(),
                 st.integers(min_value=1)))
@example(ShuffleEntry("e\x00", "Ü1", 'i"\\', -10**30, 10**30))
@example(ShuffleEntry("\x7f", "\u2028", "\x1f", -1, 1))
@settings(max_examples=500)
def test_entry_len_is_its_canonical_json_length(e):
    canonical = json.dumps(e.to_doc(), sort_keys=True).encode()
    assert bytes(e) == canonical
    assert len(e) == len(canonical)


def test_object_key_layout():
    key = object_key_for(EID, "AA", IID)
    assert key == f"{EID}/AA/{IID}.json"


@pytest.mark.parametrize("kind", ["object", "kv"])
def test_write_then_read_round_trips_bit_exact(kind):
    clients = make_clients()
    adapter = make_adapter(kind)
    written = entry(s=-17, c=3)
    apply(adapter.write_op(written), clients)
    got = drain(adapter.read_partition(EID, "AA"), clients)
    assert got == [ShuffleEntry(EID, "AA", IID, -17, 3)]


@pytest.mark.parametrize("kind", ["object", "kv"])
def test_read_unknown_partition_empty(kind):
    adapter, clients = make_adapter(kind), make_clients()
    assert drain(adapter.read_partition(EID, "ZZ"), clients) == []
    assert drain(adapter.list_partitions(EID), clients) == []


@pytest.mark.parametrize("kind", ["object", "kv"])
def test_list_partitions_is_sorted_set(kind):
    adapter, clients = make_adapter(kind), make_clients()
    for pk, iid in (("UA", IID), ("AA", IID), ("AA", IID2)):
        apply(adapter.write_op(entry(pk=pk, iid=iid)), clients)
    assert drain(adapter.list_partitions(EID), clients) == ["AA", "UA"]


@pytest.mark.parametrize("kind", ["object", "kv"])
def test_delete_instance_entries_tombstones_one_attempt(kind):
    adapter, clients = make_adapter(kind), make_clients()
    apply(adapter.write_op(entry(pk="AA", iid=IID)), clients)
    apply(adapter.write_op(entry(pk="BB", iid=IID)), clients)
    apply(adapter.write_op(entry(pk="AA", iid=IID2, s=99)), clients)
    for pk in ("AA", "BB"):
        apply(adapter.delete_op(EID, IID, pk), clients)
    assert drain(adapter.read_partition(EID, "AA"), clients) == [
        entry(pk="AA", iid=IID2, s=99)]
    assert drain(adapter.read_partition(EID, "BB"), clients) == []


def test_adapters_are_observationally_equivalent():
    workload = [
        entry(pk="AA", iid=IID, s=4, c=2),
        entry(pk="BB", iid=IID, s=-6, c=1),
        entry(pk="AA", iid=IID2, s=10, c=5),
    ]
    views = {}
    for kind in ("object", "kv"):
        adapter, clients = make_adapter(kind), make_clients()
        for e in workload:
            apply(adapter.write_op(e), clients)
        views[kind] = {
            "partitions": drain(adapter.list_partitions(EID), clients),
            "AA": drain(adapter.read_partition(EID, "AA"), clients),
            "BB": drain(adapter.read_partition(EID, "BB"), clients),
        }
    assert views["object"] == views["kv"]


def test_kv_read_partition_union_matches_scan():
    kv = KvStore()
    clients = StorageClients(DEFAULT_CALIBRATION, kv=kv)
    adapter = KvShuffleAdapter()
    for pk, iid in (("AA", IID), ("BB", IID), ("AA", IID2)):
        apply(adapter.write_op(entry(pk=pk, iid=iid)), clients)
    union = []
    for pk in drain(adapter.list_partitions(EID), clients):
        union.extend(drain(adapter.read_partition(EID, pk), clients))
    assert len(union) == len(kv.scan(EID)) == 3


def test_object_adapter_stores_canonical_json():
    objects = ObjectStore()
    adapter = ObjectShuffleAdapter()
    apply(adapter.write_op(entry()), StorageClients(DEFAULT_CALIBRATION, objects=objects))
    body = objects.get(object_key_for(EID, "AA", IID))
    doc = json.loads(bytes(body))
    assert set(doc) == {"execution_id", "partition_key", "instance_id",
                        "delay_sum", "count"}


def test_unknown_adapter_kind():
    with pytest.raises(ValueError):
        make_adapter("redis")
