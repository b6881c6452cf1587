from __future__ import annotations

import pytest

from microreduce.calibration import DEFAULT_CALIBRATION
from microreduce.ports import make_adapter
from microreduce.runtime import StorageClients
from microreduce.storage import KvStore, MessageQueue, ObjectStore

_ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): numbered acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            num, title = marker.args
            _ACCEPTANCE_RESULTS[num] = (title, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_ACCEPTANCE_RESULTS):
        title, status = _ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line(f"criterion {num:>2}: {status}  {title}")


def drain(gen):
    """Run a latency-charging generator outside a simulator, ignoring time."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, ms: float) -> None:
        self.now += ms


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()


def make_clients(clock=None, throttle=None, fault_rate=0.0):
    clock = clock or FakeClock()
    objects = ObjectStore(fault_rate=fault_rate)
    kv = KvStore(clock=clock, throttle=throttle)
    queue = MessageQueue(clock=clock)
    raw = ObjectStore()
    return StorageClients(DEFAULT_CALIBRATION, objects=objects, raw_objects=raw,
                          kv=kv, queue=queue)


def make_port(kind: str, clients=None, clock=None):
    clients = clients or make_clients(clock=clock)
    return make_adapter(kind, clients), clients
