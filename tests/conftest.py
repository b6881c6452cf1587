from __future__ import annotations

import pytest

from microreduce import kernels
from microreduce.calibration import DEFAULT_CALIBRATION
from microreduce.data import ParsedFile
from microreduce.runtime import StorageClients
from microreduce.storage import KvStore, ObjectStore

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


def apply(op, clients):
    """Apply one op through ``clients`` at once and return its result."""
    return clients.ops[op[0]][1](*op[1:])


def drain(gen, clients):
    """Run a generator of latencies and ops outside a simulator: apply each op
    through ``clients`` at once, ignore time, and return what ``gen`` returns.
    A store's exception is thrown into ``gen`` at the op's yield."""
    step, arg = gen.send, None
    while True:
        try:
            item = step(arg)
        except StopIteration as stop:
            return stop.value
        step, arg = gen.send, None
        if isinstance(item, tuple):
            try:
                arg = apply(item, clients)
            except Exception as exc:
                step, arg = gen.throw, exc


def whole(parsed):
    """Iterate a ``ParsedFile`` to its end: its blocks' valid rows joined
    into whole-file ``(carriers, delays)`` columns, and its stats."""
    carriers, delays = [], []
    for more_carriers, more_delays in parsed:
        carriers += more_carriers
        delays += more_delays
    return carriers, delays, parsed.stats


def scan_whole(blocks, *idx):
    """``kernels.scan_rows`` run to its end: ``(carriers, delays, total_rows,
    invalid_rows)``, with the lists of every block joined."""
    carriers, delays, stats = whole(ParsedFile(kernels.scan_rows(blocks, *idx)))
    return carriers, delays, stats.total_rows, stats.invalid_rows


def invoke(runtime, fn, handler, payload, execution_id=""):
    """Spawn one invocation on ``runtime``'s simulator; the process's result
    is its ``InvocationRecord`` once the simulator has run it."""
    return runtime.sim.spawn(runtime.invocation(fn, handler, payload, execution_id),
                             name=f"invoke-{fn.name}")


def peak_concurrency(ledger):
    """The most invocations in the ledger that held a slot at one instant.

    An invocation holds its slot from admission, before its cold start, to
    its end: ``[start_ms - init_ms, start_ms + duration_ms)``.  A slot handed
    over at an instant is released there before it is taken again.
    """
    edges = sorted([(r.start_ms - r.init_ms, 1) for r in ledger]
                   + [(r.start_ms + r.duration_ms, -1) for r in ledger])
    peak = held = 0
    for _, step in edges:
        held += step
        peak = max(peak, held)
    return peak


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


def make_clients():
    """An op table over a fresh object store and KV table."""
    return StorageClients(DEFAULT_CALIBRATION, objects=ObjectStore(), kv=KvStore())
