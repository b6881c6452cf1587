from microreduce.sim import SimError, Simulator

import pytest


def test_delays_advance_virtual_clock():
    sim = Simulator()
    seen = []

    def proc():
        seen.append(sim.now())
        yield 250.0
        seen.append(sim.now())
        yield 750
        seen.append(sim.now())

    sim.spawn(proc())
    sim.run()
    assert seen == [0.0, 250.0, 1000.0]


def test_event_wakeups_and_values():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now(), value))

    def trigger():
        yield 100.0
        ev.trigger("payload")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [(100.0, "payload")]


def test_process_join_returns_result():
    sim = Simulator()

    def child():
        yield 5.0
        return 42

    def parent():
        proc = sim.spawn(child())
        value = yield proc.finished
        return value

    top = sim.spawn(parent())
    sim.run()
    assert top.result == 42


def test_all_of_waits_for_every_member():
    sim = Simulator()
    ends = []

    def worker(ms):
        yield ms
        ends.append(sim.now())

    def parent():
        procs = [sim.spawn(worker(ms)) for ms in (30.0, 10.0, 20.0)]
        yield sim.all_of(procs)
        return sim.now()

    top = sim.spawn(parent())
    sim.run()
    assert top.result == 30.0
    assert sorted(ends) == [10.0, 20.0, 30.0]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def parent():
        yield sim.all_of([])
        return sim.now()

    top = sim.spawn(parent())
    sim.run()
    assert top.result == 0.0


def test_run_until_event_stops_pumping():
    sim = Simulator()
    done = sim.event()
    late = []

    def finisher():
        yield 50.0
        done.trigger()

    def straggler():
        yield 500.0
        late.append(True)

    sim.spawn(finisher())
    sim.spawn(straggler())
    sim.run(until=done)
    assert sim.now() == 50.0
    assert not late


def test_run_dry_with_pending_until_raises():
    sim = Simulator()
    never = sim.event()

    def quick():
        yield 1.0

    sim.spawn(quick())
    with pytest.raises(SimError):
        sim.run(until=never)


def test_fifo_order_for_simultaneous_events():
    sim = Simulator()
    order = []

    def proc(tag):
        yield 10.0
        order.append(tag)

    for tag in "abcd":
        sim.spawn(proc(tag))
    sim.run()
    assert order == list("abcd")


def test_interleave_seed_randomizes_simultaneous_order_reproducibly():
    def run(seed):
        sim = Simulator(interleave_seed=seed)
        order = []

        def proc(tag):
            yield 10.0
            order.append(tag)

        for tag in "abcdefgh":
            sim.spawn(proc(tag))
        sim.run()
        return order

    baseline = run(1)
    assert run(1) == baseline
    assert any(run(s) != baseline for s in range(2, 12))


def test_negative_delay_rejected():
    # a process yields only a latency or an Event: a negative delay, None,
    # a Process and a string are all rejected
    def idle():
        yield 1.0

    for make in (lambda sim: -1.0, lambda sim: None,
                 lambda sim: sim.spawn(idle()), lambda sim: "10"):
        sim = Simulator()

        def proc():
            yield make(sim)

        sim.spawn(proc())
        with pytest.raises(SimError):
            sim.run()
