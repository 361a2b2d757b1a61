"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)
from repro.sim.engine import NORMAL, URGENT, Event


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5
    assert t.processed and t.ok


def test_timeout_value():
    sim = Simulator()
    t = sim.timeout(1.0, value="payload")
    sim.run()
    assert t.value == "payload"


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run(until=20.0)
    assert sim.now == 20.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for d in (3.0, 1.0, 2.0):
        sim.timeout(d).add_callback(lambda ev, d=d: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.timeout(1.0).add_callback(lambda ev, i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


#: Schedule entries: a time drawn from a few values (so exact ties are
#: common) or anywhere in [0, 10], a priority, and whether the entry goes
#: through the public ``timeout_at`` (always NORMAL priority).
_schedule = st.lists(
    st.tuples(st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                        st.floats(0.0, 10.0)),
              st.sampled_from([URGENT, NORMAL]),
              st.booleans()),
    max_size=60)


@given(_schedule)
@settings(max_examples=200, deadline=None)
def test_events_fire_in_time_priority_schedule_order(entries):
    sim = Simulator()
    fired = []
    expected = []
    for seq, (t, prio, public) in enumerate(entries):
        if public:
            ev = sim.timeout_at(t)
            prio = NORMAL
        else:
            ev = Event(sim)
            ev._ok = True
            ev._value = None
            sim._push(ev, prio, at=t)
        key = (t, prio, seq)
        expected.append(key)
        ev.add_callback(lambda _ev, key=key: fired.append(key))
    sim.run()
    assert fired == sorted(expected)


def test_process_basic_sequence():
    sim = Simulator()
    log = []

    def proc():
        log.append(("start", sim.now))
        yield sim.timeout(1.0)
        log.append(("mid", sim.now))
        yield sim.timeout(2.0)
        log.append(("end", sim.now))
        return 42

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == 42
    assert log == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]


def test_process_receives_event_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="hello")
        return got

    p = sim.process(proc())
    assert sim.run(until=p) == "hello"


def test_process_failure_propagates():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    p = sim.process(proc())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=p)


def test_yield_failed_event_raises_in_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def failer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("bad"))

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(failer())
    p = sim.process(waiter())
    sim.run(until=p)
    assert caught == ["bad"]


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "child-done"

    def parent():
        result = yield sim.process(child())
        return result

    p = sim.process(parent())
    assert sim.run(until=p) == "child-done"
    assert sim.now == 5.0


def test_interrupt_delivers_cause():
    sim = Simulator()
    seen = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            seen.append((intr.cause, sim.now))

    def attacker(p):
        yield sim.timeout(2.0)
        p.interrupt("preempted")

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert seen == [("preempted", 2.0)]


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            log.append(sim.now)
        yield sim.timeout(1.0)
        log.append(sim.now)

    def attacker(p):
        yield sim.timeout(3.0)
        p.interrupt()

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert log == [3.0, 4.0]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_any_of_fires_on_first():
    sim = Simulator()
    a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
    cond = AnyOf(sim, [a, b])

    def proc():
        got = yield cond
        return got

    p = sim.process(proc())
    result = sim.run(until=p)
    assert list(result.values()) == ["a"]
    assert sim.now == 1.0


def test_all_of_waits_for_all():
    sim = Simulator()
    a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")

    def proc():
        got = yield AllOf(sim, [a, b])
        return got

    p = sim.process(proc())
    result = sim.run(until=p)
    assert sorted(result.values()) == ["a", "b"]
    assert sim.now == 2.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        got = yield AllOf(sim, [])
        return got

    p = sim.process(proc())
    assert sim.run(until=p) == {}


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    t = sim.timeout(1.0)
    sim.run()
    fired = []
    t.add_callback(lambda ev: fired.append(True))
    assert fired == [True]


def test_run_until_event_starved_raises():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(SimulationError, match="starved"):
        sim.run(until=ev)


def test_yield_non_event_raises():
    sim = Simulator()

    def proc():
        yield 42

    sim.process(proc())
    with pytest.raises(SimulationError, match="must yield Events"):
        sim.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    # a Timeout is pushed on creation
    assert sim.peek() == 7.0


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_many_processes_share_clock():
    sim = Simulator()
    done = []

    def worker(i):
        yield sim.timeout(i * 0.5)
        done.append(i)

    for i in range(10):
        sim.process(worker(i))
    sim.run()
    assert done == sorted(done)
    assert len(done) == 10
