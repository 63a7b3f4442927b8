"""Unit tests for the simulation kernel."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(5.0)
        log.append(sim.now)
        yield sim.timeout(2.5)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [5.0, 7.5]
    assert sim.now == 7.5


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="hello")
        got.append(value)

    sim.spawn(proc())
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def firer():
        yield sim.timeout(3.0)
        ev.succeed(42)

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == [(3.0, 42)]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_escapes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("nobody caught me"))
    with pytest.raises(ValueError):
        sim.run()


def test_defused_failure_does_not_escape():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("quiet")).defuse()
    sim.run()  # should not raise


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(1.0)
        return "child-result"

    def parent():
        value = yield sim.spawn(child())
        results.append(value)

    sim.spawn(parent())
    sim.run()
    assert results == ["child-result"]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.spawn(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(parent())
    sim.run()
    assert caught == ["child failed"]


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def proc():
        yield sim.timeout(10.0)
        value = yield ev  # processed long ago
        got.append((sim.now, value))

    sim.spawn(proc())
    sim.run()
    assert got == [(10.0, "early")]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []

    def mk(tag):
        def proc():
            yield sim.timeout(1.0)
            order.append(tag)
        return proc

    for tag in ("a", "b", "c"):
        sim.spawn(mk(tag)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept-through")
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))

    proc = sim.spawn(sleeper())

    def killer():
        yield sim.timeout(5.0)
        proc.interrupt("crash")

    sim.spawn(killer())
    sim.run()
    assert log == [("interrupted", 5.0, "crash")]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.spawn(quick())

    def late_killer():
        yield sim.timeout(10.0)
        proc.interrupt("too late")

    sim.spawn(late_killer())
    sim.run()  # should not raise


@pytest.mark.parametrize("ending", ["returns", "caught-kill"])
def test_finished_process_is_freed_without_the_cycle_collector(ending):
    # A process holds its own bound ``_resume``; unless that cycle is
    # broken at generator exit, finished processes pile up until a gen-0
    # collection happens to run.
    class Probe(Process):
        __slots__ = ("__weakref__",)

    sim = Simulator()

    def body():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            pass

    gc.disable()
    try:
        proc = Probe(sim, body())
        if ending == "caught-kill":
            sim.spawn(_interrupt_at(sim, proc, 5.0))
        ref = weakref.ref(proc)
        del proc
        sim.run()
        assert ref() is None
    finally:
        gc.enable()


def _interrupt_at(sim, proc, when):
    yield sim.timeout(when)
    proc.interrupt()
    del proc


def test_uncaught_interrupt_terminates_quietly():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    proc = sim.spawn(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.spawn(killer())
    sim.run()
    assert not proc.is_alive


def test_any_of_fires_on_first():
    sim = Simulator()
    got = []

    def proc():
        t1 = sim.timeout(5.0, value="fast")
        t2 = sim.timeout(9.0, value="slow")
        result = yield AnyOf(sim, [t1, t2])
        got.append((sim.now, sorted(result.values())))

    sim.spawn(proc())
    sim.run()
    assert got == [(5.0, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    got = []

    def proc():
        t1 = sim.timeout(5.0, value="fast")
        t2 = sim.timeout(9.0, value="slow")
        result = yield AllOf(sim, [t1, t2])
        got.append((sim.now, sorted(result.values())))

    sim.spawn(proc())
    sim.run()
    assert got == [(9.0, ["fast", "slow"])]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    got = []

    def proc():
        result = yield AllOf(sim, [])
        got.append(result)

    sim.spawn(proc())
    sim.run()
    assert got == [{}]


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(10.0)

    sim.spawn(proc())
    sim.run(until=35.0)
    assert sim.now == 35.0
    sim.run(until=40.0)
    assert sim.now == 40.0


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_self_interrupt_rejected():
    sim = Simulator()
    errors = []

    def selfish():
        yield sim.timeout(1.0)
        try:
            proc.interrupt()
        except SimulationError as exc:
            errors.append(str(exc))

    proc = sim.spawn(selfish())
    sim.run()
    assert errors and "interrupt itself" in errors[0]


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(7.0)
    assert sim.peek() == 7.0
    sim.run()
    assert sim.peek() == float("inf")


def test_earliest_live_skips_inert_events():
    # The idle fold's external-work horizon: the earliest scheduled
    # event that could still create work, wherever it sits in the heap.
    sim = Simulator()
    assert sim.earliest_live() == float("inf")
    housekeeping = sim.timeout(2.0)
    sim.inert.add(housekeeping)
    assert sim.peek() == 2.0
    assert sim.earliest_live() == float("inf")
    sim.timeout(9.0)
    sim.timeout(7.0)
    assert sim.earliest_live() == 7.0
    sim.run(until=8.0)
    assert sim.earliest_live() == 9.0
