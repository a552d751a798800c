"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(10)
        done.append(env.now)
        yield env.timeout(5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [10, 15]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter():
        value = yield gate
        woke.append((env.now, value))

    def opener():
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert woke == [(7, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("child died")

    def parent(seen):
        try:
            yield env.process(child())
        except ValueError as exc:
            seen.append(str(exc))

    seen = []
    env.process(parent(seen))
    env.run()
    assert seen == ["child died"]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(proc):
        yield env.timeout(10)
        proc.interrupt("preempted")

    proc = env.process(victim())
    env.process(interrupter(proc))
    env.run()
    assert log == [(10, "preempted")]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(5)
        log.append(env.now)

    def interrupter(proc):
        yield env.timeout(10)
        proc.interrupt()

    proc = env.process(victim())
    env.process(interrupter(proc))
    env.run()
    assert log == [15]


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc():
        t1 = env.timeout(5, value="a")
        t2 = env.timeout(9, value="b")
        results = yield env.all_of([t1, t2])
        times.append(env.now)
        assert set(results.values()) == {"a", "b"}

    env.process(proc())
    env.run()
    assert times == [9]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc():
        t1 = env.timeout(5, value="fast")
        t2 = env.timeout(50, value="slow")
        results = yield env.any_of([t1, t2])
        times.append(env.now)
        assert "fast" in results.values()

    env.process(proc())
    env.run(until=100)
    assert times == [5]


def test_run_until_time_stops_clock():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=35)
    assert env.now == 35


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(4)
        return "finished"

    result = env.run(until_event=env.process(proc()))
    assert result == "finished"
    assert env.now == 4


def test_run_until_past_time_rejected():
    env = Environment()
    env.process(iter_timeout(env, 10))
    env.run()
    with pytest.raises(ValueError):
        env.run(until=5)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_deterministic_ordering_fifo_at_same_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(10)
        order.append(tag)

    for tag in range(5):
        env.process(proc(tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    env.run()
    assert proc.triggered
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc():
        timeout = env.timeout(1, value="early")
        yield env.timeout(10)
        value = yield timeout  # fired long ago
        log.append((env.now, value))

    env.process(proc())
    env.run()
    assert log == [(10, "early")]


def test_step_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(42)
    assert env.peek() == 42
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_active_process_visible_during_execution():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_process_failure_with_no_waiter_is_silent():
    env = Environment()

    def doomed():
        yield env.timeout(1)
        raise RuntimeError("nobody is listening")

    proc = env.process(doomed())
    env.run()   # must not raise at the environment level
    assert proc.triggered and not proc.ok


def test_failed_plain_event_with_no_waiter_raises():
    env = Environment()

    def failer():
        ev = env.event()
        yield env.timeout(1)
        ev.fail(RuntimeError("unobserved"))

    env.process(failer())
    with pytest.raises(RuntimeError):
        env.run()


def test_interrupt_cause_none_by_default():
    env = Environment()
    seen = []

    def victim():
        try:
            yield env.timeout(50)
        except Interrupt as interrupt:
            seen.append(interrupt.cause)

    proc = env.process(victim())

    def interrupter():
        yield env.timeout(1)
        proc.interrupt()

    env.process(interrupter())
    env.run()
    assert seen == [None]


def test_all_of_empty_fires_immediately():
    env = Environment()
    times = []

    def proc():
        yield env.all_of([])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [0]


def test_condition_with_already_failed_event_rejects():
    env = Environment()
    dead = env.event()
    dead.callbacks.append(lambda e: None)   # defuse
    dead.fail(ValueError("pre-failed"))
    env.run()   # process the failure
    caught = []

    def proc():
        try:
            yield env.all_of([dead, env.timeout(5)])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["pre-failed"]


def test_process_target_visible_while_waiting():
    env = Environment()

    def sleeper():
        yield env.timeout(10)

    proc = env.process(sleeper())
    env.step()   # run the initializer
    assert proc.target is not None
    env.run()
    assert proc.triggered


# -- fast-path satellites -------------------------------------------------


def test_run_until_lands_on_until_when_queue_drains_early():
    env = Environment()
    env.process(iter_timeout(env, 10))
    env.run(until=50)
    # The queue drained at t=10; the clock must still land on `until`.
    assert env.now == 50


def test_run_until_lands_on_until_with_unfired_event():
    env = Environment()
    env.process(iter_timeout(env, 10))
    never = env.event()
    result = env.run(until=50, until_event=never)
    assert result is None
    assert env.now == 50


def test_stale_interrupt_on_process_that_died_is_dropped():
    env = Environment()
    causes = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)
        # Returning here kills the process while the second interrupt
        # wakeup is still queued; that wakeup must be dropped, not
        # thrown into the exhausted generator.

    def attacker(proc):
        yield env.timeout(5)
        proc.interrupt("first")
        proc.interrupt("second")

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    assert causes == ["first"]
    assert proc.triggered
    assert proc.ok


def test_interrupt_scheduled_then_process_finishes_same_tick():
    env = Environment()
    order = []

    def victim():
        try:
            yield env.timeout(5)
            order.append("finished")
        except Interrupt as interrupt:
            order.append(f"interrupted:{interrupt.cause}")

    def attacker(proc):
        # t=0, before victim's initializer has run its first step: the
        # interrupt wakeup and the initializer share the tick.
        proc.interrupt("early")
        return
        yield

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    assert order == ["interrupted:early"]
    assert proc.triggered


def test_two_processes_share_one_timeout_fifo_order():
    env = Environment()
    order = []
    timeout = None

    def maker():
        nonlocal timeout
        timeout = env.timeout(10)
        yield timeout
        order.append("first")

    def follower():
        yield env.timeout(0)
        yield timeout
        order.append("second")

    env.process(maker())
    env.process(follower())
    env.run()
    assert order == ["first", "second"]


def test_environment_stats_counters():
    env = Environment()

    def ticker():
        for _ in range(50):
            yield env.timeout(1.0)

    for _ in range(4):
        env.process(ticker())
    env.run()
    stats = env.stats
    # 4 starts + 4*50 timeouts + 4 completions.
    assert stats["events_processed"] == 4 + 200 + 4
    assert stats["events_per_sec"] > 0
    assert stats["peak_queue_depth"] >= 4
    assert stats["pooled_timeouts"] >= 1


def test_run_proc_exported_from_sim():
    from repro.sim import run_proc

    env = Environment()

    def job():
        yield env.timeout(7)
        return "ok"

    assert run_proc(env, job()) == "ok"
    assert env.now == 7


def test_run_proc_horizon_raises():
    from repro.sim import run_proc

    env = Environment()

    def forever():
        while True:
            yield env.timeout(10)

    with pytest.raises(RuntimeError):
        run_proc(env, forever(), horizon=100)


@pytest.mark.parametrize("batch", [False, True])
def test_urgent_preemption_and_until_event_reentry(batch):
    # Six NORMAL timeouts share one timestamp.  The second starts a
    # child (an URGENT initialize, which must run before the rest of
    # the NORMAL backlog) and the fourth triggers the until_event (the
    # run must stop right after it).  Re-entering run() must dispatch
    # the remaining two exactly once each.
    env = Environment(batch=batch)
    stop = env.event()
    log = []

    def child():
        log.append("child")
        yield env.timeout(1.0)

    def worker(i):
        yield env.timeout(10.0)
        log.append(i)
        if i == 1:
            env.process(child())
        if i == 3:
            stop.succeed("stopped")

    for i in range(6):
        env.process(worker(i))
    assert env.run(until_event=stop) == "stopped"
    assert log == [0, 1, "child", 2, 3]
    assert env.now == 10.0
    # 6 starts + 4 timeouts + the child's start.
    assert env.stats["events_processed"] == 11
    env.run()
    assert log == [0, 1, "child", 2, 3, 4, 5]
    assert env.now == 11.0
    # + 2 timeouts, 6 worker exits, stop, the child's timeout and exit.
    assert env.stats["events_processed"] == 22


@pytest.mark.parametrize("call", [
    lambda env: env.timeout(float("nan")),
    lambda env: env.timeout_at(float("nan")),
    lambda env: env.run(until=float("nan")),
], ids=["timeout", "timeout_at", "run_until"])
def test_nan_times_rejected(call):
    env = Environment()
    with pytest.raises(ValueError):
        call(env)
    assert env.now == 0.0
