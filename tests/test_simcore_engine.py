"""Tests for the discrete-event simulation kernel."""

from contextlib import nullcontext

import pytest

from repro.analysis import AnalysisSession
from repro.simcore import Environment, Interrupt
from repro.simcore.engine import Timeout
from repro.util.errors import SimulationError


class TestClockAndTimeouts:
    def test_time_starts_at_zero(self):
        env = Environment()
        assert env.now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()
        done = []

        def proc(env):
            yield env.timeout(5.0)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [5.0]

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_nan_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(float("nan"))
        with pytest.raises(SimulationError):
            Timeout(env, float("nan"))
        assert env.peek() == float("inf")  # nothing was queued

    def test_run_until_time_stops_clock_exactly(self):
        env = Environment()

        def proc(env):
            while True:
                yield env.timeout(10.0)

        env.process(proc(env))
        env.run(until=25.0)
        assert env.now == 25.0

    def test_run_until_past_raises(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    @pytest.mark.parametrize("sanitized", [False, True],
                             ids=["plain", "sanitized"])
    def test_run_until_nan_raises(self, sanitized):
        # NaN fails every comparison, so a horizon check that is not
        # NaN-safe would let the run go on with the clock set to NaN
        env = Environment()
        fired = []
        env.call_later(1.0, fired.append, "one")
        with AnalysisSession(env) if sanitized else nullcontext():
            with pytest.raises(SimulationError, match="until=nan"):
                env.run(until=float("nan"))
        assert fired == [] and env.now == 0.0
        assert env.peek() == 1.0

    def test_drain_raises_a_callbacks_index_error(self):
        # a callback's IndexError is the callback's error, not a sign
        # that the queue ran empty
        env = Environment()
        env.call_later(1.0, lambda _: [][0])
        with pytest.raises(IndexError):
            env.run()
        assert env.now == 1.0

    def test_timeout_value_passed_through(self):
        env = Environment()
        got = []

        def proc(env):
            v = yield env.timeout(1.0, value="payload")
            got.append(v)

        env.process(proc(env))
        env.run()
        assert got == ["payload"]

    def test_same_time_events_fifo_order(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(3.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(2.0)
            return 42

        p = env.process(proc(env))
        assert env.run(until=p) == 42

    def test_process_waits_on_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(4.0)
            return "child-done"

        def parent(env):
            result = yield env.process(child(env))
            return (env.now, result)

        p = env.process(parent(env))
        assert env.run(until=p) == (4.0, "child-done")

    def test_process_exception_propagates_to_waiter(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent(env):
            try:
                yield env.process(bad(env))
            except ValueError as e:
                return f"caught {e}"

        p = env.process(parent(env))
        assert env.run(until=p) == "caught boom"

    def test_uncaught_failure_raises_from_run(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise RuntimeError("unhandled")

        p = env.process(bad(env))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run(until=p)

    def test_requires_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_non_event_is_error(self):
        env = Environment()

        def bad(env):
            yield 17

        p = env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_deadlock_detected(self):
        env = Environment()

        def waiter(env):
            yield env.event()  # never triggered

        p = env.process(waiter(env))
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=p)


class TestInterrupts:
    def test_interrupt_reaches_process(self):
        env = Environment()
        log = []

        def victim(env):
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                log.append(("interrupted", env.now, i.cause))

        def attacker(env, target):
            yield env.timeout(5.0)
            target.interrupt(cause="overload")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == [("interrupted", 5.0, "overload")]

    def test_uncaught_interrupt_cancels_cleanly(self):
        env = Environment()

        def victim(env):
            yield env.timeout(100.0)

        def attacker(env, target):
            yield env.timeout(5.0)
            target.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert not v.is_alive
        assert v.ok

    def test_interrupt_finished_process_raises(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupt_before_first_step_cancels_the_body(self):
        env = Environment()
        ran = []

        def body(env):
            ran.append(env.now)
            yield env.timeout(1.0)
            ran.append(env.now)

        p = env.process(body(env))
        p.interrupt("stop")
        env.run()
        assert ran == []
        assert not p.is_alive
        assert p.ok
        assert env.failed_processes == []


class TestCompositeEvents:
    def test_all_of_collects_values(self):
        env = Environment()

        def proc(env):
            t1 = env.timeout(1.0, value="a")
            t2 = env.timeout(3.0, value="b")
            vals = yield env.all_of([t1, t2])
            return (env.now, vals)

        p = env.process(proc(env))
        assert env.run(until=p) == (3.0, ["a", "b"])

    def test_all_of_empty_fires_immediately(self):
        env = Environment()

        def proc(env):
            vals = yield env.all_of([])
            return vals

        p = env.process(proc(env))
        assert env.run(until=p) == []

    def test_any_of_returns_first(self):
        env = Environment()

        def proc(env):
            slow = env.timeout(10.0, value="slow")
            fast = env.timeout(2.0, value="fast")
            idx, val = yield env.any_of([slow, fast])
            return (env.now, idx, val)

        p = env.process(proc(env))
        assert env.run(until=p) == (2.0, 1, "fast")


class TestEventSemantics:
    def test_event_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_manual_succeed_wakes_waiter(self):
        env = Environment()
        flag = env.event()
        got = []

        def waiter(env):
            v = yield flag
            got.append((env.now, v))

        def signaller(env):
            yield env.timeout(7.0)
            flag.succeed("go")

        env.process(waiter(env))
        env.process(signaller(env))
        env.run()
        assert got == [(7.0, "go")]

    def test_add_callback_runs_after_the_earlier_waiters(self):
        env = Environment()
        flag = env.event()
        got = []

        def waiter(env):
            got.append(("process", (yield flag)))

        env.process(waiter(env))
        env.run()  # the waiter attaches first
        flag.add_callback(lambda ev: got.append(("callback", ev.value)))
        flag.succeed("go")
        env.run()
        assert got == [("process", "go"), ("callback", "go")]

    def test_add_callback_needs_no_process(self):
        env = Environment()
        got = []

        def work(env):
            yield env.timeout(3.0)
            return "done"

        proc = env.process(work(env))
        proc.add_callback(lambda ev: got.append((env.now, ev.value)))
        env.run()
        assert got == [(3.0, "done")]

    def test_add_callback_to_a_processed_event_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        env.run()
        with pytest.raises(SimulationError):
            ev.add_callback(lambda ev: None)

    def test_step_empty_queue_raises(self):
        env = Environment()
        env.run()
        with pytest.raises(SimulationError):
            env.step()

    def test_peek(self):
        env = Environment()
        assert env.peek() == float("inf")
        env.timeout(4.0)
        assert env.peek() == pytest.approx(0.0) or env.peek() <= 4.0


class TestFastPathEdgeCases:
    """Orderings the kernel fast paths must preserve exactly.

    These pin the engine's trace ordering for the cases the optimized
    resume path (no relay-event allocation) and the timeout fast path
    touch: resuming from already-processed events, interrupting such a
    pending resume, and same-tick URGENT/NORMAL interleaving.
    """

    def test_resume_from_processed_event_before_same_tick_timeout(self):
        # A process waking from an already-processed event resumes
        # URGENT, i.e. before any NORMAL event of the same tick.
        env = Environment()
        ev = env.event()
        ev.succeed("x")
        env.run()  # ev is now processed (callbacks ran)
        order = []

        def waiter(env):
            v = yield ev
            order.append(("waiter", v))

        def ticker(env):
            yield env.timeout(0.0)
            order.append(("ticker", env.now))

        env.process(waiter(env))
        env.process(ticker(env))
        env.run()
        assert order == [("waiter", "x"), ("ticker", 0.0)]

    def test_resume_from_processed_failed_event_throws(self):
        env = Environment()
        bad = env.event()
        bad.fail(RuntimeError("late"))
        env.run()  # bad is processed; nobody was waiting

        def waiter(env):
            try:
                yield bad
            except RuntimeError as e:
                return f"caught {e}"
            yield env.timeout(1.0)  # pragma: no cover

        p = env.process(waiter(env))
        assert env.run(until=p) == "caught late"

    def test_interrupt_cancels_pending_resume_from_processed_event(self):
        # victim yields an already-processed event (resume is pending,
        # same tick, URGENT); the attacker's interrupt lands before that
        # resume fires and must win — the victim sees only the Interrupt.
        env = Environment()
        ev = env.event()
        ev.succeed("payload")
        env.run()
        log = []

        def victim(env):
            try:
                got = yield ev
                log.append(("resumed", got))
            except Interrupt as i:
                log.append(("interrupted", i.cause))

        v = env.process(victim(env))

        def attacker(env):
            v.interrupt("too-late")
            return
            yield  # pragma: no cover

        env.process(attacker(env))
        env.run()
        assert log == [("interrupted", "too-late")]

    def test_any_of_first_child_already_failed_processed(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("dead"))
        env.run()  # bad processed before the AnyOf is built

        def proc(env):
            slow = env.timeout(5.0, value="slow")
            try:
                yield env.any_of([bad, slow])
            except ValueError as e:
                return ("caught", str(e), env.now)
            return "unreachable"  # pragma: no cover

        p = env.process(proc(env))
        # the failure propagates at the current tick, not at t=5
        assert env.run(until=p) == ("caught", "dead", 0.0)

    def test_timeout_zero_orders_by_schedule_seq_against_succeed(self):
        # Both a Timeout(0) and a manual succeed() are NORMAL events at
        # the same tick: whichever was scheduled first fires first.
        env = Environment()
        order = []
        flag = env.event()

        def a(env):
            yield env.timeout(0.0)
            order.append("t0")

        def b(env):
            yield flag
            order.append("flag")

        def c(env):
            flag.succeed()
            return
            yield  # pragma: no cover

        env.process(a(env))
        env.process(b(env))
        env.process(c(env))
        env.run()
        # a's Timeout(0) is enqueued during a's bootstrap, before c's
        # bootstrap calls succeed() — so the timeout fires first.
        assert order == ["t0", "flag"]

    def test_succeed_before_run_orders_ahead_of_timeout_zero(self):
        # Mirror case: succeed() called before the processes boot, so the
        # flag's NORMAL event precedes the Timeout(0) in schedule order.
        env = Environment()
        order = []
        flag = env.event()

        def a(env):
            yield env.timeout(0.0)
            order.append("t0")

        def b(env):
            yield flag
            order.append("flag")

        env.process(a(env))
        env.process(b(env))
        flag.succeed()
        env.run()
        assert order == ["flag", "t0"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            env = Environment()
            log = []

            def worker(env, k):
                for i in range(3):
                    yield env.timeout(k * 1.5 + 0.5)
                    log.append((env.now, k, i))

            for k in range(4):
                env.process(worker(env, k))
            env.run()
            return log

        assert build() == build()
