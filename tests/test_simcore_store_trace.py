"""Tests for simcore Store (mailboxes) and Tracer."""

from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.simcore import Environment, Interrupt, Store, Tracer


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        store.put("msg")
        env.process(consumer(env))
        env.run()
        assert got == [(0.0, "msg")]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(5.0)
            store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(5.0, "late")]

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        out = []

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        for item in (1, 2, 3):
            store.put(item)
        env.process(consumer(env))
        env.run()
        assert out == [1, 2, 3]

    def test_try_get(self):
        env = Environment()
        store = Store(env)
        assert store.try_get() is None
        store.put("x")
        env.run()
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_len(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_multiple_consumers_each_get_one(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, tag):
            item = yield store.get()
            got.append((tag, item))

        env.process(consumer(env, "c1"))
        env.process(consumer(env, "c2"))
        store.put("first")
        store.put("second")
        env.run()
        assert sorted(got) == [("c1", "first"), ("c2", "second")]


    def test_interrupted_getter_leaves_the_queue(self):
        # a stopped daemon's pending get must not swallow the next item
        # meant for whoever reads the mailbox after it
        env = Environment()
        store = Store(env)
        got = []

        def reader(tag):
            item = yield store.get()
            got.append((tag, item))

        old = env.process(reader("old"))
        env.run(until=1.0)
        old.interrupt("stop")
        env.process(reader("new"))
        env.run(until=2.0)
        store.put("msg")
        env.run(until=3.0)
        assert got == [("new", "msg")]
        assert not old.is_alive

    def test_get_shared_by_interrupted_readers_leaves_the_queue(self):
        env = Environment()
        store = Store(env)
        shared = store.get()
        got = []

        def waiter():
            yield shared

        def reader():
            got.append((yield store.get()))

        waiters = [env.process(waiter()) for _ in range(2)]
        env.run(until=1.0)
        for proc in waiters:
            proc.interrupt("stop")
        env.process(reader())
        env.run(until=2.0)
        store.put("msg")
        env.run(until=3.0)
        assert got == ["msg"]
        assert not shared.triggered

    def test_interrupt_after_handoff_keeps_other_getters(self):
        # a get already handed its item is not in the queue any more;
        # interrupting its reader must leave the next getter in place
        env = Environment()
        store = Store(env)
        got = []

        def reader(tag):
            item = yield store.get()
            got.append((tag, item))

        first = env.process(reader("first"))
        env.process(reader("second"))
        env.run(until=1.0)
        store.put("a")
        first.interrupt("stop")
        store.put("b")
        env.run(until=2.0)
        assert got == [("second", "b")]


class StoreModel(RuleBasedStateMachine):
    """One :class:`Store` against a deque model.

    Every rule runs the simulation until nothing is pending, so each
    reader that can be served has been.  The model holds the buffer, the
    waiting readers in getter-queue order and every item handed out, in
    order.
    """

    @initialize()
    def make_store(self):
        self.env = Environment()
        self.store = Store(self.env)
        self.next_item = 0
        self.buffer: deque = deque()
        self.waiting: deque = deque()      # reader tags, getter order
        self.readers: dict = {}            # tag -> process
        self.expected: list = []           # (tag, item), delivery order
        self.got: list = []
        self.taken: list = []              # try_get results
        self.put_items: list = []

    # -- rules -----------------------------------------------------------
    @rule()
    def put(self):
        self.next_item += 1
        item = self.next_item
        assert self.store.put(item) is None
        self.put_items.append(item)
        if self.waiting:
            self.expected.append((self.waiting.popleft(), item))
        else:
            self.buffer.append(item)
        self.env.run()

    @rule()
    def get(self):
        tag = len(self.readers)

        def reader():
            try:
                item = yield self.store.get()
            except Interrupt:
                return
            self.got.append((tag, item))

        self.readers[tag] = self.env.process(reader())
        if self.buffer:
            self.expected.append((tag, self.buffer.popleft()))
        else:
            self.waiting.append(tag)
        self.env.run()

    @rule()
    def try_get(self):
        item = self.store.try_get()
        if self.buffer:
            assert item == self.buffer.popleft()
            self.taken.append(item)
        else:
            assert item is None
        self.env.run()

    @precondition(lambda self: self.waiting)
    @rule(data=st.data())
    def interrupt_waiting_reader(self, data):
        tag = data.draw(st.sampled_from(list(self.waiting)))
        self.readers[tag].interrupt("stop")
        self.waiting.remove(tag)
        self.env.run()
        assert not self.readers[tag].is_alive

    # -- checks ----------------------------------------------------------
    @invariant()
    def fifo_and_nothing_lost_or_duplicated(self):
        assert list(self.store.items) == list(self.buffer)
        assert len(self.store) == len(self.buffer)
        assert self.got == self.expected
        held = (list(self.buffer) + [item for _, item in self.got]
                + self.taken)
        assert sorted(held) == sorted(self.put_items)

    @invariant()
    def interrupted_readers_leave_the_getter_queue(self):
        assert len(self.store._getters) == len(self.waiting)
        assert not (self.store._getters and self.store.items)


TestStoreModel = StoreModel.TestCase
TestStoreModel.settings = settings(max_examples=30, stateful_step_count=25,
                                   derandomize=True, deadline=None)


class TestTracer:
    def test_record_and_query(self):
        tr = Tracer()
        tr.record(1.0, "load-report", "monitor:h1", load=0.5)
        tr.record(2.0, "load-report", "monitor:h2", load=0.7)
        tr.record(3.0, "echo", "gm:g1")
        assert tr.count("load-report") == 2
        assert tr.count("echo") == 1
        assert tr.count() == 3

    def test_query_by_actor_and_window(self):
        tr = Tracer()
        for t in range(10):
            tr.record(float(t), "tick", "a" if t % 2 else "b")
        recs = list(tr.query(category="tick", actor="a", since=3.0, until=7.0))
        assert [r.time for r in recs] == [3.0, 5.0, 7.0]

    def test_categories_histogram(self):
        tr = Tracer()
        tr.record(0.0, "a", "x")
        tr.record(0.0, "a", "x")
        tr.record(0.0, "b", "x")
        assert tr.categories() == {"a": 2, "b": 1}

    def test_clear(self):
        tr = Tracer()
        tr.record(0.0, "a", "x")
        tr.clear()
        assert tr.count() == 0

    def test_detail_payload(self):
        tr = Tracer()
        tr.record(5.0, "task-finish", "host-1", task="lu", elapsed=3.2)
        rec = tr.records[0]
        assert rec.detail == {"task": "lu", "elapsed": 3.2}
