"""Unit tests for causal spans and the span tracker (repro.obs.spans)."""

from __future__ import annotations

import pytest

from repro.obs.spans import SPAN_CATEGORIES, SpanTracker


class TestSpanLifecycle:
    def test_begin_end_records_duration_and_attrs(self):
        st = SpanTracker()
        sid = st.begin("lu", "task-execution", "s/h1", 10.0, task="lu")
        span = st.get(sid)
        assert not span.finished
        st.end(sid, 12.5, elapsed=2.5)
        assert span.finished
        assert span.duration_s() == pytest.approx(2.5)
        assert span.attrs == {"task": "lu", "elapsed": 2.5}

    def test_ids_are_monotone_from_one(self):
        st = SpanTracker()
        ids = [st.complete(f"n{i}", "task-execution", "a", 0.0, 1.0)
               for i in range(3)]
        assert ids == [1, 2, 3]

    def test_double_end_rejected(self):
        st = SpanTracker()
        sid = st.begin("x", "application", "a", 0.0)
        st.end(sid, 1.0)
        with pytest.raises(ValueError):
            st.end(sid, 2.0)

    def test_end_before_start_rejected(self):
        st = SpanTracker()
        sid = st.begin("x", "application", "a", 5.0)
        with pytest.raises(ValueError):
            st.end(sid, 4.0)

    def test_open_span_duration_extends_to_clock_end(self):
        st = SpanTracker()
        sid = st.begin("x", "application", "a", 2.0)
        assert st.get(sid).duration_s(clock_end=9.0) == pytest.approx(7.0)
        assert st.get(sid).duration_s() == 0.0

    def test_unknown_category_rejected(self):
        st = SpanTracker()
        with pytest.raises(ValueError):
            st.begin("x", "nonsense", "a", 0.0)
        assert "task-execution" in SPAN_CATEGORIES


class TestCausalTree:
    def _small_tree(self):
        st = SpanTracker()
        app = st.begin("app", "application", "site", 0.0)
        rnd = st.complete("sched", "schedule-round", "sm", 0.0, 0.1,
                          parent_id=app)
        t1 = st.begin("t1", "task-execution", "h1", 0.2, parent_id=app)
        msg = st.complete("m", "message-delivery", "h1", 0.3, 0.4,
                          parent_id=t1)
        st.end(t1, 0.5)
        st.end(app, 0.6)
        return st, app, rnd, t1, msg

    def test_tree_reconstructs_parentage(self):
        st, app, rnd, t1, msg = self._small_tree()
        edges = st.tree()
        assert edges[None] == [app]
        assert edges[app] == [rnd, t1]
        assert edges[t1] == [msg]

    def test_children_and_by_category(self):
        st, app, rnd, t1, msg = self._small_tree()
        assert [s.span_id for s in st.children(app)] == [rnd, t1]
        assert [s.span_id for s in st.children(None)] == [app]
        assert [s.span_id for s in st.by_category("message-delivery")] \
            == [msg]

    def test_finished_and_open(self):
        st = SpanTracker()
        a = st.begin("a", "application", "x", 0.0)
        st.complete("b", "schedule-round", "x", 0.0, 1.0)
        assert [s.span_id for s in st.open_spans()] == [a]
        assert len(st.finished("schedule-round")) == 1

    def test_unknown_parent_rejected(self):
        st = SpanTracker()
        with pytest.raises(KeyError):
            st.begin("x", "application", "a", 0.0, parent_id=77)


class TestBindings:
    def test_bind_lookup_roundtrip(self):
        st = SpanTracker()
        sid = st.begin("app", "application", "s", 0.0)
        st.bind(("app", "exec-1"), sid)
        assert st.lookup(("app", "exec-1")) == sid
        assert st.lookup(("app", "exec-2")) is None

    def test_clear_resets_everything(self):
        st = SpanTracker()
        sid = st.begin("app", "application", "s", 0.0)
        st.bind(("app", "exec-1"), sid)
        st.clear()
        assert len(st) == 0
        assert st.lookup(("app", "exec-1")) is None
        assert st.begin("x", "application", "s", 0.0) == 1  # ids restart
