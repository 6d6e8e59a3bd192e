"""Traffic generators and trace ingestion: determinism and statistics.

The contracts under test:

* same seed → byte-identical arrival sequences (rendered trace lines)
  for all three generators;
* open-loop arrivals converge to the configured rate;
* closed-loop arrivals respect the population invariant — at most one
  outstanding job per user (``submit[k+1] >= submit[k] + duration[k]``);
* trace files round-trip through dump/load and malformed lines raise
  typed errors.
"""

import collections

import pytest

from repro.traffic import (
    ClosedLoopGenerator,
    JobRequest,
    OpenLoopGenerator,
    TraceError,
    WorkloadShape,
    dump_trace,
    load_trace,
    parse_trace_line,
    synthetic_alibaba_trace,
    template_of_job,
    tenant_of_user,
)
from repro.traffic.templates import TEMPLATE_NAMES
from repro.util.rng import RngRegistry


def stream(seed=11, name="traffic-test"):
    return RngRegistry(seed).stream(name)


def render(requests):
    return "\n".join(req.as_line() for req in requests)


class TestDeterminism:
    @pytest.mark.parametrize("make", [
        lambda rng: OpenLoopGenerator(rng, count=400, rate_per_s=10.0,
                                      users=50, tenants=5,
                                      templates=TEMPLATE_NAMES),
        lambda rng: ClosedLoopGenerator(rng, count=400, users=30,
                                        tenants=3, think_time_s=5.0,
                                        templates=TEMPLATE_NAMES),
        lambda rng: synthetic_alibaba_trace(rng, count=400, users=50,
                                            tenants=5,
                                            templates=TEMPLATE_NAMES),
    ], ids=["open-loop", "closed-loop", "alibaba"])
    def test_same_seed_byte_identical(self, make):
        first = render(make(stream()))
        second = render(make(stream()))
        assert first == second
        assert len(first.splitlines()) == 400

    def test_different_seed_differs(self):
        first = render(OpenLoopGenerator(stream(1), 100, rate_per_s=10.0))
        second = render(OpenLoopGenerator(stream(2), 100, rate_per_s=10.0))
        assert first != second

    def test_stream_name_isolates_draws(self):
        # DET001: the generator owns a named stream, so an unrelated
        # consumer on another stream never perturbs the sequence
        reg = RngRegistry(7)
        a = render(OpenLoopGenerator(reg.stream("traffic-open-loop"),
                                     100, rate_per_s=10.0))
        reg2 = RngRegistry(7)
        reg2.stream("other").integers(1000)  # unrelated draw
        b = render(OpenLoopGenerator(reg2.stream("traffic-open-loop"),
                                     100, rate_per_s=10.0))
        assert a == b


class TestOpenLoop:
    def test_rate_convergence(self):
        n, rate = 20_000, 25.0
        reqs = list(OpenLoopGenerator(stream(), n, rate_per_s=rate,
                                      users=100, tenants=10))
        span = reqs[-1].submit_time_s - reqs[0].submit_time_s
        observed = (n - 1) / span
        assert observed == pytest.approx(rate, rel=0.05), \
            f"open-loop rate drifted: {observed:.2f}/s vs {rate}/s"

    def test_submit_times_non_decreasing(self):
        reqs = list(OpenLoopGenerator(stream(), 1000, rate_per_s=10.0))
        for a, b in zip(reqs, reqs[1:]):
            assert b.submit_time_s >= a.submit_time_s

    def test_tenant_binding_is_user_stable(self):
        reqs = list(OpenLoopGenerator(stream(), 2000, rate_per_s=10.0,
                                      users=40, tenants=4))
        by_user = {}
        for req in reqs:
            assert by_user.setdefault(req.user, req.tenant) == req.tenant
        assert len({req.tenant for req in reqs}) == 4

    def test_shape_caps_respected(self):
        shape = WorkloadShape(nproc_cap=4, min_duration_s=0.5)
        reqs = list(OpenLoopGenerator(stream(), 2000, rate_per_s=10.0,
                                      shape=shape))
        assert max(req.nproc for req in reqs) <= 4
        assert min(req.nproc for req in reqs) >= 1
        assert min(req.duration_s for req in reqs) >= 0.5

    def test_invalid_parameters_raise(self):
        with pytest.raises(TraceError):
            OpenLoopGenerator(stream(), 10, rate_per_s=0.0)
        with pytest.raises(TraceError):
            OpenLoopGenerator(stream(), 10, rate_per_s=1.0, users=0)
        with pytest.raises(TraceError):
            OpenLoopGenerator(stream(), 10, rate_per_s=1.0, users=5,
                              tenants=6)


class TestClosedLoop:
    def test_population_invariant(self):
        # at most one outstanding job per user: every user's next submit
        # is at or after the previous job's completion
        reqs = list(ClosedLoopGenerator(stream(), 3000, users=20,
                                        tenants=4, think_time_s=2.0))
        last_done = collections.defaultdict(float)
        for req in reqs:
            assert req.submit_time_s >= last_done[req.user] - 1e-9, \
                f"user {req.user} had two jobs outstanding"
            last_done[req.user] = req.submit_time_s + req.duration_s

    def test_all_users_participate(self):
        reqs = list(ClosedLoopGenerator(stream(), 2000, users=25,
                                        tenants=5, think_time_s=1.0))
        assert len({req.user for req in reqs}) == 25

    def test_zero_think_time_back_to_back(self):
        reqs = list(ClosedLoopGenerator(stream(), 50, users=1, tenants=1,
                                        think_time_s=0.0))
        for a, b in zip(reqs, reqs[1:]):
            assert b.submit_time_s == pytest.approx(
                a.submit_time_s + a.duration_s)

    def test_load_self_regulates_with_population(self):
        # double the users -> roughly double the throughput per horizon
        small = list(ClosedLoopGenerator(stream(), 2000, users=10,
                                         tenants=2, think_time_s=5.0))
        large = list(ClosedLoopGenerator(stream(), 2000, users=20,
                                         tenants=2, think_time_s=5.0))
        rate_small = 2000 / small[-1].submit_time_s
        rate_large = 2000 / large[-1].submit_time_s
        assert rate_large == pytest.approx(2 * rate_small, rel=0.25)


class TestAlibabaTrace:
    def test_count_and_ordering(self):
        reqs = list(synthetic_alibaba_trace(stream(), 2000, users=100,
                                            tenants=10))
        assert len(reqs) == 2000
        for a, b in zip(reqs, reqs[1:]):
            assert b.submit_time_s >= a.submit_time_s

    def test_heavy_tail_shape(self):
        reqs = list(synthetic_alibaba_trace(stream(), 5000, users=100,
                                            tenants=10))
        nprocs = sorted(req.nproc for req in reqs)
        # bulk small, fat tail: median tiny, max well above it
        assert nprocs[len(nprocs) // 2] <= 3
        assert nprocs[-1] >= 8
        durations = sorted(req.duration_s for req in reqs)
        assert durations[-1] / durations[len(durations) // 2] > 10


class TestTraceFiles:
    def test_dump_load_round_trip(self, tmp_path):
        reqs = list(OpenLoopGenerator(stream(), 200, rate_per_s=10.0,
                                      users=20, tenants=4,
                                      templates=TEMPLATE_NAMES))
        path = tmp_path / "trace.txt"
        assert dump_trace(reqs, path) == 200
        loaded = list(load_trace(path))
        assert [r.as_line() for r in loaded] == \
            [r.as_line() for r in reqs]

    def test_missing_columns_filled_deterministically(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("# comment\n\nj1 2 0.0 5.0 alice\n"
                        "j2 1 1.0 2.0 bob\n")
        loaded = list(load_trace(path, tenants=4,
                                 templates=TEMPLATE_NAMES))
        assert [r.tenant for r in loaded] == \
            [tenant_of_user("alice", 4), tenant_of_user("bob", 4)]
        assert [r.template for r in loaded] == \
            [template_of_job("j1", TEMPLATE_NAMES),
             template_of_job("j2", TEMPLATE_NAMES)]

    def test_parse_errors_are_typed(self):
        assert parse_trace_line("# comment") is None
        assert parse_trace_line("   ") is None
        with pytest.raises(TraceError, match="5-7 columns"):
            parse_trace_line("j1 2 0.0", lineno=3)
        with pytest.raises(TraceError, match="nproc"):
            parse_trace_line("j1 0 0.0 5.0 u1")
        with pytest.raises(TraceError, match="duration"):
            parse_trace_line("j1 2 0.0 0.0 u1")
        with pytest.raises(TraceError):
            parse_trace_line("j1 two 0.0 5.0 u1")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["submit", "duration"])
    def test_non_finite_times_rejected(self, column, value):
        times = {"submit": "0.0", "duration": "5.0", column: value}
        line = f"j1 1 {times['submit']} {times['duration']} u1"
        with pytest.raises(TraceError, match="trace line 4: .* finite"):
            parse_trace_line(line, lineno=4)

    def test_nan_submit_fails_the_load_at_its_line(self, tmp_path):
        # float() parses "nan" and nan < 0 is False: without the finite
        # check this trace replays to a NaN horizon and utilization
        path = tmp_path / "nan.txt"
        path.write_text("j1 1 0.0 5.0 u1\nj2 1 nan 5.0 u2\n")
        with pytest.raises(TraceError, match="trace line 2: .* finite"):
            list(load_trace(path))

    def test_decreasing_submit_times_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("j1 1 5.0 1.0 u1\nj2 1 4.0 1.0 u1\n")
        with pytest.raises(TraceError, match="non-decreasing"):
            list(load_trace(path))

    def test_as_line_omits_empty_template(self):
        req = JobRequest(job="j1", nproc=2, submit_time_s=0.0,
                         duration_s=1.0, user="u1", tenant="t00")
        assert req.as_line().endswith("u1 t00")
