"""Tests for task definitions, the registry, and the three libraries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tasklib import (
    LibraryRegistry,
    TaskDefinition,
    TaskLibrary,
    TaskSignature,
    build_c3i_library,
    build_fourier_library,
    build_matrix_library,
    compute_scale,
    standard_registry,
)
from repro.util.errors import (
    ConfigurationError,
    ExecutionError,
    UnknownTaskError,
)


class TestComputeScale:
    def test_unit_at_base_size(self):
        for c in ("constant", "linear", "nlogn", "quadratic", "cubic"):
            assert compute_scale(c, 100, 100) == pytest.approx(1.0)

    def test_cubic_growth(self):
        assert compute_scale("cubic", 200, 100) == pytest.approx(8.0)

    def test_unknown_complexity(self):
        with pytest.raises(ConfigurationError):
            compute_scale("exponential", 10, 10)

    def test_nonpositive_size(self):
        with pytest.raises(ValueError):
            compute_scale("linear", 0, 10)

    @given(st.sampled_from(["linear", "nlogn", "quadratic", "cubic"]),
           st.floats(1.0, 1e4), st.floats(1.0, 1e4))
    def test_monotone(self, c, a, b):
        lo, hi = sorted((a, b))
        assert compute_scale(c, lo, 100) <= compute_scale(c, hi, 100) + 1e-9


class TestTaskSignature:
    def test_source_sink(self):
        assert TaskSignature(inputs=(), outputs=("o",)).is_source
        assert TaskSignature(inputs=("i",), outputs=()).is_sink

    def test_duplicate_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSignature(inputs=("a", "a"))


class TestTaskDefinition:
    def make(self, **kw):
        defaults = dict(name="t", library="lib", description="d")
        defaults.update(kw)
        return TaskDefinition(**defaults)

    def test_base_execution_time_scales(self):
        d = self.make(base_time_s=2.0, base_size=100, complexity="cubic")
        assert d.base_execution_time(100) == pytest.approx(2.0)
        assert d.base_execution_time(200) == pytest.approx(16.0)

    def test_parallel_speedup(self):
        d = self.make(parallel_capable=True, parallel_efficiency=1.0,
                      base_time_s=8.0, base_size=100, complexity="constant")
        assert d.base_execution_time(100, processors=4) == pytest.approx(2.0)

    def test_parallel_efficiency_limits_speedup(self):
        d = self.make(parallel_capable=True, parallel_efficiency=0.5,
                      base_time_s=1.0, complexity="constant")
        t4 = d.base_execution_time(d.base_size, processors=4)
        assert t4 == pytest.approx(1.0 * (0.5 + 0.5 / 4))

    def test_parallel_on_sequential_task_rejected(self):
        d = self.make(parallel_capable=False)
        with pytest.raises(ConfigurationError):
            d.base_execution_time(100, processors=2)

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            self.make().base_execution_time(100, processors=0)

    def test_output_and_memory_models(self):
        d = self.make(output_bytes_per_unit=8.0, output_complexity="quadratic",
                      memory_mb_base=1.0, memory_mb_per_unit=0.001,
                      memory_complexity="linear")
        assert d.output_size_bytes(10) == pytest.approx(800.0)
        assert d.output_size_bytes(0) == 0.0
        assert d.memory_required_mb(100) == pytest.approx(1.1)

    def test_execute_without_impl_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().execute({})

    def test_execute_validates_ports(self):
        d = self.make(
            signature=TaskSignature(inputs=("x",), outputs=("y",)),
            impl=lambda ins, ps: {"y": ins["x"] + 1})
        assert d.execute({"x": 1}) == {"y": 2}
        with pytest.raises(ConfigurationError):
            d.execute({"wrong": 1})

    def test_execute_validates_outputs(self):
        d = self.make(
            signature=TaskSignature(inputs=(), outputs=("y",)),
            impl=lambda ins, ps: {"z": 1})
        with pytest.raises(ConfigurationError):
            d.execute({})

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make(base_time_s=0)
        with pytest.raises(ConfigurationError):
            self.make(complexity="alien")
        with pytest.raises(ConfigurationError):
            self.make(parallel_efficiency=0.0)


class TestRegistry:
    def test_menu_structure(self):
        reg = standard_registry()
        menu = reg.menu()
        assert "matrix-operations" in menu
        assert "lu-decomposition" in menu["matrix-operations"]
        assert "c3i" in menu and "fourier-analysis" in menu

    def test_resolve(self):
        reg = standard_registry()
        d = reg.resolve("matrix-multiply")
        assert d.library == "matrix-operations"

    def test_resolve_unknown(self):
        with pytest.raises(UnknownTaskError):
            standard_registry().resolve("quantum-teleport")

    def test_duplicate_task_across_libraries_rejected(self):
        reg = LibraryRegistry()
        l1 = TaskLibrary("a")
        l1.add(TaskDefinition(name="t", library="a", description=""))
        l2 = TaskLibrary("b")
        l2.add(TaskDefinition(name="t", library="b", description=""))
        reg.add_library(l1)
        with pytest.raises(ConfigurationError):
            reg.add_library(l2)

    def test_library_rejects_foreign_task(self):
        lib = TaskLibrary("mine")
        with pytest.raises(ConfigurationError):
            lib.add(TaskDefinition(name="t", library="other", description=""))

    def test_all_tasks_sorted_unique(self):
        reg = standard_registry()
        names = [t.name for t in reg.all_tasks()]
        assert names == sorted(names)
        assert len(names) == len(set(names))


class TestMatrixLibrary:
    @pytest.fixture(scope="class")
    def lib(self):
        return build_matrix_library()

    def test_lu_reconstructs(self, lib):
        gen = lib.get("matrix-generate")
        lu = lib.get("lu-decomposition")
        a = gen.execute({}, {"n": 30, "seed": 3})["matrix"]
        out = lu.execute({"matrix": a})
        np.testing.assert_allclose(out["lower"] @ out["upper"], a, atol=1e-8)
        # L unit-lower-triangular, U upper-triangular
        assert np.allclose(np.diag(out["lower"]), 1.0)
        assert np.allclose(np.tril(out["upper"], -1), 0.0)
        assert np.allclose(np.triu(out["lower"], 1), 0.0)

    def test_lu_rejects_non_square(self, lib):
        with pytest.raises(ExecutionError):
            lib.get("lu-decomposition").execute({"matrix": np.ones((2, 3))})

    def test_lu_zero_pivot(self, lib):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ExecutionError):
            lib.get("lu-decomposition").execute({"matrix": a})

    def test_inverse(self, lib):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        inv = lib.get("matrix-inverse").execute({"matrix": a})["inverse"]
        np.testing.assert_allclose(inv, [[0.5, 0], [0, 0.25]])

    def test_inverse_singular(self, lib):
        with pytest.raises(ExecutionError):
            lib.get("matrix-inverse").execute({"matrix": np.zeros((3, 3))})

    def test_full_solver_dataflow_matches_figure3(self, lib):
        """A^-1 = U^-1 @ L^-1 and x = A^-1 b solves Ax=b (Figure 3)."""
        n = 25
        a = lib.get("matrix-generate").execute({}, {"n": n, "seed": 7})["matrix"]
        b = lib.get("vector-generate").execute({}, {"n": n, "seed": 8})["vector"]
        lu = lib.get("lu-decomposition").execute({"matrix": a})
        li = lib.get("matrix-inverse").execute({"matrix": lu["lower"]})["inverse"]
        ui = lib.get("matrix-inverse").execute({"matrix": lu["upper"]})["inverse"]
        ainv = lib.get("matrix-multiply").execute({"a": ui, "b": li})["product"]
        x = lib.get("matrix-vector-multiply").execute(
            {"matrix": ainv, "vector": b})["product"]
        norm = lib.get("residual-norm").execute(
            {"matrix": a, "solution": x, "rhs": b})["norm"]
        assert norm < 1e-6

    def test_triangular_solve(self, lib):
        low = np.array([[2.0, 0.0], [1.0, 3.0]])
        rhs = np.array([4.0, 11.0])
        x = lib.get("triangular-solve").execute(
            {"matrix": low, "rhs": rhs}, {"lower": True})["solution"]
        np.testing.assert_allclose(low @ x, rhs)
        up = low.T
        y = lib.get("triangular-solve").execute(
            {"matrix": up, "rhs": rhs}, {"lower": False})["solution"]
        np.testing.assert_allclose(up @ y, rhs)

    def test_add_transpose(self, lib):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert (lib.get("matrix-add").execute({"a": a, "b": b})["sum"]
                == np.array([[4.0, 6.0]])).all()
        t = lib.get("matrix-transpose").execute({"matrix": a})["transposed"]
        assert t.shape == (2, 1)

    def test_multiply_shape_mismatch(self, lib):
        with pytest.raises(ExecutionError):
            lib.get("matrix-multiply").execute(
                {"a": np.ones((2, 3)), "b": np.ones((2, 3))})

    def test_generate_kinds(self, lib):
        gen = lib.get("matrix-generate")
        for kind in ("random", "diag-dominant", "spd"):
            m = gen.execute({}, {"n": 10, "kind": kind})["matrix"]
            assert m.shape == (10, 10)
        with pytest.raises(ExecutionError):
            gen.execute({}, {"kind": "hilbert"})

    def test_generate_deterministic(self, lib):
        gen = lib.get("matrix-generate")
        m1 = gen.execute({}, {"n": 5, "seed": 9})["matrix"]
        m2 = gen.execute({}, {"n": 5, "seed": 9})["matrix"]
        np.testing.assert_array_equal(m1, m2)

    @given(st.integers(2, 20), st.integers(0, 100))
    def test_lu_property_reconstruction(self, n, seed):
        lib = build_matrix_library()
        a = lib.get("matrix-generate").execute(
            {}, {"n": n, "seed": seed})["matrix"]
        out = lib.get("lu-decomposition").execute({"matrix": a})
        np.testing.assert_allclose(out["lower"] @ out["upper"], a,
                                   atol=1e-7, rtol=1e-7)


class TestFourierLibrary:
    @pytest.fixture(scope="class")
    def lib(self):
        return build_fourier_library()

    def test_fft_ifft_roundtrip(self, lib):
        sig = lib.get("signal-generate").execute(
            {}, {"n": 256, "noise": 0.0})["signal"]
        spec = lib.get("fft-1d").execute({"signal": sig})["spectrum"]
        back = lib.get("ifft-1d").execute({"spectrum": spec})["signal"]
        np.testing.assert_allclose(back, sig, atol=1e-9)

    def test_peak_detect_finds_tones(self, lib):
        sig = lib.get("signal-generate").execute(
            {}, {"n": 1000, "tones": [(50.0, 1.0), (120.0, 0.8)],
                 "noise": 0.0, "sample_rate": 1000.0})["signal"]
        spec = lib.get("fft-1d").execute({"signal": sig})["spectrum"]
        power = lib.get("power-spectrum").execute({"spectrum": spec})["power"]
        peaks = lib.get("peak-detect").execute(
            {"power": power}, {"count": 2, "sample_rate": 1000.0})["peaks"]
        assert set(np.round(peaks)) == {50.0, 120.0}

    def test_lowpass_removes_high_tone(self, lib):
        sig = lib.get("signal-generate").execute(
            {}, {"n": 1000, "tones": [(50.0, 1.0), (300.0, 1.0)],
                 "noise": 0.0, "sample_rate": 1000.0})["signal"]
        spec = lib.get("fft-1d").execute({"signal": sig})["spectrum"]
        filtered = lib.get("lowpass-filter").execute(
            {"spectrum": spec}, {"cutoff_hz": 100.0,
                                 "sample_rate": 1000.0})["spectrum"]
        power = lib.get("power-spectrum").execute(
            {"spectrum": filtered})["power"]
        peaks = lib.get("peak-detect").execute(
            {"power": power}, {"count": 1, "sample_rate": 1000.0})["peaks"]
        assert round(peaks[0]) == 50.0

    def test_lowpass_bad_cutoff(self, lib):
        with pytest.raises(ExecutionError):
            lib.get("lowpass-filter").execute(
                {"spectrum": np.ones(8, dtype=complex)}, {"cutoff_hz": -1})

    #: chains fed by ``signal-generate``; each stage's one output feeds
    #: the next stage's one input
    EMPTY_CHAINS = {
        "filter": ("fft-1d", "lowpass-filter", "ifft-1d"),
        "peaks": ("fft-1d", "power-spectrum", "peak-detect"),
    }

    @pytest.mark.parametrize("chain", sorted(EMPTY_CHAINS))
    def test_empty_signal_flows_through_every_chain(self, lib, chain):
        """A zero-length signal passes through each stage as an empty
        array of the dtype a one-sample signal gives it."""
        def outputs(n):
            value = lib.get("signal-generate").execute(
                {}, {"n": n})["signal"]
            got = [value]
            for name in self.EMPTY_CHAINS[chain]:
                task = lib.get(name)
                (port,) = task.signature.inputs
                (value,) = task.execute({port: value}).values()
                got.append(value)
            return got

        empty, one = outputs(0), outputs(1)
        assert [v.shape for v in empty] == [(0,)] * len(empty)
        assert [v.dtype for v in empty] == [v.dtype for v in one]

    def test_convolve_length(self, lib):
        out = lib.get("convolve").execute(
            {"a": np.ones(4), "b": np.ones(3)})["result"]
        assert out.shape == (6,)
        np.testing.assert_allclose(out, [1, 2, 3, 3, 2, 1])


class TestC3ILibrary:
    @pytest.fixture(scope="class")
    def lib(self):
        return build_c3i_library()

    def test_scan_shape(self, lib):
        scans = lib.get("radar-scan").execute(
            {}, {"targets": 5, "steps": 4, "seed": 2})["scans"]
        assert scans.shape == (20, 4)

    def test_track_filter_recovers_velocity(self, lib):
        scans = lib.get("radar-scan").execute(
            {}, {"targets": 8, "steps": 30, "seed": 2, "noise": 1.0})["scans"]
        tracks = lib.get("track-filter").execute({"scans": scans})["tracks"]
        assert tracks.shape == (8, 5)
        speeds = np.linalg.norm(tracks[:, 3:5], axis=1)
        assert (speeds < 600).all()  # within generator velocity bounds

    def test_fusion_averages_matching_ids(self, lib):
        a = np.array([[1.0, 0.0, 0.0, 1.0, 0.0]])
        b = np.array([[1.0, 2.0, 2.0, 3.0, 0.0]])
        fused = lib.get("data-fusion").execute(
            {"tracks_a": a, "tracks_b": b})["fused"]
        np.testing.assert_allclose(fused, [[1.0, 1.0, 1.0, 2.0, 0.0]])

    def test_threat_ranking_prefers_approaching(self, lib):
        tracks = np.array([
            [0.0, 1000.0, 0.0, -300.0, 0.0],   # closing fast
            [1.0, 1000.0, 0.0, 300.0, 0.0],    # receding
        ])
        threats = lib.get("threat-assessment").execute(
            {"tracks": tracks})["threats"]
        assert threats[0, 0] == 0.0
        assert threats[0, 5] > threats[1, 5]

    def test_engagement_plan_round_robin(self, lib):
        threats = np.hstack([np.arange(6).reshape(-1, 1),
                             np.zeros((6, 4)),
                             np.arange(6, 0, -1).reshape(-1, 1)]).astype(float)
        plan = lib.get("engagement-plan").execute(
            {"threats": threats}, {"batteries": 2, "top_k": 4})["plan"]
        assert plan.shape == (4, 3)
        assert list(plan[:, 1]) == [0.0, 1.0, 0.0, 1.0]

    def test_full_pipeline(self, lib):
        scans = lib.get("radar-scan").execute(
            {}, {"targets": 10, "steps": 20, "seed": 5})["scans"]
        tracks = lib.get("track-filter").execute({"scans": scans})["tracks"]
        threats = lib.get("threat-assessment").execute(
            {"tracks": tracks})["threats"]
        plan = lib.get("engagement-plan").execute(
            {"threats": threats}, {"batteries": 3, "top_k": 5})["plan"]
        assert plan.shape == (5, 3)
        scores = threats[:, 5]
        assert (np.diff(scores) <= 1e-9).all()  # descending

    @pytest.mark.parametrize("scan", [{"targets": 0, "steps": 8},
                                      {"targets": 16, "steps": 0}],
                             ids=["no-targets", "no-steps"])
    def test_empty_scan_keeps_every_shape(self, lib, scan):
        """A scan with no returns flows through the whole chain, each
        stage answering an empty array of its own column count."""
        scans = lib.get("radar-scan").execute({}, scan)["scans"]
        tracks = lib.get("track-filter").execute({"scans": scans})["tracks"]
        fused = lib.get("data-fusion").execute(
            {"tracks_a": tracks, "tracks_b": tracks})["fused"]
        threats = lib.get("threat-assessment").execute(
            {"tracks": fused})["threats"]
        plan = lib.get("engagement-plan").execute(
            {"threats": threats}, {"batteries": 4, "top_k": 8})["plan"]
        assert [scans.shape, tracks.shape, fused.shape, threats.shape,
                plan.shape] == [(0, 4), (0, 5), (0, 5), (0, 6), (0, 3)]
