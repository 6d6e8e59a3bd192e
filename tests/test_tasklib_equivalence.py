"""The whole-array task kernels against their row-loop originals.

The radar scan, the alpha-beta track filter, track fusion and the
low-pass filter in :mod:`repro.tasklib` compute whole arrays at once.
Each generated input runs through the library kernel and through
:mod:`tests.reference_tasklib`, and the two outputs must agree in dtype,
shape and every byte.  Scans reach the filter shuffled and with rows
dropped, so targets have different numbers of returns; fusion ids come
from a small range, so groups of one to four rows occur; low-pass
cutoffs fall at random and exactly on bin edges.  No input repeats an
``(id, t)`` pair, whose order in the reference depends on the machine,
and empty inputs are left to ``tests/test_tasklib.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tasklib import standard_registry

from .reference_tasklib import (
    reference_fusion,
    reference_lowpass,
    reference_radar_scan,
    reference_track_filter,
)

REGISTRY = standard_registry()
finite = st.floats(allow_nan=False, allow_infinity=False)
scan_params = st.fixed_dictionaries({
    "targets": st.integers(1, 40),
    "steps": st.integers(1, 30),
    "seed": st.integers(0, 2**64 - 1),
    "noise": st.floats(0.0, 1e6),
})
equivalence = settings(max_examples=200, deadline=None, derandomize=True)


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def run(task: str, inputs: dict, params: dict) -> np.ndarray:
    (value,) = REGISTRY.resolve(task).execute(inputs, params).values()
    return value


@equivalence
@given(params=scan_params)
def test_radar_scan(params):
    assert_same(run("radar-scan", {}, params),
                reference_radar_scan({}, params)["scans"])


@equivalence
@given(scan=scan_params, shuffle=st.integers(0, 2**32 - 1),
       drop=st.floats(0.0, 0.9), alpha=finite, beta=finite,
       dt=st.floats(0.0, exclude_min=True, allow_infinity=False))
def test_track_filter(scan, shuffle, drop, alpha, beta, dt):
    scans = reference_radar_scan({}, scan)["scans"]
    rng = np.random.default_rng(shuffle)
    kept = rng.random(scans.shape[0]) >= drop
    kept[0] = True
    scans = scans[rng.permutation(scans.shape[0])[kept]]
    params = {"alpha": alpha, "beta": beta, "dt": dt}
    with np.errstate(all="ignore"):
        want = reference_track_filter({"scans": scans}, params)["tracks"]
        got = run("track-filter", {"scans": scans}, params)
    assert_same(got, want)


def track_sets(min_rows: int) -> st.SearchStrategy[np.ndarray]:
    row = st.tuples(st.integers(0, 7).map(float), finite, finite, finite,
                    finite)
    return st.lists(row, min_size=min_rows, max_size=12).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, 5))


@equivalence
@given(a=track_sets(1), b=track_sets(0))
def test_fusion(a, b):
    inputs = {"tracks_a": a, "tracks_b": b}
    with np.errstate(all="ignore"):
        want = reference_fusion(inputs, {})["fused"]
        got = run("data-fusion", inputs, {})
    assert_same(got, want)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(n=st.integers(1, 4096), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.complex128, np.float64, np.int64]),
       sample_rate=st.floats(1.0, 1e5),
       edge=st.one_of(st.none(), st.integers(1, 2049)),
       nudge=st.sampled_from([None, -np.inf, np.inf]),
       fraction=st.floats(0.0, 1.0, exclude_min=True))
def test_lowpass(n, seed, dtype, sample_rate, edge, nudge, fraction):
    rng = np.random.default_rng(seed)
    spectrum = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 1e3
    if dtype is not np.complex128:
        spectrum = spectrum.real.astype(dtype)
    if edge is None:  # anywhere up to the Nyquist rate
        cutoff = fraction * sample_rate
    else:  # on a bin edge, or one ulp to either side of it
        step = 1.0 / (n * (1.0 / sample_rate))
        cutoff = min(edge, n // 2 + 1) * step
        if nudge is not None:
            cutoff = float(np.nextafter(cutoff, nudge))
    params = {"cutoff_hz": cutoff, "sample_rate": sample_rate}
    assert_same(run("lowpass-filter", {"spectrum": spectrum}, params),
                reference_lowpass({"spectrum": spectrum}, params)["spectrum"])
