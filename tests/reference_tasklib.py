"""Reference task kernels: one Python loop per row.

:mod:`repro.tasklib.c3i` and :mod:`repro.tasklib.fourier` compute the
radar scan, the alpha-beta track filter, track fusion and the low-pass
filter as whole-array passes.  This module is the equivalence oracle for
those passes: each kernel as it ran before, looping over scan steps,
targets and rows, and building the low-pass mask from
``np.fft.fftfreq``.  It shares no code with the library kernels.

Ties in ``(id, t)`` are outside the oracle's domain: the track filter
orders a target's rows with ``np.argsort``'s default sort, whose order
among equal keys depends on the machine.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ExecutionError


def _as_tracks(value, task: str, port: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ExecutionError(
            f"{task}: port {port!r} expected an (m, 5) track array, got "
            f"shape {arr.shape}")
    return arr


def _as_signal(value, task: str, port: str) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise ExecutionError(
            f"{task}: port {port!r} expected a 1-D signal, got shape "
            f"{arr.shape}")
    return arr


def reference_radar_scan(inputs: dict, params: dict) -> dict:
    """Noisy radar returns for a set of constant-velocity targets."""
    n_targets = int(params.get("targets", 20))
    steps = int(params.get("steps", 10))
    seed = int(params.get("seed", 0))
    noise = float(params.get("noise", 25.0))
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-5e4, 5e4, size=(n_targets, 2))
    vel = rng.uniform(-300, 300, size=(n_targets, 2))
    frames = []
    for t in range(steps):
        observed = pos + vel * t + rng.normal(0, noise, size=pos.shape)
        ids = np.arange(n_targets, dtype=float).reshape(-1, 1)
        frames.append(np.hstack([np.full((n_targets, 1), float(t)), ids,
                                 observed]))
    return {"scans": np.vstack(frames)}  # columns: t, id, x, y


def reference_track_filter(inputs: dict, params: dict) -> dict:
    """Alpha-beta filter per target over the scan sequence."""
    scans = np.asarray(inputs["scans"], dtype=float)
    if scans.ndim != 2 or scans.shape[1] != 4:
        raise ExecutionError(
            f"track-filter: expected (k, 4) scan array, got {scans.shape}")
    alpha = float(params.get("alpha", 0.85))
    beta = float(params.get("beta", 0.005))
    dt = float(params.get("dt", 1.0))
    tracks = []
    for tid in np.unique(scans[:, 1]):
        obs = scans[scans[:, 1] == tid]
        obs = obs[np.argsort(obs[:, 0])]
        x = obs[0, 2:4].copy()
        v = np.zeros(2)
        for row in obs[1:]:
            pred = x + v * dt
            resid = row[2:4] - pred
            x = pred + alpha * resid
            v = v + (beta / dt) * resid
        tracks.append([tid, x[0], x[1], v[0], v[1]])
    return {"tracks": np.asarray(tracks, dtype=float)}


def reference_fusion(inputs: dict, params: dict) -> dict:
    """Fuse two sensors' track sets: average tracks with matching ids."""
    a = _as_tracks(inputs["tracks_a"], "data-fusion", "tracks_a")
    b = _as_tracks(inputs["tracks_b"], "data-fusion", "tracks_b")
    by_id: dict[float, list[np.ndarray]] = {}
    for row in np.vstack([a, b]):
        by_id.setdefault(row[0], []).append(row)
    fused = [np.mean(rows, axis=0) for _tid, rows in sorted(by_id.items())]
    return {"fused": np.asarray(fused, dtype=float)}


def reference_lowpass(inputs: dict, params: dict) -> dict:
    """Brick-wall low-pass in the frequency domain."""
    spectrum = _as_signal(inputs["spectrum"], "lowpass-filter", "spectrum")
    cutoff = float(params.get("cutoff_hz", 100.0))
    sample_rate = float(params.get("sample_rate", 1000.0))
    if cutoff <= 0:
        raise ExecutionError("lowpass-filter: cutoff must be positive")
    n = spectrum.shape[0]
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    out = np.where(np.abs(freqs) <= cutoff, spectrum, 0.0)
    return {"spectrum": out}
