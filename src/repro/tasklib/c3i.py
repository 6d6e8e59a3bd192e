"""The C3I (command, control, communication, and information) task library.

The paper, funded by Rome Laboratory, repeatedly cites a "C3I (command
and control applications) library" as a first-class task group.  The real
Rome Lab workloads are not public, so this library provides synthetic but
behaviourally realistic surveillance-pipeline tasks: radar scan
generation, track filtering (alpha-beta), multi-sensor fusion, threat
assessment, and an engagement-plan formatter.  They form the kind of
sensor-to-decision DAG the paper's introduction motivates, and exercise
the same registry/constraint/AFG machinery as the numeric libraries.

Data convention: a *track set* is an ``(m, 5)`` float array with columns
``(track_id, x, y, vx, vy)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.tasklib.base import TaskDefinition, TaskSignature
from repro.tasklib.registry import TaskLibrary
from repro.util.errors import ExecutionError

LIBRARY_NAME = "c3i"


def _as_tracks(value, task: str, port: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ExecutionError(
            f"{task}: port {port!r} expected an (m, 5) track array, got "
            f"shape {arr.shape}")
    return arr


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row and row count of each run of equal values in sorted *keys*."""
    first = np.empty(keys.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return starts, np.diff(starts, append=keys.shape[0])


def _later_rows(rows: np.ndarray, starts: np.ndarray, counts: np.ndarray
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each position after the first in every group: which groups
    reach it (an ``(m, 1)`` mask) and each group's row of *rows* there,
    or its last row once the group has ended."""
    offsets = np.arange(1, counts.max(initial=0))[:, None]
    reach = (counts > offsets)[..., None]
    at = rows[np.minimum(starts + offsets, starts + counts - 1)]
    return zip(reach, at)


def _impl_radar_scan(inputs: dict, params: dict) -> dict:
    """Noisy radar returns for a set of constant-velocity targets."""
    n_targets = int(params.get("targets", 20))
    steps = int(params.get("steps", 10))
    seed = int(params.get("seed", 0))
    noise = float(params.get("noise", 25.0))
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-5e4, 5e4, size=(n_targets, 2))
    vel = rng.uniform(-300, 300, size=(n_targets, 2))
    t = np.arange(steps, dtype=float)[:, None]
    scans = np.empty((steps, n_targets, 4))  # columns: t, id, x, y
    scans[..., 0] = t
    scans[..., 1] = np.arange(n_targets)
    scans[..., 2:] = (pos + vel * t[..., None]
                      + rng.normal(0, noise, size=(steps, n_targets, 2)))
    return {"scans": scans.reshape(-1, 4)}


def _impl_track_filter(inputs: dict, params: dict) -> dict:
    """Alpha-beta filter per target over the scan sequence.

    All targets advance together, one scan step at a time; a target
    whose scans have run out keeps its last state.
    """
    scans = np.asarray(inputs["scans"], dtype=float)
    if scans.ndim != 2 or scans.shape[1] != 4:
        raise ExecutionError(
            f"track-filter: expected (k, 4) scan array, got {scans.shape}")
    alpha = float(params.get("alpha", 0.85))
    beta = float(params.get("beta", 0.005))
    dt = float(params.get("dt", 1.0))
    if not (math.isfinite(dt) and dt > 0):
        raise ExecutionError(
            f"track-filter: dt must be positive and finite, got {dt}")
    rows = scans[np.lexsort((scans[:, 0], scans[:, 1]))]  # by id, then t
    starts, counts = _groups(rows[:, 1])
    x = rows[starts, 2:4]
    v = np.zeros_like(x)
    for live, obs in _later_rows(rows[:, 2:4], starts, counts):
        pred = x + v * dt
        resid = obs - pred
        x = np.where(live, pred + alpha * resid, x)
        v = np.where(live, v + (beta / dt) * resid, v)
    tracks = np.empty((starts.shape[0], 5))
    tracks[:, 0] = rows[starts, 1]
    tracks[:, 1:3] = x
    tracks[:, 3:5] = v
    return {"tracks": tracks}


def _impl_fusion(inputs: dict, params: dict) -> dict:
    """Fuse two sensors' track sets: average tracks with matching ids.

    Each group's rows are summed one after another in input order,
    starting from +0.0, then divided by the group's size: the sum and
    division ``np.mean`` does, down to the sign of a zero.
    """
    a = _as_tracks(inputs["tracks_a"], "data-fusion", "tracks_a")
    b = _as_tracks(inputs["tracks_b"], "data-fusion", "tracks_b")
    rows = np.vstack([a, b])
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    starts, counts = _groups(rows[:, 0])
    total = 0.0 + rows[starts]
    for live, row in _later_rows(rows, starts, counts):
        total = np.where(live, total + row, total)
    return {"fused": total / counts[:, None]}


def _impl_threat_assessment(inputs: dict, params: dict) -> dict:
    """Rank tracks by closing speed toward a defended point."""
    tracks = _as_tracks(inputs["tracks"], "threat-assessment", "tracks")
    defended = np.asarray(params.get("defended_point", (0.0, 0.0)),
                          dtype=float)
    pos = tracks[:, 1:3]
    vel = tracks[:, 3:5]
    rel = defended - pos
    dist = np.linalg.norm(rel, axis=1)
    dist = np.where(dist < 1e-9, 1e-9, dist)
    closing = np.einsum("ij,ij->i", vel, rel) / dist  # +ve = approaching
    score = closing / np.sqrt(dist)
    order = np.argsort(score, kind="stable")[::-1]
    ranked = np.hstack([tracks[order], score[order].reshape(-1, 1)])
    return {"threats": ranked}  # columns: id, x, y, vx, vy, score


def _impl_engagement_plan(inputs: dict, params: dict) -> dict:
    """Assign the top-k threats to interceptor batteries round-robin."""
    threats = np.asarray(inputs["threats"], dtype=float)
    if threats.ndim != 2 or threats.shape[1] != 6:
        raise ExecutionError(
            f"engagement-plan: expected (m, 6) threat array, got "
            f"{threats.shape}")
    batteries = int(params.get("batteries", 4))
    top_k = int(params.get("top_k", min(8, threats.shape[0])))
    if batteries < 1:
        raise ExecutionError("engagement-plan: batteries must be >= 1")
    ranks = np.arange(min(top_k, threats.shape[0]))
    plan = np.column_stack([threats[ranks, 0], ranks % batteries,
                            threats[ranks, 5]])
    return {"plan": plan}  # columns: id, battery, score


def build_c3i_library() -> TaskLibrary:
    lib = TaskLibrary(LIBRARY_NAME,
                      "Synthetic surveillance pipeline (Rome Lab stand-in)")
    common = dict(memory_mb_base=0.5, memory_mb_per_unit=1e-3,
                  memory_complexity="linear")
    lib.add(TaskDefinition(
        name="radar-scan", library=LIBRARY_NAME,
        description="Noisy radar returns for constant-velocity targets",
        signature=TaskSignature(inputs=(), outputs=("scans",)),
        base_time_s=0.05, base_size=20, complexity="linear",
        output_bytes_per_unit=320.0, output_complexity="linear",
        impl=_impl_radar_scan, **common))
    lib.add(TaskDefinition(
        name="track-filter", library=LIBRARY_NAME,
        description="Alpha-beta tracking filter per target",
        signature=TaskSignature(inputs=("scans",), outputs=("tracks",)),
        base_time_s=0.1, base_size=20, complexity="linear",
        output_bytes_per_unit=40.0, output_complexity="linear",
        parallel_capable=True, parallel_efficiency=0.9,
        impl=_impl_track_filter, **common))
    lib.add(TaskDefinition(
        name="data-fusion", library=LIBRARY_NAME,
        description="Merge two sensors' track sets by track id",
        signature=TaskSignature(inputs=("tracks_a", "tracks_b"),
                                outputs=("fused",)),
        base_time_s=0.08, base_size=20, complexity="nlogn",
        output_bytes_per_unit=40.0, output_complexity="linear",
        impl=_impl_fusion, **common))
    lib.add(TaskDefinition(
        name="threat-assessment", library=LIBRARY_NAME,
        description="Rank tracks by closing speed on the defended point",
        signature=TaskSignature(inputs=("tracks",), outputs=("threats",)),
        base_time_s=0.06, base_size=20, complexity="nlogn",
        output_bytes_per_unit=48.0, output_complexity="linear",
        impl=_impl_threat_assessment, **common))
    lib.add(TaskDefinition(
        name="engagement-plan", library=LIBRARY_NAME,
        description="Round-robin battery assignment for top threats",
        signature=TaskSignature(inputs=("threats",), outputs=("plan",)),
        base_time_s=0.02, base_size=20, complexity="linear",
        output_bytes_per_unit=24.0, output_complexity="constant",
        impl=_impl_engagement_plan, **common))
    return lib
