"""Calibration trial runs.

Paper section 2.2.1: "Trial runs are required to obtain the computing
power weights of processors for each task."  Calibration executes each
task once per host against the ground-truth execution model on a
*dedicated* machine (no competing load) and seeds the task-performance
database with the implied weight.

``coverage`` < 1.0 calibrates only a subset of (task, host) pairs —
the realistic regime where the predictor must fall back to the host's
general cpu_factor for unmeasured pairs, which experiment F5 sweeps.

:func:`provision_site` is the one site-repository bring-up: host
registration, these trial runs and executable installation.
"""

from __future__ import annotations

import numpy as np

from repro.repository.site_repository import SiteRepository
from repro.repository.task_perf import TaskPerformanceDB
from repro.resources.groundtruth import ExecutionModel
from repro.resources.host import Host
from repro.tasklib.base import TaskDefinition


def register_tasks(task_performance: TaskPerformanceDB,
                   definitions: list[TaskDefinition]) -> None:
    """Register every task's static characteristics (idempotent add)."""
    for d in definitions:
        if d.name not in task_performance:
            task_performance.register_task(
                d.name,
                base_time_s=d.base_time_s,
                computation_size=d.base_time_s,  # relative compute size
                communication_size=d.output_size_bytes(d.base_size),
                memory_mb=d.memory_required_mb(d.base_size))


def calibrate_weights(task_performance: TaskPerformanceDB,
                      definitions: list[TaskDefinition],
                      hosts: list[Host],
                      model: ExecutionModel,
                      coverage: float = 1.0,
                      rng: np.random.Generator | None = None) -> int:
    """Run trial runs and seed weights; returns the number of pairs seeded.

    A trial run measures ``dedicated_duration(task, base_size, host)`` and
    stores ``measured / base_time(base_size)`` — exactly the paper's
    computing-power weight with respect to the base processor.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be within [0, 1]")
    rng = rng or np.random.default_rng(0)
    register_tasks(task_performance, definitions)
    seeded = 0
    for d in definitions:
        base = d.base_execution_time(d.base_size)
        for host in hosts:
            if coverage < 1.0 and rng.random() > coverage:
                continue
            measured = model.dedicated_duration(d, d.base_size, host)
            task_performance.set_weight(d.name, host.address,
                                        measured / base)
            seeded += 1
    return seeded


def provision_site(repository: SiteRepository, hosts: list[Host],
                   definitions: list[TaskDefinition],
                   model: ExecutionModel,
                   constrain: dict[str, set[str]] | None = None,
                   coverage: float = 1.0,
                   rng: np.random.Generator | None = None) -> None:
    """Populate one site's repository as the initial configuration does.

    Registers every host's static attributes, runs the calibration trial
    runs (:func:`calibrate_weights`, with *coverage* and *rng*) and
    installs each task's executable under ``/usr/vdce/bin/``.
    *constrain* optionally maps task name -> host addresses holding its
    executable (default: every task on every host).
    """
    resources = repository.resource_performance
    for host in hosts:
        resources.register_host(repository.site, host.spec)
    calibrate_weights(repository.task_performance, definitions, hosts,
                      model, coverage=coverage, rng=rng)
    for d in definitions:
        allowed = constrain.get(d.name) if constrain else None
        for host in hosts:
            if allowed is None or host.address in allowed:
                repository.task_constraints.register_executable(
                    d.name, host.address, f"/usr/vdce/bin/{d.name}")
