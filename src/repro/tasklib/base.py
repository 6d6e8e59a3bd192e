"""Task definitions: the well-defined library functions of VDCE.

Paper section 1: "VDCE delivers well-defined library functions that
relieve end-users of tedious task implementations and also support
reusability" — the nodes of every application flow graph are selected
from these libraries.

A :class:`TaskDefinition` carries four things:

1. a *signature* — named logical input/output ports (the colored port
   markers of the Application Editor's icons);
2. a *performance model* — base-processor execution time measured at a
   reference input size plus an asymptotic complexity class, an output
   (communication) size model, and a memory-requirement model.  These are
   the "computation size, communication size, required memory size"
   parameters of the task-performance database;
3. an optional *implementation* — a real Python/NumPy callable so that
   applications can genuinely execute (e.g. the Linear Equation Solver
   producing a verifiable solution vector);
4. *parallel capability* — whether the task supports the editor's
   parallel computation mode, with an efficiency parameter governing
   multi-processor speedup (used by the parallel-task scheduling
   extension of section 2.2.1).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import ConfigurationError, ExecutionError

# -- complexity classes -----------------------------------------------------

COMPLEXITY_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "constant": lambda n: 1.0,
    "linear": lambda n: n,
    "nlogn": lambda n: n * math.log2(max(n, 2.0)),
    "quadratic": lambda n: n**2,
    "cubic": lambda n: n**3,
}


def compute_scale(complexity: str, size: float, base_size: float) -> float:
    """Execution-time scale factor of input *size* vs the reference size.

    ``scale == 1`` at ``size == base_size``; grows per the complexity class.
    """
    try:
        f = COMPLEXITY_FUNCTIONS[complexity]
    except KeyError:
        raise ConfigurationError(
            f"unknown complexity class {complexity!r}; expected one of "
            f"{sorted(COMPLEXITY_FUNCTIONS)}") from None
    if size <= 0 or base_size <= 0:
        raise ValueError("sizes must be positive")
    return f(size) / f(base_size)


@dataclass(frozen=True)
class TaskSignature:
    """Named logical ports. Port names are unique within a direction."""

    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ("out",)

    def __post_init__(self) -> None:
        if len(set(self.inputs)) != len(self.inputs):
            raise ConfigurationError(f"duplicate input ports: {self.inputs}")
        if len(set(self.outputs)) != len(self.outputs):
            raise ConfigurationError(f"duplicate output ports: {self.outputs}")

    @property
    def is_source(self) -> bool:
        return not self.inputs

    @property
    def is_sink(self) -> bool:
        return not self.outputs


@dataclass(frozen=True)
class TaskDefinition:
    """One library function available in the Application Editor menus."""

    name: str
    library: str
    description: str
    signature: TaskSignature = field(default_factory=TaskSignature)
    # performance model
    base_time_s: float = 1.0          # dedicated base-processor time ...
    base_size: float = 100.0          # ... at this reference input size
    complexity: str = "linear"
    output_bytes_per_unit: float = 8.0   # output = this * f_out(input_size)
    output_complexity: str = "linear"    # f_out complexity class
    memory_mb_base: float = 1.0          # memory = base + per_unit * f_mem(size)
    memory_mb_per_unit: float = 0.01
    memory_complexity: str = "linear"    # f_mem complexity class
    # real implementation (None => simulation-only task)
    impl: Callable[..., dict[str, Any]] | None = None
    # parallel mode
    parallel_capable: bool = False
    parallel_efficiency: float = 0.8

    def __post_init__(self) -> None:
        if self.base_time_s <= 0:
            raise ConfigurationError(f"{self.name}: base_time_s must be > 0")
        if self.base_size <= 0:
            raise ConfigurationError(f"{self.name}: base_size must be > 0")
        for attr in ("complexity", "output_complexity", "memory_complexity"):
            if getattr(self, attr) not in COMPLEXITY_FUNCTIONS:
                raise ConfigurationError(
                    f"{self.name}: unknown {attr} {getattr(self, attr)!r}")
        if not 0.0 < self.parallel_efficiency <= 1.0:
            raise ConfigurationError(
                f"{self.name}: parallel_efficiency must be in (0, 1]")

    # -- performance model ------------------------------------------------
    def base_execution_time(self, input_size: float,
                            processors: int = 1) -> float:
        """Dedicated base-processor execution time at *input_size*.

        With ``processors > 1`` (parallel mode), Amdahl-style scaling with
        the task's parallel efficiency: ``T_p = T_1 * ((1-e) + e/p)``.
        """
        if processors < 1:
            raise ValueError("processors must be >= 1")
        if processors > 1 and not self.parallel_capable:
            raise ConfigurationError(
                f"task {self.name!r} does not support parallel mode")
        t1 = self.base_time_s * compute_scale(self.complexity, input_size,
                                              self.base_size)
        if processors == 1:
            return t1
        e = self.parallel_efficiency
        return t1 * ((1.0 - e) + e / processors)

    def output_size_bytes(self, input_size: float) -> float:
        """Bytes this task ships to each successor (communication size)."""
        if input_size <= 0:
            return 0.0
        f = COMPLEXITY_FUNCTIONS[self.output_complexity]
        return self.output_bytes_per_unit * f(input_size)

    def memory_required_mb(self, input_size: float) -> float:
        """Resident memory required to run at *input_size* (Mem_Req)."""
        extra = 0.0
        if input_size > 0:
            f = COMPLEXITY_FUNCTIONS[self.memory_complexity]
            extra = self.memory_mb_per_unit * f(input_size)
        return self.memory_mb_base + extra

    # -- real execution -----------------------------------------------------
    @property
    def executable(self) -> bool:
        return self.impl is not None

    def execute(self, inputs: dict[str, Any],
                params: dict[str, Any] | None = None) -> dict[str, Any]:
        """Run the real implementation.

        *inputs* maps input-port names to values; the return maps
        output-port names to values.  Missing or extra ports are errors —
        the editor's link validation should have prevented them.  Any
        exception the implementation raises reaches the caller as an
        :class:`~repro.util.errors.ExecutionError` naming the task.
        """
        if self.impl is None:
            raise ConfigurationError(
                f"task {self.name!r} has no real implementation")
        expected = set(self.signature.inputs)
        got = set(inputs)
        if expected != got:
            raise ConfigurationError(
                f"task {self.name!r} expects inputs {sorted(expected)}, "
                f"got {sorted(got)}")
        try:
            result = self.impl(inputs, params or {})
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"task {self.name!r} failed: {type(exc).__name__}: "
                f"{exc}") from exc
        if set(result) != set(self.signature.outputs):
            raise ConfigurationError(
                f"task {self.name!r} must produce outputs "
                f"{sorted(self.signature.outputs)}, produced {sorted(result)}")
        return result


def validate_unique_names(definitions: Sequence[TaskDefinition]) -> None:
    """Raise when two definitions share a name."""
    seen: set[str] = set()
    for d in definitions:
        if d.name in seen:
            raise ConfigurationError(f"duplicate task name {d.name!r}")
        seen.add(d.name)
