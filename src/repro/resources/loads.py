"""Background time-sharing load models.

The paper's hosts are *non-dedicated*: other users' processes share the
CPU, which is why the scheduler needs up-to-date load measurements and
forecasting.  These simulated load processes mutate ``host.true_load``
over time so monitors have something real to sample and predictions have
something real to be wrong about.

Four models:

* :class:`RandomWalkLoad` — mean-reverting random walk (Ornstein-
  Uhlenbeck-like), the classic "Unix load average" shape.  The walks
  attached in one batch share one :class:`WalkClock` process, which
  steps them every :data:`WALK_INTERVAL_S` in attach order.
* :class:`OnOffLoad` — bursty interactive users: exponential on/off
  periods with a fixed load while on.
* :class:`SpikeLoad` — scheduled load spikes, used by the rescheduling
  experiment (A2) to trigger the Application Controller's overload path.
* :class:`TraceLoad` — a recorded load trace, replayed.

The last three run as one simcore process per model.
"""

from __future__ import annotations

import numpy as np

from repro.resources.host import Host
from repro.simcore.engine import Environment, Process
from repro.util.errors import ConfigurationError

#: sim seconds between two steps of a random walk
WALK_INTERVAL_S = 1.0
#: share of its distance to the mean a random walk closes per step
WALK_REVERSION = 0.2


class LoadModel:
    """Base class: attaches a load process to a host."""

    def __init__(self, env: Environment, host: Host,
                 rng: np.random.Generator) -> None:
        self.env = env
        self.host = host
        self.rng = rng
        self.process = self._start()

    def _start(self) -> Process:
        """Launch the process that drives this model."""
        return self.env.process(self._run(), name=f"load:{self.host.address}")

    def _run(self):
        raise NotImplementedError

    def stop(self) -> None:
        """Halt this load model's process."""
        if self.process.is_alive:
            self.process.interrupt("stop")


class RandomWalkLoad(LoadModel):
    """Mean-reverting random walk: ``L += theta*(mu - L) + sigma*N(0,1)``.

    The walk draws its first load when its :class:`WalkClock` starts and
    steps on that clock's ticks; :attr:`process` is the clock's process,
    shared with the other walks of its batch.
    """

    def __init__(self, env: Environment, host: Host,
                 rng: np.random.Generator, mean: float = 0.5,
                 volatility: float = 0.15) -> None:
        if mean < 0:
            raise ConfigurationError("mean load must be >= 0")
        self.mean = mean
        self.volatility = volatility
        super().__init__(env, host, rng)

    def _start(self) -> Process:
        self._clock = WalkClock.attach(self)
        return self._clock.process

    def _begin(self) -> None:
        self.host.true_load = max(0.0, self.mean
                                  + self.volatility * self.rng.standard_normal())

    def _step(self) -> None:
        load = self.host.true_load
        load += WALK_REVERSION * (self.mean - load)
        load += self.volatility * self.rng.standard_normal()
        self.host.true_load = max(0.0, load)

    def stop(self) -> None:
        """Stop stepping this walk; its clock ends with its last walk."""
        walks = self._clock.walks
        if self in walks:
            walks.remove(self)


class WalkClock:
    """One process that steps a batch of random walks in attach order.

    Walks attached one after another, with nothing scheduled in between,
    form a batch.  Had each run its own process, their bootstrap entries
    would sit next to each other in the event queue, so each walk would
    draw and step right after the previous one at every tick.  One process
    at the first walk's place does the same draws in the same order, and
    every other queue entry keeps its order.  A walk attached later, or
    after anything else was scheduled, starts a new clock.  A walk stopped
    before its clock starts never draws, as its own process, interrupted
    before its first step, would never have run; a clock whose walks have
    all stopped ends at its next tick, so a drain still ends.

    The environment holds the clock a next walk may join
    (``Environment._walk_clock``).
    """

    __slots__ = ("env", "walks", "process", "_seq")

    def __init__(self, env: Environment, first: RandomWalkLoad) -> None:
        self.env = env
        #: the walks still stepping, in attach order
        self.walks: list[RandomWalkLoad] = []
        self.process = env.process(self._run(),
                                   name=f"load:{first.host.address}")
        #: the last queue sequence number the clock took; a walk whose own
        #: bootstrap entry would take the next one joins
        self._seq = 0

    @staticmethod
    def attach(walk: RandomWalkLoad) -> "WalkClock":
        """Add *walk* to the environment's open clock, or start a new one."""
        env = walk.env
        # the number the walk's own bootstrap entry would have taken; a
        # sequence number only breaks ties, so skipping one reorders
        # nothing
        seq = next(env._seq)
        clock = env._walk_clock
        if clock is None or clock._seq != seq - 1:
            clock = env._walk_clock = WalkClock(env, walk)
            seq = next(env._seq)
        clock._seq = seq
        clock.walks.append(walk)
        return clock

    def _run(self):
        walks = self.walks
        for walk in walks:
            walk._begin()
        while walks:
            yield self.env.timeout(WALK_INTERVAL_S)
            for walk in walks:
                walk._step()


class OnOffLoad(LoadModel):
    """Bursty load: exponential off periods, exponential on periods."""

    def __init__(self, env: Environment, host: Host,
                 rng: np.random.Generator, on_load: float = 1.0,
                 mean_on_s: float = 20.0, mean_off_s: float = 40.0) -> None:
        if on_load < 0:
            raise ConfigurationError("on_load must be >= 0")
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ConfigurationError("on/off period means must be positive")
        self.on_load = on_load
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        super().__init__(env, host, rng)

    def _run(self):
        while True:
            yield self.env.timeout(float(self.rng.exponential(self.mean_off_s)))
            self.host.true_load += self.on_load
            yield self.env.timeout(float(self.rng.exponential(self.mean_on_s)))
            self.host.true_load = max(0.0, self.host.true_load - self.on_load)


class SpikeLoad(LoadModel):
    """Deterministic load spikes: ``[(start_s, duration_s, extra_load)]``."""

    def __init__(self, env: Environment, host: Host,
                 spikes: list[tuple[float, float, float]]) -> None:
        for start, duration, extra in spikes:
            if start < 0 or duration <= 0 or extra < 0:
                raise ConfigurationError(f"invalid spike {(start, duration, extra)}")
        self.spikes = sorted(spikes)
        super().__init__(env, host, rng=np.random.default_rng(0))

    def _run(self):
        now = 0.0
        for start, duration, extra in self.spikes:
            if start > now:
                yield self.env.timeout(start - now)
                now = start
            self.host.true_load += extra
            yield self.env.timeout(duration)
            now += duration
            self.host.true_load = max(0.0, self.host.true_load - extra)


class TraceLoad(LoadModel):
    """Replay a recorded load trace: ``[(time_s, load), ...]``.

    Points must be time-sorted; the load holds its last value between
    points, and the trace optionally loops (``repeat=True``) so long
    simulations keep realistic structure.
    """

    def __init__(self, env: Environment, host: Host,
                 trace: list[tuple[float, float]],
                 repeat: bool = False) -> None:
        if not trace:
            raise ConfigurationError("trace may not be empty")
        times = [t for t, _v in trace]
        if times != sorted(times):
            raise ConfigurationError("trace must be time-sorted")
        if any(v < 0 for _t, v in trace):
            raise ConfigurationError("trace loads must be >= 0")
        self.trace = list(trace)
        self.repeat = repeat
        super().__init__(env, host, rng=np.random.default_rng(0))

    def _run(self):
        while True:
            prev_t = 0.0
            for t, load in self.trace:
                if t > prev_t:
                    yield self.env.timeout(t - prev_t)
                    prev_t = t
                self.host.true_load = load
            if not self.repeat:
                return
            # hold the final value for one inter-sample gap, then loop
            gap = self.trace[-1][0] - self.trace[0][0]
            yield self.env.timeout(max(gap / max(len(self.trace) - 1, 1),
                                       1e-6))


def diurnal_trace(peak_load: float = 1.5, base_load: float = 0.1,
                  day_s: float = 3600.0, samples: int = 48,
                  rng: np.random.Generator | None = None,
                  noise: float = 0.05) -> list[tuple[float, float]]:
    """A synthetic daily usage pattern (one 'day' compressed to *day_s*).

    Sinusoidal busy-hours bulge plus optional noise — the load shape a
    campus workstation showed in 1997 traces.
    """
    if peak_load < base_load:
        raise ConfigurationError("peak_load must be >= base_load")
    rng = rng or np.random.default_rng(0)
    out = []
    for i in range(samples):
        t = day_s * i / samples
        cycle = 0.5 * (1.0 - np.cos(2 * np.pi * (i / samples)))
        load = base_load + (peak_load - base_load) * cycle
        if noise:
            load += noise * float(rng.standard_normal())
        out.append((t, max(0.0, float(load))))
    return out
