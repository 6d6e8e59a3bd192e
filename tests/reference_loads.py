"""Reference random walk: one simcore process per walk.

:class:`~repro.resources.RandomWalkLoad` steps the walks attached in one
batch from a shared :class:`~repro.resources.loads.WalkClock`.  This
module is the equivalence oracle for that clock: the walk as it ran
before the clock existed, with its own process per host that draws its
first load when the process starts and steps every
``WALK_INTERVAL_S`` after.  It shares no code with the clock.
"""

from __future__ import annotations

import numpy as np

from repro.resources.host import Host
from repro.resources.loads import WALK_INTERVAL_S, WALK_REVERSION
from repro.simcore.engine import Environment


class ReferenceRandomWalkLoad:
    """Mean-reverting random walk: ``L += theta*(mu - L) + sigma*N(0,1)``."""

    def __init__(self, env: Environment, host: Host,
                 rng: np.random.Generator, mean: float = 0.5,
                 volatility: float = 0.15) -> None:
        self.env = env
        self.host = host
        self.rng = rng
        self.mean = mean
        self.volatility = volatility
        self.process = env.process(self._run(), name=f"load:{host.address}")

    def _run(self):
        self.host.true_load = max(0.0, self.mean
                                  + self.volatility * self.rng.standard_normal())
        while True:
            yield self.env.timeout(WALK_INTERVAL_S)
            load = self.host.true_load
            load += WALK_REVERSION * (self.mean - load)
            load += self.volatility * self.rng.standard_normal()
            self.host.true_load = max(0.0, load)

    def stop(self) -> None:
        """Halt this walk's process."""
        if self.process.is_alive:
            self.process.interrupt("stop")
