"""Significant-change filtering of workload updates.

Paper section 2.3.1: "Group Manager sends only the workloads of the
resources that have changed considerably from the previous measurement to
the Site Manager.  The workload of a resource is significantly changed if
the up-to-date measurement is higher or lower than the summation of the
previous measurement and the width of the confidence interval."

Three policies are provided so experiment F6 can quantify the traffic /
staleness trade-off:

* ``always``    — forward every measurement (no filtering);
* ``ci``        — the paper's confidence-interval test;
* ``threshold`` — a fixed absolute-delta test.
"""

from __future__ import annotations

from collections import deque

from repro.util.errors import ConfigurationError
from repro.util.stats import CONFIDENCE_LEVELS, half_width

POLICIES = ("always", "ci", "threshold")


class ChangeFilter:
    """Decides, per host, whether a new measurement is worth forwarding."""

    def __init__(self, policy: str = "ci", window: int = 8,
                 confidence: float = 0.95,
                 threshold: float = 0.25) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown filter policy {policy!r}; expected one of "
                f"{POLICIES}")
        if not isinstance(window, int) or window < 2:
            raise ConfigurationError(
                f"window must be an int >= 2, got {window!r}")
        if confidence not in CONFIDENCE_LEVELS:
            raise ConfigurationError(
                f"confidence must be one of {CONFIDENCE_LEVELS}, got "
                f"{confidence!r}")
        # NaN-safe: a NaN threshold would never forward again
        if not threshold > 0:
            raise ConfigurationError(
                f"threshold must be positive, got {threshold!r}")
        self.policy = policy
        self.window = window
        self.confidence = confidence
        self.threshold = threshold
        self._history: dict[str, deque[float]] = {}
        self._last_sent: dict[str, float] = {}

    def observe(self, host: str, value: float) -> bool:
        """Record a measurement; return True when it should be forwarded."""
        history = self._history.get(host)
        if history is None:
            history = self._history[host] = deque(maxlen=self.window)
        history.append(value)
        last = self._last_sent.get(host)
        if last is None:
            send = True  # always forward the first measurement
        elif self.policy == "always":
            send = True
        elif self.policy == "threshold":
            send = abs(value - last) > self.threshold
        else:  # "ci": the paper's rule
            hw = half_width(history, self.confidence)
            send = value > last + hw or value < last - hw
        if send:
            self._last_sent[host] = value
        return send

    def last_forwarded(self, host: str) -> float | None:
        """The value most recently forwarded for a host (None if never)."""
        return self._last_sent.get(host)

    def reset(self, host: str | None = None) -> None:
        """Forget history for one host (or for all)."""
        if host is None:
            self._history.clear()
            self._last_sent.clear()
        else:
            self._history.pop(host, None)
            self._last_sent.pop(host, None)
