"""PERF001 fixture: slots parity and guarded trace records."""

from dataclasses import dataclass


class Slotted:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


class Unslotted:  # expect: PERF001
    def __init__(self, y):
        self.y = y


@dataclass
class Record:  # dataclasses are exempt from slots parity
    z: int = 0


class FixtureError(Exception):
    """Exception types are exempt from slots parity."""


def send(obs, payload):
    obs.trace.record(0.0, "send", payload)  # expect: PERF001
    if obs.enabled:
        obs.trace.record(0.0, "traced-send", payload)
    for _ in range(2):
        if obs.enabled:
            obs.trace.record(0.0, "loop", payload)
        obs.trace.record(0.0, "loop-unguarded", payload)  # expect: PERF001


def held_tracer(self, now):
    # a tracer bound off the handle is still an obs-rooted receiver
    self.tracer.record(now, "held", "a")  # expect: PERF001
    if self.obs.enabled:
        self.tracer.record(now, "held", "a")


def not_trace_calls(repo, sample):
    # `record` on a receiver chain without an obs marker is not flagged
    repo.delta.record(sample)
