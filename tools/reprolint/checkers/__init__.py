"""Checker registry: every rule reprolint ships."""

from __future__ import annotations

from tools.reprolint.checkers.det001 import NondeterminismChecker
from tools.reprolint.checkers.det002 import WallClockChecker
from tools.reprolint.checkers.det003 import SameTickOrderChecker
from tools.reprolint.checkers.inv002 import DeltaPublicationChecker
from tools.reprolint.checkers.iso001 import IsolationChecker
from tools.reprolint.checkers.perf001 import HotPathHygieneChecker
from tools.reprolint.checkers.sim001 import SimulationSafetyChecker
from tools.reprolint.core import Checker

#: rule id -> checker class, in catalogue order
ALL_CHECKERS: dict[str, type[Checker]] = {
    NondeterminismChecker.rule: NondeterminismChecker,
    WallClockChecker.rule: WallClockChecker,
    SameTickOrderChecker.rule: SameTickOrderChecker,
    DeltaPublicationChecker.rule: DeltaPublicationChecker,
    IsolationChecker.rule: IsolationChecker,
    SimulationSafetyChecker.rule: SimulationSafetyChecker,
    HotPathHygieneChecker.rule: HotPathHygieneChecker,
}

__all__ = [
    "ALL_CHECKERS",
    "DeltaPublicationChecker",
    "HotPathHygieneChecker",
    "IsolationChecker",
    "NondeterminismChecker",
    "SameTickOrderChecker",
    "SimulationSafetyChecker",
    "WallClockChecker",
]
