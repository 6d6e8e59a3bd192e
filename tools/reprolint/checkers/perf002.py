"""PERF002: a process spawned only to be awaited.

``yield <env>.process(gen)`` builds a kernel ``Process`` and queues a
bootstrap entry and a completion entry, only to run *gen* to its end
before the caller goes on.  ``yield from gen`` does the same work inside
the caller's own process.  Where same-tick order matters, one yield of
an event already succeeded after it waits the NORMAL queue turn the
completion entry used to give, so every other entry keeps its place.

Flags a ``yield`` (not ``yield from``) whose value is a direct
``.process(...)`` call.  Processes spawned to run side by side and
awaited together (``yield env.all_of(procs)``), or left to run on their
own, are not flagged.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Checker


class AwaitedSpawnChecker(Checker):
    rule = "PERF002"
    description = ("a process spawned only to be awaited "
                   "(yield env.process(gen)); run gen with yield from")
    path_filters = ("repro/",)

    def visit_Yield(self, node: ast.Yield) -> None:
        value = node.value
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Attribute) and \
                value.func.attr == "process":
            self.report(node, (
                "yield of a freshly spawned process: it costs a Process, "
                "a bootstrap and a completion entry; run the generator "
                "with yield from, then yield an event already succeeded "
                "where same-tick order matters"))
        self.generic_visit(node)
