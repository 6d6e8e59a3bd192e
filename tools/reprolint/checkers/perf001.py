"""PERF001: guarded instrumentation everywhere, slots on the hot path.

One :class:`~repro.obs.Observability` handle carries every recorder —
the flat trace log, metrics and spans — and its ``enabled`` flag is the
one instrumentation switch.  A run without an enabled handle must pay
one attribute load per record site and nothing more, so this checker
flags, in every module under ``repro/``:

* a trace, metric or span recording call (``record`` / ``inc`` / ``set``
  / ``add`` / ``observe`` / ``begin`` / ``end`` / ``complete``) on an
  obs-rooted receiver — ``obs.…``, ``….trace`` / ``.tracer`` /
  ``.metrics`` / ``.spans``, or an ``_m_*`` instrument handle — that is
  not enclosed in an ``if`` whose test consults ``.enabled``.

``repro/obs/`` and ``repro/simcore/trace.py`` implement recording and
are exempt.  Instance-dict lookups also cost on the kernel, mailbox,
network and scheduler hot paths, so those five files keep a second
check:

* a class without ``__slots__`` in a module where sibling classes have
  them (dataclasses and exception types are exempt).
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint.core import Checker

_EXC_BASES = ("Exception", "BaseException", "RuntimeError", "ValueError",
              "KeyError", "TypeError")

#: recording entry points of the trace log, metric instruments and spans
_RECORD_METHODS = frozenset(
    {"record", "inc", "set", "add", "observe", "begin", "end", "complete"})

#: receiver names that root a chain in the observability handle
_OBS_STORES = frozenset({"trace", "tracer", "metrics", "spans"})

#: modules that implement recording, exempt from the guard check
_RECORDER_PATHS = ("repro/obs/", "repro/simcore/trace.py")

#: hot-path modules where __slots__ parity is enforced
_SLOTS_PATHS = ("repro/simcore/engine.py", "repro/simcore/store.py",
                "repro/net/network.py",
                "repro/scheduling/site_scheduler.py",
                "repro/scheduling/heft.py")


def _under(path: Path, fragments: tuple[str, ...]) -> bool:
    posix = path.as_posix()
    return any(fragment in posix for fragment in fragments)


class HotPathHygieneChecker(Checker):
    rule = "PERF001"
    description = ("guarded trace/metric/span records across repro; "
                   "__slots__ parity on hot-path files")
    path_filters = ("repro/",)
    default_config: dict[str, object] = {}

    def applies_to(self, path: Path) -> bool:
        if not super().applies_to(path):
            return False
        return self.ignore_path_filters or not _under(path, _RECORDER_PATHS)

    # -- __slots__ parity --------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        if self.ignore_path_filters or _under(Path(self._path),
                                              _SLOTS_PATHS):
            self._check_slots_parity(node)
        self.generic_visit(node)

    def _check_slots_parity(self, node: ast.Module) -> None:
        classes = [n for n in node.body if isinstance(n, ast.ClassDef)]
        slotted = [c for c in classes if self._has_slots(c)]
        if not slotted:
            return
        for cls in classes:
            if cls in slotted or self._is_exempt_class(cls):
                continue
            self.report(cls, (
                f"class {cls.name} has no __slots__ but "
                f"{len(slotted)} sibling class(es) in this hot-path "
                "module do; per-instance dicts cost on every "
                "attribute access"))

    @staticmethod
    def _has_slots(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) \
                            and target.id == "__slots__":
                        return True
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == "__slots__":
                return True
        return False

    @staticmethod
    def _is_exempt_class(cls: ast.ClassDef) -> bool:
        for deco in cls.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.id if isinstance(target, ast.Name) else \
                target.attr if isinstance(target, ast.Attribute) else ""
            if name == "dataclass":
                return True
        for base in cls.bases:
            name = base.id if isinstance(base, ast.Name) else \
                base.attr if isinstance(base, ast.Attribute) else ""
            if name in _EXC_BASES or name.endswith(("Error", "Exception",
                                                    "Interrupt")):
                return True
        return False

    # -- guarded record calls ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scan(node.body, guarded=False)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _scan(self, stmts: list[ast.stmt], guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # visited separately
            if isinstance(stmt, ast.If):
                body_guarded = guarded or self._test_checks_enabled(
                    stmt.test)
                self._scan(stmt.body, body_guarded)
                self._scan(stmt.orelse, guarded)
                continue
            # expressions hanging directly off this statement (the nested
            # statement lists are recursed into below, so an `if` inside
            # a for/while/with/try is still honoured)
            if not guarded:
                for expr in self._immediate_exprs(stmt):
                    for child in ast.walk(expr):
                        if isinstance(child, ast.Call) \
                                and self._is_obs_record(child):
                            self.report(child, (
                                "trace/metric/span recording outside an "
                                "`if obs.enabled` guard pays argument and "
                                "call cost even when the run is not "
                                "observed"))
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if isinstance(inner, list) and inner \
                        and isinstance(inner[0], ast.stmt):
                    self._scan(inner, guarded)
            for handler in getattr(stmt, "handlers", []):
                self._scan(handler.body, guarded)

    @staticmethod
    def _immediate_exprs(stmt: ast.stmt) -> list[ast.expr]:
        out: list[ast.expr] = []
        for _field, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                out.append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        out.append(item)
                    elif isinstance(item, ast.withitem):
                        out.append(item.context_expr)
                        if item.optional_vars is not None:
                            out.append(item.optional_vars)
        return out

    @staticmethod
    def _test_checks_enabled(test: ast.expr) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                return True
        return False

    @staticmethod
    def _is_obs_record(node: ast.Call) -> bool:
        """A recording call on an obs-rooted receiver.

        Matches ``obs.trace.record(...)``, ``obs.metrics.counter(...)
        .inc(...)``, ``obs.spans.begin(...)``, and prebound instrument
        handles like ``self._m_messages.observe(...)`` — but not
        ordinary methods that happen to share a name (``some_set.add``,
        ``repo.delta.record``), because the receiver chain must mention
        an obs marker.
        """
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _RECORD_METHODS):
            return False
        for part in ast.walk(func.value):
            name = None
            if isinstance(part, ast.Name):
                name = part.id
            elif isinstance(part, ast.Attribute):
                name = part.attr
            if name is None:
                continue
            if name.startswith(("obs", "_m_")) or name in _OBS_STORES:
                return True
        return False
