"""INV002: the delta-publication contract for incremental scheduling.

The :class:`~repro.repository.delta.DeltaTracker` journal is the
repository's one change-tracking mechanism: incremental consumers (the
host-selection score views, the federation directory catch-up) cursor
on it instead of re-walking the repository, which is only sound if two
links hold:

* every data mutation in a repository database publishes a delta event
  through a ``_notify`` hook (else the journal under-reports and cached
  candidate views serve stale hosts);
* every journal mutation inside the tracker bumps the ``generation``
  cursor stamp (else a caught-up consumer's cursor already equals the
  generation and ``events_since`` silently skips the new events).

This checker enforces both.  In configured *source* classes, a regular
method must call a notify method in the same body if it assigns or
deletes instance data — through ``self``, through a record got from
``self`` (``rec = self.get(address)``), or through a parameter — or
calls a mutating method (``put``, ``delete``, ``add``, ``append``, …)
on such data.  In configured *tracker* classes, a regular method that
mutates a journal attribute (mutator call, rebind, item assignment, or
``del``) must bump a generation attribute in the same body.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Checker

#: list/deque methods that mutate the receiver in place
_JOURNAL_MUTATORS = frozenset({
    "append", "extend", "insert", "clear", "pop", "remove",
    "sort", "reverse", "appendleft", "popleft",
})

#: container and ``Table`` methods that mutate the receiver in place
_DATA_MUTATORS = _JOURNAL_MUTATORS | frozenset({
    "put", "delete", "add", "discard", "update", "setdefault",
    "popitem", "difference_update", "intersection_update",
    "symmetric_difference_update",
})

#: source methods that change no data: registering a subscriber and
#: persisting a snapshot
_EXEMPT_METHODS = ("subscribe", "save")


def _root_of(target: ast.expr) -> tuple[str | None, str | None]:
    """Peel ``x.a.b[c] = …`` down to (root name, first attribute).

    Returns ``(None, None)`` for plain-local assignments, and
    ``(root, None)`` when the root name itself is the target.
    """
    attr: str | None = None
    node = target
    while True:
        if isinstance(node, ast.Attribute):
            attr = node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            return (node.id, attr) if attr is not None else (None, None)
        else:
            return (None, None)


def _self_aliases(fn: ast.AST, self_name: str) -> set[str]:
    """Local names bound from ``self.<method>(...)`` / ``self.<x>[...]``."""
    aliases: set[str] = set()
    for stmt in ast.walk(fn):
        if not isinstance(stmt, ast.Assign):
            continue
        value = stmt.value
        held = value.func if isinstance(value, ast.Call) else \
            value.value if isinstance(value, ast.Subscript) else None
        if isinstance(held, ast.Attribute) \
                and isinstance(held.value, ast.Name) \
                and held.value.id == self_name:
            aliases.update(t.id for t in stmt.targets
                           if isinstance(t, ast.Name))
    return aliases


class DeltaPublicationChecker(Checker):
    rule = "INV002"
    description = ("repository data mutations must publish delta events; "
                   "tracker journal mutations must bump the generation")
    default_config: dict[str, object] = {
        # databases feeding the DeltaTracker through subscribe/_notify
        "source_classes": ("ResourcePerformanceDB", "TaskPerformanceDB",
                           "TaskConstraintsDB", "UserAccountsDB"),
        "notify_methods": ("_notify",),
        # journal holders consumers cursor on
        "tracker_classes": ("DeltaTracker",),
        "journal_attrs": ("_events",),
        "generation_attrs": ("generation",),
    }

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = [item for item in node.body
                   if isinstance(item, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))]
        if node.name in self.config["source_classes"]:  # type: ignore[operator]
            for fn in methods:
                self._check_source_method(node.name, fn)
        if node.name in self.config["tracker_classes"]:  # type: ignore[operator]
            for fn in methods:
                self._check_tracker_method(node.name, fn)
        self.generic_visit(node)

    @staticmethod
    def _exempt(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Dunders, class/static methods, and properties are out of scope."""
        if fn.name.startswith("__") and fn.name.endswith("__"):
            return True
        for deco in fn.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.id if isinstance(target, ast.Name) else \
                target.attr if isinstance(target, ast.Attribute) else ""
            if name in ("classmethod", "staticmethod", "property", "setter",
                        "cached_property"):
                return True
        return not fn.args.args

    # -- pattern 1: data mutation without a delta publication --------------
    def _check_source_method(self, class_name: str,
                             fn: ast.FunctionDef | ast.AsyncFunctionDef
                             ) -> None:
        if self._exempt(fn) or fn.name in _EXEMPT_METHODS:
            return
        self_name = fn.args.args[0].arg
        owners = {self_name} | _self_aliases(fn, self_name)
        owners.update(a.arg for a in fn.args.args[1:])
        owners.update(a.arg for a in fn.args.kwonlyargs)
        publish = self.config["notify_methods"]
        mutations: list[ast.stmt | ast.expr] = []
        published = False
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                                 ast.Delete)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue
                targets = node.targets \
                    if isinstance(node, (ast.Assign, ast.Delete)) \
                    else [node.target]
                if any(_root_of(t)[0] in owners for t in targets):
                    mutations.append(node)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                func = node.func
                if isinstance(func.value, ast.Name) \
                        and func.value.id == self_name \
                        and func.attr in publish:  # type: ignore[operator]
                    published = True
                elif func.attr in _DATA_MUTATORS \
                        and _root_of(func.value)[0] in owners:
                    mutations.append(node)
        if mutations and not published:
            first = mutations[0]
            self.report(fn, (
                f"{class_name}.{fn.name} mutates repository data "
                f"(line {first.lineno}) without publishing "
                "a delta event; incremental views will go silently stale"))

    # -- pattern 2: journal mutation without a generation bump -------------
    def _check_tracker_method(self, class_name: str,
                              fn: ast.FunctionDef | ast.AsyncFunctionDef
                              ) -> None:
        if self._exempt(fn):
            return
        self_name = fn.args.args[0].arg
        journal_attrs = self.config["journal_attrs"]
        generation_attrs = self.config["generation_attrs"]
        mutations: list[ast.stmt] = []
        bumped = False
        for stmt in ast.walk(fn):
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    root, attr = _root_of(target)
                    if root != self_name or attr is None:
                        continue
                    if attr in generation_attrs:  # type: ignore[operator]
                        bumped = True
                    elif attr in journal_attrs:  # type: ignore[operator]
                        mutations.append(stmt)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    root, attr = _root_of(target)
                    if root == self_name \
                            and attr in journal_attrs:  # type: ignore[operator]
                        mutations.append(stmt)
            elif isinstance(stmt, ast.Call):
                func = stmt.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in _JOURNAL_MUTATORS \
                        and isinstance(func.value, ast.Attribute) \
                        and func.value.attr in journal_attrs \
                        and isinstance(func.value.value, ast.Name) \
                        and func.value.value.id == self_name:
                    mutations.append(stmt)
        if mutations and not bumped:
            first = mutations[0]
            self.report(fn, (
                f"{class_name}.{fn.name} mutates the delta journal "
                f"(line {first.lineno}) without bumping the generation; "
                "cursored consumers will silently miss events"))
