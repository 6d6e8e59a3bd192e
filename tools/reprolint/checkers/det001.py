"""DET001: nondeterminism hazards in simulation/scheduling code.

Three families of hazard, all of which have bitten (or would bite) the
byte-identical-chaos-run guarantee:

* iterating an unordered ``set``/``frozenset`` (literal, comprehension,
  constructor call, or a call to a known set-returning method such as
  ``ResourceAllocationTable.hosts()``) in a ``for`` loop or
  comprehension — iteration order is ``PYTHONHASHSEED``-dependent, so
  anything it feeds (message order, portion assignment) varies between
  processes;
* deriving values from ``id()`` or the salted builtin ``hash()``;
* drawing randomness outside ``repro.util.rng``: any ``random.*`` call,
  ``numpy.random`` legacy API, or an *unseeded* ``default_rng()``;
* ``np.argsort(...)`` or ``.argsort(...)`` without ``kind="stable"``:
  the default sort orders equal keys differently on different CPUs.
"""

from __future__ import annotations

import ast

from tools.reprolint.core import Checker

#: methods in this codebase documented to return sets
_SET_RETURNING_METHODS = (
    "hosts", "sites", "hosts_with", "tasks_on",
    "intersection", "union", "difference", "symmetric_difference",
)

#: the only names on ``numpy.random`` that are seedable-construction API
_ALLOWED_NP_RANDOM = (
    "default_rng", "SeedSequence", "Generator", "BitGenerator", "PCG64",
)


#: the ``kind`` values ``np.argsort`` documents as stable
_STABLE_SORT_KINDS = ("stable", "mergesort")


class NondeterminismChecker(Checker):
    rule = "DET001"
    description = ("unordered-set iteration, id()/hash() derived values, "
                   "randomness bypassing repro.util.rng, or an argsort "
                   "without kind=\"stable\"")
    path_filters = (
        "repro/simcore", "repro/scheduling", "repro/faults", "repro/net",
        "repro/runtime", "repro/workloads", "repro/resources",
        "repro/repository", "repro/tasklib",
    )
    default_config: dict[str, object] = {
        "set_returning_methods": _SET_RETURNING_METHODS,
        "allowed_np_random": _ALLOWED_NP_RANDOM,
    }

    def begin_file(self, tree: ast.Module, source: str) -> None:
        # aliases of the `random` module / `numpy` / `numpy.random`,
        # plus names imported *from* those modules.
        self._random_aliases: set[str] = set()
        self._numpy_aliases: set[str] = set()
        self._np_random_aliases: set[str] = set()
        self._from_random_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self._random_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        self._np_random_aliases.add(
                            alias.asname or "numpy")
                    elif alias.name == "numpy":
                        self._numpy_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        self._from_random_names.add(
                            alias.asname or alias.name)
                elif node.module == "numpy.random":
                    allowed = self.config["allowed_np_random"]
                    for alias in node.names:
                        if alias.name not in allowed:  # type: ignore[operator]
                            self._from_random_names.add(
                                alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self._np_random_aliases.add(
                                alias.asname or alias.name)

    # -- unordered iteration -----------------------------------------------
    def _is_unordered_set_expr(self, node: ast.expr) -> str | None:
        """Describe *node* if its value is an unordered set, else None."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"a {func.id}() call"
            if isinstance(func, ast.Attribute):
                methods = self.config["set_returning_methods"]
                if func.attr in methods:  # type: ignore[operator]
                    return f"the set-returning method .{func.attr}()"
        return None

    def _check_iterable(self, node: ast.expr) -> None:
        described = self._is_unordered_set_expr(node)
        if described:
            self.report(node, (
                f"iteration over {described} is PYTHONHASHSEED-dependent; "
                "wrap in sorted(...) before the order can reach a "
                "scheduling or messaging decision"))

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in node.generators:  # type: ignore[attr-defined]
            self._check_iterable(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- id()/hash() and randomness ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id":
                self.report(node, (
                    "id() is an address, different every run; key or order "
                    "on a stable identifier instead"))
            elif func.id == "hash":
                self.report(node, (
                    "builtin hash() is salted per process; use "
                    "zlib.crc32 of a stable string (see repro.util.rng)"))
            elif func.id in self._from_random_names:
                self.report(node, (
                    f"{func.id}() comes from the unseeded random module; "
                    "draw from repro.util.rng streams instead"))
        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call,
                              func: ast.Attribute) -> None:
        value = func.value
        if func.attr == "argsort":
            self._check_argsort(node, isinstance(value, ast.Name)
                                and value.id in self._numpy_aliases)
            return
        # random.<anything>(...)
        if isinstance(value, ast.Name) and value.id in self._random_aliases:
            self.report(node, (
                f"random.{func.attr}() uses global unseeded state; draw "
                "from repro.util.rng streams instead"))
            return
        # np.random.<x>(...) or aliased numpy.random module
        np_random = (
            (isinstance(value, ast.Attribute) and value.attr == "random"
             and isinstance(value.value, ast.Name)
             and value.value.id in self._numpy_aliases)
            or (isinstance(value, ast.Name)
                and value.id in self._np_random_aliases))
        if np_random:
            allowed = self.config["allowed_np_random"]
            if func.attr not in allowed:  # type: ignore[operator]
                self.report(node, (
                    f"numpy.random.{func.attr}() is the legacy global-state "
                    "API; construct a seeded Generator via repro.util.rng"))
            elif func.attr == "default_rng" and not node.args \
                    and not node.keywords:
                self.report(node, (
                    "default_rng() without a seed is entropy-seeded; pass "
                    "an explicit seed (or use repro.util.rng)"))

    def _check_argsort(self, node: ast.Call, function_form: bool) -> None:
        # np.argsort(a, axis, kind) or a.argsort(axis, kind)
        kind_at = 2 if function_form else 1
        kinds = [kw.value for kw in node.keywords if kw.arg == "kind"]
        kinds += node.args[kind_at:kind_at + 1]
        if not any(isinstance(k, ast.Constant)
                   and k.value in _STABLE_SORT_KINDS for k in kinds):
            self.report(node, (
                "argsort without kind=\"stable\" orders equal keys "
                "differently on different CPUs; pass kind=\"stable\""))
