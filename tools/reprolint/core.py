"""The reprolint framework: findings, the checker base class, the runner.

A :class:`Checker` is a per-file AST visitor.  The :class:`LintRunner`
walks the target paths, parses each Python file once, extracts
suppression comments, runs every applicable checker over the tree, and
filters suppressed findings.  Checkers never see files outside their
configured path scope, so a rule about simulation code cannot misfire on
the real-socket bridge or the tooling.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Directories never linted (fixtures are deliberately full of findings).
DEFAULT_EXCLUDES = ("__pycache__", "reprolint_fixtures", ".git")

#: ``# reprolint: disable=DET001`` or ``disable=DET001,INV002`` or
#: ``disable=all``; anything after ``--`` is the human justification.
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,]+|all)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message}


class Checker(ast.NodeVisitor):
    """Base class for one rule: a per-file AST visitor with config.

    Subclasses set :attr:`rule` / :attr:`description`, may restrict
    themselves with :attr:`path_filters` (posix substrings; empty = every
    file) and :attr:`exempt_files` (basenames), and call :meth:`report`
    from their ``visit_*`` methods.  ``config`` merges over the class's
    :attr:`default_config`.
    """

    rule: str = "RULE000"
    description: str = ""
    #: posix path substrings this rule applies to; empty means all files
    path_filters: tuple[str, ...] = ()
    #: basenames exempt from the rule (e.g. the real-socket bridge)
    exempt_files: tuple[str, ...] = ()
    default_config: dict[str, object] = {}

    def __init__(self, config: dict[str, object] | None = None,
                 ignore_path_filters: bool = False) -> None:
        self.config: dict[str, object] = dict(self.default_config)
        if config:
            self.config.update(config)
        self.ignore_path_filters = ignore_path_filters
        self._findings: list[Finding] = []
        self._path = ""

    # -- scoping -----------------------------------------------------------
    def applies_to(self, path: Path) -> bool:
        """Whether this rule runs over *path* at all."""
        if path.name in self.exempt_files:
            return False
        if self.ignore_path_filters or not self.path_filters:
            return True
        posix = path.as_posix()
        return any(fragment in posix for fragment in self.path_filters)

    # -- the per-file entry point ------------------------------------------
    def check(self, path: Path, tree: ast.Module,
              source: str) -> list[Finding]:
        """Run the visitor over one parsed file; returns raw findings."""
        self._findings = []
        self._path = str(path)
        self.begin_file(tree, source)
        self.visit(tree)
        self.end_file()
        return self._findings

    def begin_file(self, tree: ast.Module, source: str) -> None:
        """Per-file setup hook (import-alias scans live here)."""

    def end_file(self) -> None:
        """Per-file teardown hook."""

    def report(self, node: ast.AST, message: str) -> None:
        self._findings.append(Finding(
            rule=self.rule, path=self._path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message))


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------

def suppressed_rules_by_line(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids suppressed there.

    A ``# reprolint: disable=RULE`` comment suppresses findings on its
    own line and — when the comment stands alone — on the next line, so
    long messages keep the justification above the code.  ``all``
    suppresses every rule.
    """
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        rules = {r.strip().upper() for r in m.group(1).split(",") if r.strip()}
        out.setdefault(lineno, set()).update(rules)
        if text.lstrip().startswith("#"):  # comment-only line: covers next
            out.setdefault(lineno + 1, set()).update(rules)
    return out


def is_suppressed(finding: Finding,
                  suppressions: dict[int, set[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if not rules:
        return False
    return "ALL" in rules or finding.rule.upper() in rules


# ---------------------------------------------------------------------------
# file collection + the runner
# ---------------------------------------------------------------------------

def iter_python_files(paths: Iterable[str | Path],
                      excludes: tuple[str, ...] = DEFAULT_EXCLUDES
                      ) -> Iterator[Path]:
    """Yield every ``.py`` file under *paths*, skipping excluded parts."""
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for candidate in sorted(root.rglob("*.py")):
            if any(part in excludes for part in candidate.parts):
                continue
            yield candidate


@dataclass
class LintResult:
    """Everything one run produced, for rendering and exit-code logic."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"parse error: {e}" for e in self.parse_errors)
        lines.append(
            f"reprolint: {self.files_checked} files, "
            f"{len(self.findings)} finding(s)")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps({
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "parse_errors": self.parse_errors,
        }, indent=2, sort_keys=True)

    def render_sarif(self, rules: dict[str, str] | None = None) -> str:
        """SARIF 2.1.0 log for code-scanning upload.

        *rules* maps rule id -> description; pass the checker catalogue
        so the viewer shows rule help.  Parse errors become tool
        notifications (they fail the run but have no code location).
        """
        rules = rules or {}
        seen = sorted({f.rule for f in self.findings} | set(rules))
        driver = {
            "name": "reprolint",
            "informationUri":
                "https://example.invalid/reprolint",  # no public docs
            "rules": [{"id": rule,
                       "shortDescription":
                           {"text": rules.get(rule, rule)}}
                      for rule in seen],
        }
        index = {rule: i for i, rule in enumerate(seen)}
        results = [{
            "ruleId": f.rule,
            "ruleIndex": index[f.rule],
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": Path(f.path).as_posix(),
                        "uriBaseId": "SRCROOT"},
                    "region": {"startLine": f.line,
                               "startColumn": f.col},
                },
            }],
        } for f in self.findings]
        run: dict[str, object] = {
            "tool": {"driver": driver},
            "columnKind": "utf16CodeUnits",
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }
        if self.parse_errors:
            run["invocations"] = [{
                "executionSuccessful": False,
                "toolExecutionNotifications": [
                    {"level": "error", "message": {"text": err}}
                    for err in self.parse_errors],
            }]
        return json.dumps({
            "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                        "sarif-spec/master/Schemata/sarif-schema-2.1.0"
                        ".json"),
            "version": "2.1.0",
            "runs": [run],
        }, indent=2, sort_keys=True)


class LintRunner:
    """Drive a set of checkers over a set of paths."""

    def __init__(self, checkers: list[Checker],
                 excludes: tuple[str, ...] = DEFAULT_EXCLUDES) -> None:
        self.checkers = checkers
        self.excludes = excludes

    def run(self, paths: Iterable[str | Path]) -> LintResult:
        result = LintResult()
        for path in iter_python_files(paths, self.excludes):
            applicable = [c for c in self.checkers if c.applies_to(path)]
            if not applicable:
                continue
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError) as exc:
                result.parse_errors.append(f"{path}: {exc}")
                continue
            result.files_checked += 1
            suppressions = suppressed_rules_by_line(source)
            for checker in applicable:
                for finding in checker.check(path, tree, source):
                    if not is_suppressed(finding, suppressions):
                        result.findings.append(finding)
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return result
