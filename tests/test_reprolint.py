"""Fixture tests for the reprolint framework and its eight checkers.

Each fixture file under ``tests/reprolint_fixtures/`` annotates every
line that must be reported with ``# expect: RULE``.  The tests compare
the checker's actual findings against those annotations exactly — no
missing findings, no extras — then exercise the CLI, the suppression
comments, and the framework plumbing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint.checkers import ALL_CHECKERS  # noqa: E402
from tools.reprolint.core import (  # noqa: E402
    Finding,
    LintRunner,
    is_suppressed,
    suppressed_rules_by_line,
)

FIXTURES = REPO_ROOT / "tests" / "reprolint_fixtures"
_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9_,\s]+)")


def expectations(path: Path, rule: str) -> set[int]:
    """Line numbers annotated ``# expect: <rule>`` in *path*."""
    out: set[int] = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(text)
        if m and rule in {r.strip() for r in m.group(1).split(",")}:
            out.add(lineno)
    return out


def run_rule(rule: str, path: Path) -> list[Finding]:
    checker = ALL_CHECKERS[rule](ignore_path_filters=True)
    result = LintRunner([checker], excludes=()).run([path])
    assert not result.parse_errors, result.parse_errors
    return result.findings


@pytest.mark.parametrize("rule, fixture", [
    ("DET001", "det001_fixture.py"),
    ("DET001", "det001_argsort_fixture.py"),
    ("DET002", "det002_fixture.py"),
    ("DET003", "det003_fixture.py"),
    ("INV002", "inv002_fixture.py"),
    ("ISO001", "iso001_fixture.py"),
    ("SIM001", "sim001_fixture.py"),
    ("PERF001", "perf001_fixture.py"),
    ("PERF001", "perf001_obs_fixture.py"),
    ("PERF002", "perf002_fixture.py"),
])
def test_fixture_findings_exact(rule: str, fixture: str) -> None:
    path = FIXTURES / fixture
    expected = expectations(path, rule)
    assert expected, f"fixture {fixture} has no # expect: {rule} lines"
    got = {f.line for f in run_rule(rule, path)}
    assert got == expected, (
        f"{rule} on {fixture}: expected lines {sorted(expected)}, "
        f"got {sorted(got)}")


def test_every_finding_carries_its_rule_id() -> None:
    for rule, fixture in [("DET001", "det001_fixture.py"),
                          ("INV002", "inv002_fixture.py")]:
        for finding in run_rule(rule, FIXTURES / fixture):
            assert finding.rule == rule
            assert finding.message
            assert finding.path.endswith(fixture)


def test_rule_catalogue_lists_agree() -> None:
    """The registry, the docs catalogue and the package docstring name
    the same rules, so none of the three can drift from the others."""
    import tools.reprolint

    rule = r"[A-Z]+\d{3}"
    docs = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    headings = set(re.findall(rf"^### ({rule}) —", docs, re.MULTILINE))
    bullets = set(re.findall(rf"^\* \*\*({rule})\*\*",
                             tools.reprolint.__doc__ or "", re.MULTILINE))
    assert set(ALL_CHECKERS) == headings == bullets


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *args],
        capture_output=True, text=True, cwd=REPO_ROOT)


def test_cli_nonzero_with_correct_rule_ids_on_fixtures() -> None:
    proc = run_cli("tests/reprolint_fixtures", "--no-path-filter",
                   "--no-default-excludes", "--format", "json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    found = {(Path(f["path"]).name, f["line"], f["rule"])
             for f in doc["findings"]}
    for rule, fixture in [("DET001", "det001_fixture.py"),
                          ("DET001", "det001_argsort_fixture.py"),
                          ("DET002", "det002_fixture.py"),
                          ("DET003", "det003_fixture.py"),
                          ("INV002", "inv002_fixture.py"),
                          ("ISO001", "iso001_fixture.py"),
                          ("SIM001", "sim001_fixture.py"),
                          ("PERF001", "perf001_fixture.py"),
                          ("PERF001", "perf001_obs_fixture.py"),
                          ("PERF002", "perf002_fixture.py")]:
        for line in expectations(FIXTURES / fixture, rule):
            assert (fixture, line, rule) in found, (
                f"CLI missed {rule} at {fixture}:{line}")


def test_cli_clean_on_real_tree() -> None:
    proc = run_cli("src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_cli_select_and_list_rules() -> None:
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in ("DET001", "DET002", "DET003", "INV002", "ISO001",
                 "SIM001", "PERF001", "PERF002"):
        assert rule in proc.stdout
    proc = run_cli("tests/reprolint_fixtures", "--no-path-filter",
                   "--no-default-excludes", "--select", "PERF001",
                   "--format", "json")
    assert proc.returncode == 1
    rules = {f["rule"] for f in json.loads(proc.stdout)["findings"]}
    assert rules == {"PERF001"}
    assert run_cli("--select", "NOPE42", "src").returncode == 2


def test_cli_text_output_renders_locations() -> None:
    proc = run_cli("tests/reprolint_fixtures/det002_fixture.py",
                   "--no-path-filter", "--no-default-excludes")
    assert proc.returncode == 1
    assert re.search(r"det002_fixture\.py:\d+:\d+: DET002 ", proc.stdout)


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------

def test_suppression_same_line_and_next_line() -> None:
    source = (
        "x = 1  # reprolint: disable=DET001\n"
        "# reprolint: disable=INV002,SIM001 -- justified\n"
        "y = 2\n"
        "z = 3\n")
    supp = suppressed_rules_by_line(source)
    assert supp[1] == {"DET001"}
    assert supp[3] == {"INV002", "SIM001"}
    assert 4 not in supp

    def finding(rule: str, line: int) -> Finding:
        return Finding(rule=rule, path="f.py", line=line, col=1, message="m")

    assert is_suppressed(finding("DET001", 1), supp)
    assert not is_suppressed(finding("DET002", 1), supp)
    assert is_suppressed(finding("SIM001", 3), supp)
    assert not is_suppressed(finding("SIM001", 4), supp)


def test_suppression_all_keyword() -> None:
    supp = suppressed_rules_by_line("q = 9  # reprolint: disable=all\n")
    f = Finding(rule="PERF001", path="f.py", line=1, col=1, message="m")
    assert is_suppressed(f, supp)


def test_fixture_suppression_respected_by_runner() -> None:
    # det001_fixture.py ends with a suppressed set comprehension: the
    # runner must drop it even though the raw checker reports it.
    path = FIXTURES / "det001_fixture.py"
    suppressed_line = next(
        lineno + 1
        for lineno, text in enumerate(path.read_text().splitlines(), start=1)
        if "disable=DET001" in text)
    checker = ALL_CHECKERS["DET001"](ignore_path_filters=True)
    raw = {f.line for f in checker.check(
        path, __import__("ast").parse(path.read_text()), path.read_text())}
    assert suppressed_line in raw
    filtered = {f.line for f in LintRunner(
        [ALL_CHECKERS["DET001"](ignore_path_filters=True)],
        excludes=()).run([path]).findings}
    assert suppressed_line not in filtered


# ---------------------------------------------------------------------------
# framework plumbing
# ---------------------------------------------------------------------------

def test_path_filters_scope_rules(tmp_path: Path) -> None:
    # DET002 must skip realsock.py and anything outside src/repro
    hazard = "import time\nt = time.time()\n"
    exempt = tmp_path / "realsock.py"
    exempt.write_text(hazard)
    outside = tmp_path / "tooling.py"
    outside.write_text(hazard)
    inside = tmp_path / "repro" / "net"
    inside.mkdir(parents=True)
    simulated = inside / "network.py"
    simulated.write_text(hazard)
    checker = ALL_CHECKERS["DET002"]()
    result = LintRunner([checker], excludes=()).run([tmp_path])
    assert {Path(f.path).name for f in result.findings} == {"network.py"}


def test_det001_covers_the_task_library(tmp_path: Path) -> None:
    # a task kernel's argsort feeds an output, so its tie order must not
    # depend on the CPU; code outside DET001's scope stays unchecked
    hazard = "import numpy as np\norder = np.argsort([2, 1, 2])\n"
    for rel in ("repro/tasklib/c3i.py", "tooling.py"):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(hazard)
    result = LintRunner([ALL_CHECKERS["DET001"]()],
                        excludes=()).run([tmp_path])
    found = {(Path(f.path).relative_to(tmp_path).as_posix(), f.line)
             for f in result.findings}
    assert found == {("repro/tasklib/c3i.py", 2)}


def test_perf001_scope(tmp_path: Path) -> None:
    # the guard check covers every repro module except the recorders;
    # slots parity covers the five hot-path files only
    unguarded = "def f(obs):\n    obs.trace.record(0.0, 'x', 'a')\n"
    unslotted = ("class A:\n    __slots__ = ()\n\n\n"
                 "class B:\n    pass\n")
    files = {
        "repro/runtime/daemon.py": unguarded + unslotted,
        "repro/obs/spans.py": unguarded,
        "repro/simcore/trace.py": unguarded,
        "repro/net/network.py": unslotted,
        "repro/simcore/store.py": unslotted,
        "tooling.py": unguarded,
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    result = LintRunner([ALL_CHECKERS["PERF001"]()],
                        excludes=()).run([tmp_path])
    found = {(Path(f.path).relative_to(tmp_path).as_posix(), f.line)
             for f in result.findings}
    assert found == {("repro/runtime/daemon.py", 2),
                     ("repro/net/network.py", 5),
                     ("repro/simcore/store.py", 5)}


def test_parse_errors_fail_the_run(tmp_path: Path) -> None:
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    result = LintRunner(
        [ALL_CHECKERS["DET001"](ignore_path_filters=True)],
        excludes=()).run([tmp_path])
    assert not result.ok
    assert result.parse_errors and "broken.py" in result.parse_errors[0]


def test_sarif_output_round_trips(tmp_path: Path) -> None:
    result = LintRunner(
        [ALL_CHECKERS["ISO001"](ignore_path_filters=True)],
        excludes=()).run([FIXTURES / "iso001_fixture.py"])
    doc = json.loads(result.render_sarif({"ISO001": "cross-site writes"}))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "ISO001" in rules
    assert run["results"], "no SARIF results for a finding-laden fixture"
    for res in run["results"]:
        assert res["ruleId"] == "ISO001"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("iso001_fixture.py")
        assert loc["region"]["startLine"] > 0
    # the CLI writes the same document via --format sarif --output
    out = tmp_path / "lint.sarif"
    proc = run_cli("tests/reprolint_fixtures/iso001_fixture.py",
                   "--no-path-filter", "--no-default-excludes",
                   "--select", "ISO001", "--format", "sarif",
                   "--output", str(out))
    assert proc.returncode == 1  # findings still fail the run
    cli_doc = json.loads(out.read_text())
    assert {r["ruleId"] for r in cli_doc["runs"][0]["results"]} == {"ISO001"}


def test_json_output_round_trips() -> None:
    result = LintRunner(
        [ALL_CHECKERS["SIM001"](ignore_path_filters=True)],
        excludes=()).run([FIXTURES / "sim001_fixture.py"])
    doc = json.loads(result.render_json())
    assert doc["files_checked"] == 1
    assert {f["rule"] for f in doc["findings"]} == {"SIM001"}
