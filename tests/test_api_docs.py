"""Tests for the API-reference generator (tools/gen_api_docs.py)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "gen_api_docs.py"


@pytest.fixture(scope="module")
def gen():
    spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["gen_api_docs"] = module
    spec.loader.exec_module(module)
    return module


class TestGenerator:
    def test_generates_all_modules(self, gen):
        text = gen.generate()
        for modname in gen.MODULES:
            assert f"## `{modname}`" in text

    def test_documents_key_classes(self, gen):
        text = gen.generate()
        for cls in ("class `VDCE", "class `ApplicationEditor",
                    "class `SiteScheduler", "class `DataManager",
                    "class `HeftScheduler"):
            assert cls in text

    def test_method_docstrings_included(self, gen):
        text = gen.generate()
        assert "The double-click popup panel of Figure 3." in text

    def test_no_private_names(self, gen):
        text = gen.generate()
        assert "### class `_" not in text
        assert "- `._" not in text

    def test_writes_file(self, gen, tmp_path, monkeypatch, capsys):
        target = tmp_path / "api.md"
        monkeypatch.setattr(sys, "argv", ["gen_api_docs.py", str(target)])
        assert gen.main() == 0
        assert target.exists()
        assert target.read_text().startswith("# API reference")

    def test_checked_in_copy_up_to_date_markers(self, tmp_path):
        """docs/api.md is byte for byte what the generator writes.

        The generator runs in a fresh interpreter, as the CI docs step
        runs it, so no other test's patching leaks into the output.
        """
        root = TOOL.parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        fresh = tmp_path / "api.md"
        subprocess.run([sys.executable, str(TOOL), str(fresh)], cwd=root,
                       env=env, check=True, capture_output=True)
        doc = root / "docs" / "api.md"
        assert doc.read_bytes() == fresh.read_bytes(), (
            "docs/api.md is stale: run python tools/gen_api_docs.py")
