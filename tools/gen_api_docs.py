"""Generate docs/api.md from the package's docstrings.

Offline stand-in for Sphinx: walks ``repro``'s public modules, collects
module / class / function docstrings and signatures, and renders a
single-page markdown API reference.

Run:  python tools/gen_api_docs.py [output-path]
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

#: public modules, in reading order
MODULES = [
    "repro",
    "repro.core",
    "repro.afg",
    "repro.tasklib",
    "repro.scheduling",
    "repro.bakeoff",
    "repro.traffic",
    "repro.prediction",
    "repro.repository",
    "repro.runtime",
    "repro.runtime.control",
    "repro.runtime.data",
    "repro.runtime.local",
    "repro.runtime.services",
    "repro.resources",
    "repro.faults",
    "repro.recovery",
    "repro.federation",
    "repro.net",
    "repro.obs",
    "repro.analysis",
    "repro.simcore",
    "repro.workloads",
    "repro.viz",
    "repro.experiments",
    "repro.testing",
    "repro.util",
    "repro.cli",
]


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraphs = inspect.cleandoc(doc).split("\n\n")
    return paragraphs[0].replace("\n", " ")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        # only document things defined under repro (not numpy re-exports)
        mod = getattr(obj, "__module__", "") or ""
        if not mod.startswith("repro"):
            continue
        yield name, obj


def _document_class(name: str, cls) -> list[str]:
    lines = [f"### class `{name}{_signature(cls)}`", "",
             _first_paragraph(cls.__doc__), ""]
    methods = []
    for mname, member in inspect.getmembers(cls):
        if mname.startswith("_"):
            continue
        if inspect.isfunction(member) and \
                member.__qualname__.startswith(cls.__name__ + "."):
            methods.append((mname, member))
    if methods:
        for mname, member in methods:
            lines.append(f"- `.{mname}{_signature(member)}` — "
                         f"{_first_paragraph(member.__doc__)}")
        lines.append("")
    return lines


def generate(modules: list[str] = MODULES) -> str:
    out = ["# API reference", "",
           "*Generated by `tools/gen_api_docs.py` — regenerate after "
           "changing public docstrings.*", ""]
    for modname in modules:
        module = importlib.import_module(modname)
        out.append(f"## `{modname}`")
        out.append("")
        out.append(_first_paragraph(module.__doc__))
        out.append("")
        seen_here = []
        for name, obj in _public_members(module):
            # avoid re-documenting re-exports in parent packages
            if getattr(obj, "__module__", modname) != modname and \
                    modname != "repro":
                defining = obj.__module__
                if defining in modules and defining != modname:
                    continue
            if inspect.isclass(obj):
                seen_here.extend(_document_class(name, obj))
            elif inspect.isfunction(obj):
                seen_here.append(
                    f"### `{name}{_signature(obj)}`\n\n"
                    f"{_first_paragraph(obj.__doc__)}\n")
        out.extend(seen_here)
    return "\n".join(out) + "\n"


def main() -> int:
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).parent.parent / "docs" / "api.md"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(generate())
    print(f"wrote {target} ({target.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
