"""Every module under ``src/repro`` has a caller outside ``tests/``.

An ``ast`` walk of the import graph over ``src/``, ``benchmarks/`` and
``examples/``.  Beside plain imports, three things count as a caller: a
package's ``lazy_exports`` table, ``obs/tracer.py`` running
``obs/_jsonl_writer.py`` by path, and the console script (``repro.cli``).
A module no one else imports is either deleted or listed in
:data:`ORPHANS` with the ROADMAP item that will give it a caller or take
it out; the list has to shrink when that happens.
"""

from __future__ import annotations

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module -> the ROADMAP item that decides it
ORPHANS = {
    "repro.grid.trace_io": 15,
    "repro.maxdo.clustering": 15,
    "repro.boinc.files": 12,
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(p): p for p in (SRC / "repro").rglob("*.py")}


def imports_of(path: Path) -> set[str]:
    """The ``repro`` modules the file at ``path`` imports (importing
    ``a.b.c`` imports ``a`` and ``a.b`` too)."""
    package = ""
    if path.is_relative_to(SRC):
        package = module_name(path)
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
    names: list[str] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            names += [package + key.value for key in node.args[1].keys]
    found = set()
    for name in names:
        parts = name.split(".")
        found.update(
            ".".join(parts[:i]) for i in range(1, len(parts) + 1)
            if ".".join(parts[:i]) in MODULES
        )
    return found


def callers() -> dict[str, set[str]]:
    """Module -> the files outside ``tests/`` that import it."""
    found: dict[str, set[str]] = {name: set() for name in MODULES}
    for root in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / root).rglob("*.py")):
            own = module_name(path) if path.is_relative_to(SRC) else None
            for name in imports_of(path) - {own}:
                found[name].add(str(path.relative_to(ROOT)))
    tracer = MODULES["repro.obs.tracer"]
    assert "_jsonl_writer.py" in tracer.read_text()  # run by path, not imported
    found["repro.obs._jsonl_writer"].add(str(tracer.relative_to(ROOT)))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    for target in scripts.values():
        found[target.partition(":")[0]].add("pyproject.toml")
    return found


def test_the_walk_sees_every_kind_of_caller():
    found = callers()
    assert "src/repro/boinc/__init__.py" in found["repro.boinc.simulator"]  # lazy table
    assert "src/repro/cli.py" in found["repro.constants"]  # from . import constants
    assert "pyproject.toml" in found["repro.cli"]


def test_every_module_has_a_caller_outside_tests():
    orphans = {name for name, files in callers().items() if not files}
    assert orphans == set(ORPHANS), (
        f"new orphans: {sorted(orphans - set(ORPHANS))}; "
        f"allowlisted modules that gained a caller: {sorted(set(ORPHANS) - orphans)}"
    )
