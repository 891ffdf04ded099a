"""Start-up cost: a dependency is paid for by the job that uses it.

The rule (docs/architecture.md, "Start-up cost"): module top level under
``src/repro`` imports the stdlib, numpy where the module's own
definitions need it, and never scipy; packages re-export lazily.  Every
probe runs in a fresh interpreter with ``PYTHONPATH=src`` — what is in
``sys.modules`` of the test process says nothing about a cold start.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: ``import repro`` measured at 77 modules (Python 3.11, this box; the
#: bare interpreter is ~70), against 1,025 with the eager façade
IMPORT_REPRO_MODULE_BUDGET = 120


def probe(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it leaves a JSON-able ``out``."""
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json; print(json.dumps(out))"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = (
    "import sys; out = {'n': len(sys.modules), 'heavy': sorted("
    "{m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})}"
)


def test_import_repro_is_stdlib_only():
    out = probe(f"import repro\n{LOADED}")
    assert out["heavy"] == []
    assert out["n"] <= IMPORT_REPRO_MODULE_BUDGET


@pytest.mark.parametrize("statement", [
    "import repro.store",
    "from repro.maxdo.resultfile import read_results",
    "from repro.store import check_store, read_store, text_to_store",
])
def test_result_file_jobs_never_load_scipy(statement):
    assert "scipy" not in probe(f"{statement}\n{LOADED}")["heavy"]


@pytest.mark.parametrize("argv", [
    ["--help"], ["simulate", "--help"], ["results", "--help"], ["serve", "--help"],
])
def test_help_parses_before_it_imports(argv):
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", *argv],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: repro-hcmd")
    imported = {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in done.stderr.splitlines() if line.startswith("import time:")
    }
    assert "repro" in imported  # the probe sees imports at all
    assert not imported & {"numpy", "scipy"}


SCIPY_KEYS = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_simulation_run_loads_nothing_deferred():
    """Library, cost model and fleet are built by the constructor, where
    the user already waits; ``run()`` — the timed region, a served
    request — imports no scipy module."""
    out = probe(
        "import sys\n"
        "from repro import scaled_phase1\n"
        "sim = scaled_phase1(scale=300, n_proteins=10, seed=7)\n"
        f"before = {SCIPY_KEYS}\n"
        "sim.run()\n"
        f"out = {{'before': before, 'after': {SCIPY_KEYS}}}"
    )
    assert "scipy.special" in out["before"]
    assert out["after"] == out["before"]


DOCK = (
    "import sys\n"
    "from repro.maxdo.docking import dock_couple\n"
    "from repro.proteins.model import synthesize_protein\n"
    "from repro.rng import stream\n"
    "rec = synthesize_protein('REC', 12, stream(7, 'r'))\n"
    "lig = synthesize_protein('LIG', 10, stream(7, 'l'))\n"
    "kw = dict(nsep=2, n_couples=2, n_gamma=1, max_iterations=5)\n"
)


def test_second_docking_loads_nothing_new():
    out = probe(
        f"{DOCK}dock_couple(rec, lig, **kw)\n"
        f"before = {SCIPY_KEYS}\n"
        "dock_couple(rec, lig, **kw)\n"
        f"out = {{'before': before, 'after': {SCIPY_KEYS}}}"
    )
    assert "scipy.optimize" in out["before"]
    assert out["after"] == out["before"]


def test_docking_pool_inherits_the_optimizer():
    """A fan-out parent never minimizes itself; it must still import
    ``scipy.optimize`` before forking, or every worker pays for it."""
    out = probe(
        f"{DOCK}dock_couple(rec, lig, n_workers=2, **kw)\n"
        "out = 'scipy.optimize' in sys.modules"
    )
    assert out is True


def test_no_module_level_scipy_import_in_src():
    """The rule that keeps this fixed."""

    def top_level(body):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            elif isinstance(node, ast.Try):
                for part in (node.body, node.orelse, node.finalbody,
                             *(h.body for h in node.handlers)):
                    yield from top_level(part)
            elif isinstance(node, ast.If) and "TYPE_CHECKING" not in ast.dump(node.test):
                yield from top_level(node.body)
                yield from top_level(node.orelse)

    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in top_level(ast.parse(path.read_text()).body):
            names = (
                [node.module or ""] if isinstance(node, ast.ImportFrom)
                else [alias.name for alias in node.names]
            )
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_facade_names_are_the_submodules_objects():
    import repro

    assert repro.scaled_phase1 is repro.boinc.simulator.scaled_phase1
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    with pytest.raises(ImportError):
        from repro.store import no_such_name  # noqa: F401


def test_every_package_exports_what_it_lists():
    """One helper behind every re-exporting ``__init__``: each listed
    name resolves to the object its submodule defines, not to a
    same-named submodule."""
    import importlib
    import types

    packages = ["repro"] + sorted(
        f"repro.{p.parent.name}" for p in (SRC / "repro").glob("*/__init__.py")
    )
    assert len(packages) == 15
    for package in packages:
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module)), package
        for name in module.__all__:
            value = getattr(module, name)
            if (package, name) not in {("repro", "constants"), ("repro", "units")}:
                assert not isinstance(value, types.ModuleType), (package, name)


def test_star_import_binds_exactly_all():
    out = probe(
        "import repro\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "out = [sorted(k for k in ns if k != '__builtins__'), sorted(repro.__all__)]"
    )
    assert out[0] == out[1]


def test_trace_lines_are_encoded_by_the_stdlib_only_writer():
    """The JSONL line has one definition, in a writer process that never
    imports ``repro`` (it runs by file path, so nothing else would work)."""
    tracer = (SRC / "repro" / "obs" / "tracer.py").read_text()
    assert "json.dumps" not in tracer and "JSONEncoder" not in tracer
    writer = ast.parse((SRC / "repro" / "obs" / "_jsonl_writer.py").read_text())
    imported = set()
    for node in ast.walk(writer):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
    assert imported and imported <= sys.stdlib_module_names
