"""Doc-consistency checks for the observability and service layers.

Tier-1-enforced invariants tying together the three places an event type
exists: the taxonomy registry (``repro.obs.events.EVENT_TYPES``), the
emitting code (``*.emit("...")`` call sites under ``src/repro``) and the
taxonomy table in ``docs/observability.md``.  An event type present in
one but missing from another fails here, so the docs cannot drift from
the code.  The same discipline applies to the scheduler service's wire
protocol: the endpoint table in ``docs/service.md`` must list exactly
the routes the service registers (``repro.service.ENDPOINTS``).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs import CHANNELS, EVENT_TYPES, TRACE_SCHEMA_VERSION, channel_of
from repro.service import ENDPOINTS, WIRE_PROTOCOL_VERSION
from repro.service.app import ROUTES
from tests.test_cli import ENGINES, OBSERVERS, REFUSED

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
OBS_DOC = REPO / "docs" / "observability.md"
SERVICE_DOC = REPO / "docs" / "service.md"

#: an emit call site with a literal event type (possibly line-wrapped)
_EMIT_RE = re.compile(r'\.emit\(\s*"([a-z_]+\.[a-z_]+)"')


def emitted_event_types() -> dict[str, list[Path]]:
    """Event type -> source files that emit it (literal call sites)."""
    sites: dict[str, list[Path]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for etype in _EMIT_RE.findall(path.read_text(encoding="utf-8")):
            sites.setdefault(etype, []).append(path)
    return sites


def test_every_emitted_type_is_declared():
    undeclared = {
        etype: [str(p.relative_to(REPO)) for p in paths]
        for etype, paths in emitted_event_types().items()
        if etype not in EVENT_TYPES
    }
    assert not undeclared, (
        f"event types emitted but missing from EVENT_TYPES: {undeclared}"
    )


def test_every_declared_type_is_emitted_somewhere():
    emitted = set(emitted_event_types())
    dead = sorted(set(EVENT_TYPES) - emitted)
    assert not dead, (
        f"event types declared in EVENT_TYPES but never emitted: {dead}"
    )


def test_every_event_type_documented_in_taxonomy_table():
    text = OBS_DOC.read_text(encoding="utf-8")
    missing = sorted(
        etype for etype in EVENT_TYPES if f"`{etype}`" not in text
    )
    assert not missing, (
        f"event types missing from docs/observability.md: {missing}"
    )


def test_every_channel_documented():
    text = OBS_DOC.read_text(encoding="utf-8")
    missing = sorted(ch for ch in CHANNELS if f"`{ch}`" not in text)
    assert not missing, f"channels missing from docs/observability.md: {missing}"


def test_channels_cover_event_types_exactly():
    used = {channel_of(etype) for etype in EVENT_TYPES}
    assert used == set(CHANNELS)


def test_schema_version_documented():
    text = OBS_DOC.read_text(encoding="utf-8")
    assert f"**Schema version:** {TRACE_SCHEMA_VERSION}" in text, (
        "docs/observability.md must state the current trace schema version "
        f"as '**Schema version:** {TRACE_SCHEMA_VERSION}'"
    )


#: a row of the docs/service.md endpoint table: | `METHOD` | `path` | ... |
_ENDPOINT_ROW_RE = re.compile(r"^\|\s*`(GET|POST|PUT|DELETE)`\s*\|\s*`(/[^`]*)`\s*\|")


def documented_endpoints() -> list[tuple[str, str]]:
    """(method, path) rows of the endpoint table in docs/service.md."""
    rows = []
    for line in SERVICE_DOC.read_text(encoding="utf-8").splitlines():
        match = _ENDPOINT_ROW_RE.match(line.strip())
        if match:
            rows.append((match.group(1), match.group(2)))
    return rows


def test_service_doc_endpoint_table_matches_registered_routes():
    documented = documented_endpoints()
    assert documented, "docs/service.md lost its endpoint table"
    assert documented == [(m, p) for m, p, _ in ENDPOINTS], (
        "the endpoint table in docs/service.md does not match "
        "repro.service.ENDPOINTS (same rows, same order required)"
    )
    assert set(ROUTES) == {(m, p) for m, p, _ in ENDPOINTS}, (
        "repro.service registers routes that ENDPOINTS does not declare"
    )


def test_fleet_endpoints_registered_and_documented():
    """The forensics endpoints stay pinned: ENDPOINTS ⇆ ROUTES ⇆ docs."""
    declared = {(m, p) for m, p, _ in ENDPOINTS}
    documented = set(documented_endpoints())
    for route in (("GET", "/v1/hosts"), ("GET", "/v1/metrics")):
        assert route in declared, f"{route} missing from ENDPOINTS"
        assert route in ROUTES, f"{route} missing from registered ROUTES"
        assert route in documented, f"{route} missing from docs/service.md"


def test_host_ledger_event_types_pinned():
    """The ledger's trust-trajectory events stay registered, emitted on
    the ``host`` channel, and backtick-documented in the taxonomy."""
    expected = {"host.trusted", "host.demoted", "host.spot_check", "host.credit"}
    assert expected <= set(EVENT_TYPES)
    assert {channel_of(etype) for etype in expected} == {"host"}
    assert "host" in CHANNELS
    emitted = emitted_event_types()
    text = OBS_DOC.read_text(encoding="utf-8")
    for etype in sorted(expected):
        assert etype in emitted, f"{etype} has no literal emit site"
        assert f"`{etype}`" in text, f"{etype} undocumented in the taxonomy"


def test_service_doc_states_wire_protocol_version():
    text = SERVICE_DOC.read_text(encoding="utf-8")
    assert f"**Wire protocol version:** {WIRE_PROTOCOL_VERSION}" in text, (
        "docs/service.md must state the current wire protocol version as "
        f"'**Wire protocol version:** {WIRE_PROTOCOL_VERSION}'"
    )


def test_service_doc_documents_every_refusal_reason():
    from repro.service.protocol import REFUSAL_REASONS

    text = SERVICE_DOC.read_text(encoding="utf-8")
    missing = sorted(r for r in REFUSAL_REASONS if f"`{r}`" not in text)
    assert not missing, (
        f"refusal reasons missing from docs/service.md: {missing}"
    )


def test_instrumented_modules_cross_reference_the_doc():
    """The instrumented modules point readers at docs/observability.md."""
    for module in (
        SRC / "obs" / "__init__.py",
        SRC / "grid" / "des.py",
        SRC / "boinc" / "server.py",
        SRC / "boinc" / "agent.py",
        SRC / "boinc" / "simulator.py",
        SRC / "maxdo" / "docking.py",
    ):
        assert "docs/observability.md" in module.read_text(encoding="utf-8"), (
            f"{module.relative_to(REPO)} lost its observability cross-reference"
        )


#: a benchmark script or root benchmark-result file named in prose
_BENCH_PATH_RE = re.compile(r"\b(?:benchmarks/)?bench_\w+\.py\b|\bBENCH_\w+\.json\b")


def test_every_benchmark_file_the_docs_name_exists():
    """A doc may cite a benchmark script or result file only while it is in
    the tree (a historical number names the PR that measured it instead)."""
    docs = [REPO / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += sorted((REPO / "docs").glob("*.md"))
    dangling = []
    for doc in docs:
        for name in _BENCH_PATH_RE.findall(doc.read_text(encoding="utf-8")):
            path = REPO / name
            if name.startswith("bench_"):
                path = REPO / "benchmarks" / name
            if not path.exists():
                dangling.append(f"{doc.relative_to(REPO)}: {name}")
    assert not dangling, f"docs name benchmark files that do not exist: {dangling}"


def test_observer_engine_table_matches_the_cli_matrix():
    """The "which observer on which engine" table is the table
    ``tests/test_cli.py`` drives ``simulate`` against: same engines, same
    observers, and a cell is ``refused`` in the doc exactly when the CLI
    exits 2 on it."""
    text = OBS_DOC.read_text(encoding="utf-8")
    section = text.split("## Which observer on which engine")[1].split("\n## ")[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and not line.startswith("|---")
    ]
    header, body = rows[0], rows[1:]
    assert tuple(cell.strip("`") for cell in header[1:]) == OBSERVERS
    assert [row[0] for row in body] == list(ENGINES)
    cells = {
        (row[0], observer): verdict
        for row in body
        for observer, verdict in zip(OBSERVERS, row[1:], strict=True)
    }
    assert set(cells.values()) <= {"yes", "refused"}
    assert {cell for cell, verdict in cells.items() if verdict == "refused"} == REFUSED
