"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures: it
computes the artifact, asserts the qualitative shape the paper reports,
records a plain-text rendering under ``benchmarks/artifacts/`` and times
the core computation with pytest-benchmark.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.campaign import CampaignPlan
from repro.core.packaging import PackagingPolicy, WorkUnitPlan
from repro.fluid import FluidCampaign
from repro.maxdo.cost_model import CostModel
from repro.proteins.library import ProteinLibrary

ARTIFACT_DIR = Path(__file__).parent / "artifacts"
_BENCH_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ with ``bench`` so suites can
    select or skip the benchmark tier (``-m bench`` / ``-m 'not bench'``)."""
    for item in items:
        if Path(str(item.fspath)).parent == _BENCH_DIR:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def record_artifact():
    """Writer for the rendered table/figure artifacts."""
    ARTIFACT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (ARTIFACT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n--- {name} ---\n{text}\n")

    return write


@pytest.fixture(scope="session")
def record_data():
    """Writer for machine-readable artifact data (JSON next to the text)."""
    from repro.analysis.export import export_json

    ARTIFACT_DIR.mkdir(exist_ok=True)

    def write(name: str, payload: dict, experiment: str | None = None) -> None:
        export_json(ARTIFACT_DIR / f"{name}.json", payload, experiment=experiment)

    return write


@pytest.fixture(scope="session")
def library() -> ProteinLibrary:
    return ProteinLibrary.phase1()


@pytest.fixture(scope="session")
def cost_model(library) -> CostModel:
    return CostModel.calibrated(library)


@pytest.fixture(scope="session")
def campaign(library, cost_model) -> CampaignPlan:
    return CampaignPlan(library, cost_model)


@pytest.fixture(scope="session")
def deployed_plan(cost_model) -> WorkUnitPlan:
    """The as-deployed packaging (~3.3 h mean workunits, Figure 8)."""
    return WorkUnitPlan(cost_model, PackagingPolicy(target_hours=3.65))


@pytest.fixture(scope="session")
def fluid_result(campaign, deployed_plan):
    """One full-scale fluid campaign shared by the figure benches."""
    fluid = FluidCampaign(campaign, deployed_plan.duration_stats()["mean"])
    return fluid, fluid.run()
