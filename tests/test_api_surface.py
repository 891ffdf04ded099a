"""Pin the public façade.

``repro.__all__`` and the signatures of the campaign-first entry points
are compatibility surface: other code (and the docs) import against
them.  A rename or reorder must show up here as a deliberate diff, not
as silent drift.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro

EXPECTED_ALL = [
    "constants",
    "units",
    "CampaignPlan",
    "calibration_experiment",
    "estimate_total_work",
    "CampaignMetrics",
    "virtual_full_time_processors",
    "PackagingPolicy",
    "WorkUnitPlan",
    "project_phase2",
    "WorkUnit",
    "FaultPlan",
    "FluidCampaign",
    "WCGPopulationModel",
    "hcmd_share_schedule",
    "CostModel",
    "MaxDoRun",
    "dock_couple",
    "MetricsRegistry",
    "Profiler",
    "Tracer",
    "ProteinLibrary",
    "ColumnarSegment",
    "ResultStore",
    "read_store",
    "store_to_text",
    "text_to_store",
    "write_store",
    "CampaignConfig",
    "ShardPlan",
    "scaled_phase1",
    "Campaign",
    "GridConfig",
    "MultiGridSimulation",
    "__version__",
]


def test_all_is_pinned_exactly():
    assert list(repro.__all__) == EXPECTED_ALL


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_campaign_constructor_signatures():
    cross = inspect.signature(repro.Campaign.cross_docking)
    assert list(cross.parameters) == [
        "name", "scale", "n_proteins", "target_hours", "release_policy",
        "kwargs",
    ]
    assert cross.parameters["scale"].default == 200.0
    assert cross.parameters["n_proteins"].default == 24
    screening = inspect.signature(repro.Campaign.screening)
    assert list(screening.parameters) == [
        "name", "n_ligands", "mean_hours", "sigma", "batch_size", "kwargs",
    ]


def test_campaign_fields():
    assert [f.name for f in dataclasses.fields(repro.Campaign)] == [
        "name", "workload", "weight", "priority", "quota_fraction",
        "submit_week", "drain_week", "weight_schedule", "server",
    ]


def test_grid_config_fields():
    assert [f.name for f in dataclasses.fields(repro.GridConfig)] == [
        "campaigns", "policy", "seed", "horizon_weeks", "n_hosts_peak",
        "share_schedule", "population", "host_model", "accounting",
        "faults",
    ]


def test_campaign_config_fields():
    assert [f.name for f in dataclasses.fields(repro.CampaignConfig)] == [
        "packaging", "server", "faults", "host_model", "share_schedule",
        "population", "n_hosts_peak", "horizon_weeks", "scale", "seed",
        "accounting", "release_policy", "shards",
    ]


def test_scaled_phase1_signature():
    sig = inspect.signature(repro.scaled_phase1)
    assert list(sig.parameters) == [
        "scale", "n_proteins", "seed", "target_hours", "horizon_weeks",
        "config", "tracer", "profiler", "health", "ledger", "kwargs",
    ]
    assert sig.parameters["scale"].default == 200.0
    assert sig.parameters["n_proteins"].default == 24


def test_multi_grid_simulation_signature():
    sig = inspect.signature(repro.MultiGridSimulation)
    assert list(sig.parameters) == [
        "config", "tracer", "profiler", "health", "ledger",
    ]


def test_facade_adapters_share_the_workload_layer():
    """scaled_phase1 and Campaign.cross_docking materialize the same
    library/cost model — the façade contract behind bit-identity."""
    from repro.multi.workloads import CrossDockingWorkload

    workload = CrossDockingWorkload(scale=900.0, n_proteins=5)
    library, costs = workload.library_and_costs(seed=42)
    import numpy as np

    sim = repro.scaled_phase1(scale=900, n_proteins=5, seed=42)
    np.testing.assert_array_equal(sim.library.nsep, library.nsep)
    assert sim.library.names == library.names


def test_unknown_config_keyword_raises_type_error():
    """The loose-keyword funnel is gone: a config takes its own field
    names and nothing else, at every entry point."""
    assert not hasattr(repro.CampaignConfig, "from_kwargs")
    with pytest.raises(TypeError):
        repro.CampaignConfig(quorum=3)
    with pytest.raises(TypeError):
        repro.CampaignConfig().with_(server_config=None)
    with pytest.raises(TypeError):
        repro.scaled_phase1(scale=900, n_proteins=5, server_config=None)
