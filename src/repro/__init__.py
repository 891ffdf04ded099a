"""repro — reproduction of *Large Scale Execution of a Bioinformatic
Application on a Volunteer Grid* (Bertis, Bolze, Desprez, Reed; LIP
RR-2007-49 / IPPS 2008).

The package rebuilds the whole HCMD phase-I pipeline on synthetic
substrates:

* :mod:`repro.proteins` — calibrated reduced-protein library (168 proteins,
  the Figure 2 ``Nsep`` distribution);
* :mod:`repro.maxdo` — the MAXDo cross-docking engine (LJ + electrostatic
  energy, rigid-body minimization, checkpointing, result files) and the
  Section 4.1 computing-time model (Table 1, Figure 3);
* :mod:`repro.core` — workunit packaging (Figure 4), campaign planning
  (Figure 7), formula (1) estimation, VFTP metrics (Table 2) and the
  phase-II projection (Table 3);
* :mod:`repro.grid` / :mod:`repro.boinc` — a volunteer-grid discrete-event
  simulator (availability, throttling, checkpoint losses, redundant
  computing) with the WCG population model (Figure 1) and the HCMD share
  schedule (Figure 6a);
* :mod:`repro.dedicated` — the Grid'5000-like dedicated grid;
* :mod:`repro.fluid` — the full-scale analytic campaign model;
* :mod:`repro.analysis` / :mod:`repro.validation` — reporting and the
  Section 5.2 result checks;
* :mod:`repro.store` — the packed columnar result store, the canonical
  result format, with lossless text converters and the vectorized
  check -> merge -> matrix pipeline (docs/resultstore.md);
* :mod:`repro.obs` — campaign observability: structured event tracing,
  the metrics registry behind the telemetry, and profiling hooks
  (docs/observability.md);
* :mod:`repro.multi` — the multi-campaign grid: several campaigns
  sharing one volunteer fleet under a fair-share / strict-priority /
  weighted-lottery scheduler (docs/multicampaign.md).

The top level is a façade: the handful of names most sessions need —
:class:`Campaign` / :class:`GridConfig` and :func:`scaled_phase1` /
:class:`CampaignConfig`, :class:`FaultPlan`, :class:`MaxDoRun` /
:func:`dock_couple`, :class:`Tracer` / :class:`Profiler` — import
directly from :mod:`repro`; everything else stays addressable through
its subpackage.

Quickstart — run a scaled phase-I campaign::

    from repro import CampaignConfig, FaultPlan, scaled_phase1

    result = scaled_phase1(scale=300, n_proteins=10).run()
    print(result.metrics().redundancy)        # ~1.3, the paper's 1.37

    # same campaign under injected faults (see repro.faults)
    cfg = CampaignConfig(faults=FaultPlan.from_spec("corrupt=0.1,loss=0.05"))
    degraded = scaled_phase1(scale=300, n_proteins=10, config=cfg).run()
    print(degraded.fault_report().as_dict())

or share the fleet between campaigns (campaign-first API)::

    from repro import Campaign, GridConfig
    from repro.multi import MultiGridSimulation

    grid = GridConfig(campaigns=(
        Campaign.cross_docking("hcmd", scale=500, n_proteins=8, weight=3.0),
        Campaign.screening("malaria", n_ligands=800, weight=1.0),
    ))
    print(MultiGridSimulation(grid).run().issued_share())

or dock one protein couple with the MAXDo model::

    from repro import ProteinLibrary, dock_couple

    library = ProteinLibrary.phase1()
    table = dock_couple(library[3], library[7], seed=1)
"""

from . import constants, units
from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.campaign": ["CampaignPlan"],
    ".core.estimation": ["calibration_experiment", "estimate_total_work"],
    ".core.metrics": ["CampaignMetrics", "virtual_full_time_processors"],
    ".core.packaging": ["PackagingPolicy", "WorkUnitPlan"],
    ".core.projection": ["project_phase2"],
    ".core.workunit": ["WorkUnit"],
    ".faults": ["FaultPlan"],
    ".fluid": ["FluidCampaign"],
    ".grid.population": ["WCGPopulationModel", "hcmd_share_schedule"],
    ".maxdo.cost_model": ["CostModel"],
    ".maxdo.docking": ["MaxDoRun", "dock_couple"],
    ".obs": ["MetricsRegistry", "Profiler", "Tracer"],
    ".proteins.library": ["ProteinLibrary"],
    ".store": [
        "ColumnarSegment", "ResultStore", "read_store", "store_to_text",
        "text_to_store", "write_store",
    ],
    ".boinc": ["CampaignConfig", "ShardPlan", "scaled_phase1"],
    ".multi": ["Campaign", "GridConfig", "MultiGridSimulation"],
})

__version__ = "1.0.0"
__all__ = ["constants", "units", *__all__, "__version__"]
