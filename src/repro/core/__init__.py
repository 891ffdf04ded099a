"""The paper's primary contribution: preparing and accounting a volunteer-grid
campaign.

* :mod:`repro.core.workunit` — workunit/result records and the id scheme;
* :mod:`repro.core.packaging` — slicing the cross-docking workload into
  workunits of a target duration (Section 4.2, Figure 4);
* :mod:`repro.core.estimation` — formula (1) total-work estimation and the
  Grid'5000 calibration experiment (Section 4.1, Table 1);
* :mod:`repro.core.campaign` — protein release ordering and progression
  accounting (Sections 5.1–5.2, Figure 7);
* :mod:`repro.core.metrics` — virtual full-time processors, redundancy,
  speed-down and grid equivalence (Sections 3.1, 5.1, 6, Table 2);
* :mod:`repro.core.projection` — the phase-II scaling model (Section 7,
  Table 3).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".campaign": ["CampaignPlan"],
    ".estimation": [
        "EstimateReport", "calibration_experiment",
        "estimate_total_work",
    ],
    ".metrics": [
        "CampaignMetrics", "dedicated_equivalent", "redundancy_factor",
        "speed_down_net", "speed_down_raw",
        "virtual_full_time_processors",
    ],
    ".packaging": [
        "PackagingPolicy", "WorkUnitPlan", "positions_per_workunit",
    ],
    ".projection": ["Phase2Projection", "project_phase2"],
    ".workunit": ["WorkUnit", "WorkUnitStatus"],
})
