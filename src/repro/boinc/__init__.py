"""Volunteer-grid (World Community Grid-like) discrete-event simulator.

The real HCMD phase I ran on hundreds of thousands of volunteer devices;
that scale is out of reach, so this subpackage simulates the grid's
*mechanisms* at reduced scale and reports scale-corrected aggregates:

* :mod:`repro.boinc.server` — workunit database, protein-after-protein
  release, instance deadlines and reissue;
* :mod:`repro.boinc.validator` — redundant computing: quorum comparison
  early, value-range validation later (Section 5.1), redundancy accounting;
* :mod:`repro.boinc.agent` — the volunteer agent state machine: fetch,
  compute under availability/throttle, checkpoint-restart losses, delayed
  reporting, silent abandonment;
* :mod:`repro.boinc.simulator` — campaign orchestration, host arrivals
  following the HCMD share schedule, daily telemetry, and the final
  :class:`repro.core.metrics.CampaignMetrics`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ["CampaignConfig"],
    ".credit": [
        "AccountingMode", "CobblestoneScale", "HostBenchmark",
        "vftp_from_credit",
    ],
    ".server": ["GridServer", "ServerConfig"],
    ".sharding": ["ShardPlan", "ShardSpec"],
    ".simulator": [
        "CampaignResult", "VolunteerGridSimulation", "scaled_phase1",
    ],
    ".validator": ["ValidationPolicy"],
})
