"""repro.multi — the multi-campaign volunteer grid.

One DES substrate and one volunteer fleet hosting N concurrent
campaigns — the multi-project reality the paper's HCMD run lived in
(control period / prioritization / full power against other WCG
projects) made first-class:

* :mod:`~repro.multi.campaign` — :class:`Campaign` (one project: a
  workload, scheduling weight/priority/quota, a submit/drain lifecycle)
  and :class:`GridConfig` (the shared substrate plus the roster);
* :mod:`~repro.multi.workloads` — what campaigns compute: the HCMD
  cross-docking matrix and a WISDOM-style ligand-screening workload
  with a lognormal cost model;
* :mod:`~repro.multi.policies` — fair-share / strict-priority /
  weighted-lottery capacity division;
* :mod:`~repro.multi.engine` — :class:`MultiGridSimulation`: per-campaign
  grid servers behind a :class:`CampaignRouter` the agents cannot tell
  from a single server, run by the engine body a single campaign runs
  through (:func:`repro.boinc.simulator.run_campaigns`), ``health=`` /
  ``ledger=`` included.  A grid with one registered
  cross-docking campaign is simply N=1 on the router and reproduces
  ``scaled_phase1`` exactly — at a 13–18 % wall-time cost for the
  routing, so the fastest single campaign is ``scaled_phase1`` itself;
* :mod:`~repro.multi.scenario` — canonical setups, notably the paper's
  three-phase prioritization (:func:`three_phase_scenario`);
* :mod:`~repro.multi.spec` — the shared CLI ``--campaign SPEC`` parser.

Quickstart — two campaigns under fair share::

    from repro import Campaign, GridConfig
    from repro.multi import MultiGridSimulation

    grid = GridConfig(campaigns=(
        Campaign.cross_docking("hcmd", scale=500, n_proteins=8, weight=3.0),
        Campaign.screening("malaria", n_ligands=800, weight=1.0),
    ))
    result = MultiGridSimulation(grid).run()
    print(result.issued_share())   # ~{'hcmd': 0.75, 'malaria': 0.25}

See docs/multicampaign.md for policy semantics and the three-phase
walkthrough.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".campaign": ["Campaign", "GridConfig", "POLICIES"],
    ".engine": [
        "CampaignRouter", "CampaignRuntime", "GridResult",
        "MultiGridSimulation", "WU_ID_STRIDE",
    ],
    ".policies": [
        "FairShare", "SchedulingPolicy", "StrictPriority",
        "WeightedLottery", "make_policy",
    ],
    ".scenario": [
        "constant_share", "flat_population", "three_phase_scenario",
        "three_phase_weights",
    ],
    ".spec": ["CampaignSpecError", "parse_campaign_spec"],
    ".workloads": ["CrossDockingWorkload", "ScreeningWorkload", "Workload"],
})
