"""The multi-campaign grid engine.

One DES substrate, one volunteer fleet, N campaigns.  Each campaign
keeps its own :class:`~repro.boinc.server.GridServer` (workunit
database, deadlines, validation, reissue — untouched) behind the
:class:`~repro.boinc.simulator.CampaignRouter` every campaign runs
behind: it exposes the exact agent-facing surface of a single
``GridServer``, decides *which campaign serves each work request* under
the roster's scheduling policy, and routes results and telemetry back
to the owning campaign (campaign ``k`` numbers its workunits from ``k *
WU_ID_STRIDE``).  The volunteer agent code does not know the router
exists.

Identity contract
-----------------

The grid runs through the engine body every campaign runs through
(:func:`repro.boinc.simulator.run_campaigns`): this module hands it one
:class:`~repro.boinc.simulator.RuntimeSpec` per roster entry (a
cross-docking one from ``scaled_phase1``'s builder), the roster's
policy and its grid-level telemetry, and assembles the
:class:`GridResult`.  The router adds no randomness (all substreams are
the fleet's; policies only reorder deterministic candidate lists), and
with one campaign its agents record into that campaign's telemetry.
A grid with one cross-docking campaign therefore reproduces
``scaled_phase1``'s statistics, completion time, fleet, telemetry, error
budget and SLO / fleet reports exactly, and its trace event for event
once the ``grid.*`` events and the ``campaign=`` stamp of a roster
entry are dropped (the test suite pins all of it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from ..analysis.report import render_table
from ..boinc.fleet import FleetSpec, resolve_server_config
from ..boinc.simulator import (
    WU_ID_STRIDE,
    CampaignResult,
    CampaignRouter,
    CampaignRuntime,
    RuntimeSpec,
    Telemetry,
    fold_results,
    run_campaigns,
)
from ..boinc.validator import ValidationStats
from ..obs import HealthMonitor, HostLedger, Profiler, Tracer
from ..obs.health import SLOReport
from ..obs.ledger import FleetReport
from ..units import SECONDS_PER_WEEK, weeks
from .campaign import GridConfig
from .policies import make_policy
from .workloads import CrossDockingWorkload

__all__ = [
    "WU_ID_STRIDE",
    "CampaignRuntime",
    "CampaignRouter",
    "MultiGridSimulation",
    "GridResult",
]

@dataclass
class GridResult:
    """What a finished (or horizon-capped) multi-campaign grid produced."""

    config: GridConfig
    #: per-campaign results, in registration order
    campaigns: dict[str, CampaignResult]
    horizon_s: float
    n_hosts: int
    #: grid-level telemetry (pre-first-fetch agent events)
    grid_telemetry: Telemetry
    #: the fleet's final SLO report when a health monitor rode the grid
    #: (``health=True``), else None
    health: SLOReport | None = None
    #: the fleet's final per-host report, with a per-campaign breakdown,
    #: when a host ledger rode the grid (``ledger=True``), else None
    ledger: FleetReport | None = None

    def __getitem__(self, name: str) -> CampaignResult:
        return self.campaigns[name]

    @cached_property
    def _folded(self) -> CampaignResult:
        """The roster as one campaign, by the fold shards use."""
        return fold_results(
            list(self.campaigns.values()), self.n_hosts, [self.grid_telemetry]
        )

    @property
    def completion_time(self) -> float | None:
        """Grid completion: when the *last* campaign closed (None if any
        campaign was still open at the horizon)."""
        return self._folded.completion_time

    def merged_stats(self) -> ValidationStats:
        """Campaign stats folded into one grid-global ValidationStats."""
        return self._folded.server.stats

    def fault_report(self):
        """The grid's error budget: the roster's, folded into one."""
        return self._folded.fault_report()

    def issued_share(self) -> dict[str, float]:
        """Each campaign's share of the grid's useful reference work."""
        useful = {
            name: r.server.stats.useful_reference_s
            for name, r in self.campaigns.items()
        }
        total = sum(useful.values())
        if total <= 0.0:
            return {name: 0.0 for name in useful}
        return {name: v / total for name, v in useful.items()}

    def summary(self) -> str:
        """The roster table plus the grid line (``simulate --campaign``)."""
        shares = self.issued_share()
        rows = []
        for name, result in self.campaigns.items():
            workload = self.config.campaign(name).workload
            weeks = result.completion_weeks
            rows.append([
                name,
                "cross-docking" if isinstance(workload, CrossDockingWorkload)
                else "screening",
                result.server.n_workunits,
                result.server.stats.effective,
                f"{weeks:.1f}" if weeks else "incomplete",
                f"{shares.get(name, 0.0):.1%}",
            ])
        table = render_table(
            ["campaign", "kind", "workunits", "validated", "weeks", "share"], rows
        )
        done = "incomplete"
        if self.completion_time is not None:
            done = f"{self.completion_time / SECONDS_PER_WEEK:.1f} weeks"
        return (
            f"{table}\n\npolicy: {self.config.policy}; hosts: {self.n_hosts}; "
            f"grid completion: {done}; "
            f"validated results: {self.merged_stats().effective:,}"
        )


class MultiGridSimulation:
    """Run a :class:`GridConfig`: N campaigns on one volunteer fleet.

    ``tracer=`` / ``profiler=`` / ``health=`` / ``ledger=`` mean what they
    mean on :func:`~repro.boinc.simulator.scaled_phase1` — the same engine
    body forwards them to the same fleet driver.
    """

    def __init__(
        self,
        config: GridConfig,
        *,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        health: "bool | HealthMonitor | None" = None,
        ledger: "bool | HostLedger | None" = None,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.profiler = profiler
        self.health = health
        self.ledger = ledger
        #: one :class:`RuntimeSpec` per roster entry, built once: builds are
        #: pure functions of (workload, seed, server policy, id base), the
        #: root of the deterministic mid-run-admission replay guarantee
        horizon_s = weeks(config.horizon_weeks)
        self.specs: list[RuntimeSpec] = [
            replace(
                c.workload.build(
                    config.seed,
                    resolve_server_config(
                        c.server, config.faults, config.seed, horizon_s
                    ),
                    index * WU_ID_STRIDE,
                ),
                campaign=c,
            )
            for index, c in enumerate(config.campaigns)
        ]
        #: one fleet for all campaigns, auto-sized (when the config leaves
        #: it open) for the *total registered work*
        self.fleet = FleetSpec.resolve(
            config, sum(spec.total_reference_s for spec in self.specs)
        )
        self.horizon_s = self.fleet.horizon_s

    # -- execution ---------------------------------------------------------

    def run(self) -> GridResult:
        """Run the grid to completion of every campaign (or the horizon)."""
        grid_telemetry = Telemetry(self.horizon_s, tracer=self.tracer)
        fleet_run, results = run_campaigns(
            self.fleet,
            self.specs,
            policy=make_policy(self.config.policy, self.config.seed),
            grid_telemetry=grid_telemetry,
            tracer=self.tracer,
            profiler=self.profiler,
            health=self.health,
            ledger=self.ledger,
        )
        return GridResult(
            config=self.config,
            campaigns={
                c.name: result
                for c, result in zip(self.config.campaigns, results)
            },
            horizon_s=self.horizon_s,
            n_hosts=fleet_run.n_hosts,
            grid_telemetry=grid_telemetry,
            health=fleet_run.health,
            ledger=fleet_run.ledger,
        )
