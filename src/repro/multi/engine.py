"""The multi-campaign grid engine.

One DES substrate, one volunteer fleet, N campaigns.  Each campaign
keeps its own :class:`~repro.boinc.server.GridServer` (workunit
database, deadlines, validation, reissue — untouched), and a
:class:`CampaignRouter` stands between the fleet and the servers: it
exposes the exact agent-facing surface of a single ``GridServer``
(``all_done`` / ``request_work`` / ``on_result`` / ``config``), decides
*which campaign serves each work request* under the configured
scheduling policy, and routes results and telemetry back to the owning
campaign.  The volunteer agent code does not know the router exists.

Identity contract
-----------------

The grid runs through the engine body every campaign runs through
(:func:`repro.boinc.simulator.run_campaigns`): this module hands it one
:class:`~repro.boinc.simulator.RuntimeSpec` per roster entry (a
cross-docking one from ``scaled_phase1``'s builder) and the router
constructor; the body starts a
:class:`~repro.boinc.simulator.CampaignRuntime` for each, drives the one
fleet (:func:`repro.boinc.fleet.run_fleet`), forwards ``health=`` /
``ledger=`` and assembles each :class:`CampaignResult`.  The router adds
no randomness (all substreams are the fleet's; policies only reorder
deterministic candidate lists).  A grid with one cross-docking campaign
is therefore simply N=1: it reproduces ``scaled_phase1``'s statistics,
completion time, fleet, telemetry and SLO / fleet reports exactly, and
its trace event for event once the ``grid.*`` events and the
``campaign=`` stamp are dropped (the test suite pins all of it).  The
router costs 13–18 % of wall time on that path (≈ 7–11 µs per validated
workunit), which is why a campaign alone keeps a bare ``GridServer`` as
its front.

Workunit id namespaces
----------------------

Campaign ``k`` numbers its workunits from ``k * WU_ID_STRIDE``
(mirroring the host-id striding of :mod:`repro.boinc.sharding`), so ids
stay globally unique across campaigns, result routing is a constant-time
integer division, and merged traces never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

from ..analysis.report import render_table
from ..boinc.fleet import FleetSpec, resolve_server_config
from ..boinc.server import Instance
from ..boinc.simulator import (
    CampaignResult,
    CampaignRuntime,
    RuntimeSpec,
    Telemetry,
    fold_results,
    run_campaigns,
)
from ..boinc.validator import ValidationStats
from ..faults import ResultQuality, ServerUnavailable
from ..grid.des import Simulator
from ..obs import HealthMonitor, HostLedger, Profiler, Tracer
from ..obs.health import SLOReport
from ..obs.ledger import FleetReport
from ..units import SECONDS_PER_WEEK, weeks
from .campaign import GridConfig
from .policies import SchedulingPolicy, make_policy
from .workloads import CrossDockingWorkload

__all__ = [
    "WU_ID_STRIDE",
    "CampaignRuntime",
    "CampaignRouter",
    "MultiGridSimulation",
    "GridResult",
]

#: workunit-id stride between campaigns: campaign ``k`` numbers its
#: workunits from ``k * WU_ID_STRIDE`` (far above any realistic campaign
#: size), so the owning campaign of a result is ``wu_id // WU_ID_STRIDE``.
WU_ID_STRIDE = 2**40


class _AgentTelemetry:
    """One host's telemetry view, routed to the campaign it serves.

    Agents are strictly sequential — one instance at a time, reported
    before the next fetch — so a single mutable ``current`` pointer, set
    by the router at issue and report time, attributes every agent-side
    sample (run times, results, credit, faults) to the right campaign.
    Before the first fetch it points at the grid-level telemetry.
    """

    __slots__ = ("current",)

    def __init__(self, default: Telemetry) -> None:
        self.current = default

    def record_result(self, t: float, accounted_cpu_s: float) -> None:
        self.current.record_result(t, accounted_cpu_s)

    def record_credit(self, points: float) -> None:
        self.current.record_credit(points)

    def record_fault(self, kind: str) -> None:
        self.current.record_fault(kind)

    def record_workunit_run(
        self, t: float, active_s: float, reference_s: float
    ) -> None:
        self.current.record_workunit_run(t, active_s, reference_s)


@dataclass(frozen=True)
class _RouterConfig:
    """The slice of ``ServerConfig`` read through the router: the loosest
    value on the grid of each field."""

    #: agents consult it only for the post-abandon revisit delay
    deadline_s: float
    #: sizes the health monitor's reissue budget (None = unbounded)
    max_reissues: int | None


class CampaignRouter:
    """The agent-facing façade over N campaign servers.

    Duck-types the ``GridServer`` surface volunteer agents consume; every
    work request walks the policy's preference ordering (quota-capped
    campaigns demoted behind everyone under quota) until a campaign hands
    out an instance.  Results route back by workunit-id namespace.
    Constructing it arms the roster's lifecycle on ``sim``: a timer per
    mid-run admission (``submit_week``) and drain (``drain_week``).
    """

    def __init__(
        self,
        sim: Simulator,
        runtimes: list[CampaignRuntime],
        policy: SchedulingPolicy,
        grid_telemetry: Telemetry,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.runtimes = runtimes
        self.policy = policy
        self.grid_telemetry = grid_telemetry
        self.tracer = tracer
        budgets = [rt.server.config.max_reissues for rt in runtimes]
        self.config = _RouterConfig(
            deadline_s=max(rt.server.config.deadline_s for rt in runtimes),
            max_reissues=None if None in budgets else max(budgets),
        )
        self._views: dict[int, _AgentTelemetry] = {}
        for rt in runtimes:
            rt.admitted = rt.campaign.submit_week == 0.0
        self._pending_admissions = sum(
            1 for rt in runtimes if not rt.admitted
        )
        for rt in runtimes:
            if rt.admitted and tracer is not None:
                tracer.emit(
                    "grid.admit", t_sim=0.0, campaign=rt.name,
                    n_workunits=rt.server.n_workunits,
                )
        for rt in runtimes:
            if not rt.admitted:
                sim.schedule_at(weeks(rt.campaign.submit_week), self.admit, rt)
            if rt.campaign.drain_week is not None:
                sim.schedule_at(
                    min(weeks(rt.campaign.drain_week), grid_telemetry.horizon_s),
                    self.drain, rt,
                )

    # -- fleet wiring ------------------------------------------------------

    def telemetry_for(self, host_id: int) -> _AgentTelemetry:
        """Create and register one agent's routed-telemetry view."""
        view = self._views[host_id] = _AgentTelemetry(self.grid_telemetry)
        return view

    # -- lifecycle ---------------------------------------------------------

    def admit(self, runtime: CampaignRuntime) -> None:
        """Mid-run admission: the campaign joins the candidate set."""
        runtime.admitted = True
        self._pending_admissions -= 1
        if self.tracer is not None:
            self.tracer.emit(
                "grid.admit", t_sim=self.sim.now, campaign=runtime.name,
                n_workunits=runtime.server.n_workunits,
            )

    def drain(self, runtime: CampaignRuntime) -> None:
        """Mid-run drain: no new issues; outstanding results still land."""
        runtime.drained = True
        if self.tracer is not None:
            self.tracer.emit(
                "grid.drain", t_sim=self.sim.now, campaign=runtime.name,
                validated=runtime.server.n_validated,
                n_workunits=runtime.server.n_workunits,
            )

    # -- what run_fleet reads from a front ---------------------------------

    @property
    def n_workunits(self) -> int:
        return sum(rt.server.n_workunits for rt in self.runtimes)

    @property
    def completion_time(self) -> float | None:
        """When the *last* campaign closed (None while any is open)."""
        times = [rt.server.completion_time for rt in self.runtimes]
        return None if None in times else max(times)

    # -- the GridServer surface agents consume -----------------------------

    @property
    def all_done(self) -> bool:
        """True once no campaign will ever need the fleet again."""
        if self._pending_admissions:
            return False
        return all(rt.settled for rt in self.runtimes if rt.admitted)

    def request_work(self, host_id: int) -> Instance | None:
        """Serve one work request under the scheduling policy.

        Walks the policy ordering (under-quota campaigns first) until a
        campaign issues an instance.  Returns ``None`` when nobody has
        issuable work; raises :class:`ServerUnavailable` only when every
        candidate campaign's server refused (all mid-outage).
        """
        candidates = [rt for rt in self.runtimes if rt.is_candidate]
        if not candidates:
            return None
        week = self.sim.now / SECONDS_PER_WEEK
        order = self.policy.order(candidates, week)
        order = self._quota_partition(order)
        refused_until: list[float] = []
        for rt in order:
            try:
                instance = rt.server.request_work(host_id)
            except ServerUnavailable as exc:
                refused_until.append(exc.until)
                continue
            if instance is None:
                continue
            rt.issued_reference_s += instance.wu.cost_reference_s
            view = self._views.get(host_id)
            if view is not None:
                view.current = rt.telemetry
            return instance
        if refused_until and len(refused_until) == len(order):
            raise ServerUnavailable(min(refused_until))
        return None

    def _quota_partition(
        self, order: list[CampaignRuntime]
    ) -> list[CampaignRuntime]:
        """Demote over-quota campaigns behind everyone under quota.

        A campaign is over quota when its share of all issued reference
        work exceeds its ``quota_fraction``.  Over-quota campaigns stay
        in the ordering — work-conserving: they are served rather than
        letting a volunteer idle — but only after every under-quota
        campaign had its chance.
        """
        total = sum(rt.issued_reference_s for rt in self.runtimes)
        if total <= 0.0:
            return order
        over = [
            rt
            for rt in order
            if rt.campaign.quota_fraction is not None
            and rt.issued_reference_s > rt.campaign.quota_fraction * total
        ]
        if not over:
            return order
        over_ids = {id(rt) for rt in over}
        return [rt for rt in order if id(rt) not in over_ids] + over

    def on_result(
        self,
        instance: Instance,
        valid: bool,
        accounted_cpu_s: float,
        quality: "ResultQuality | None" = None,
    ) -> None:
        """Route a result report to its owning campaign's server."""
        rt = self.runtime_of(instance.wu.wu_id)
        view = self._views.get(instance.host_id)
        if view is not None:
            view.current = rt.telemetry
        was_done = rt.server.all_done
        rt.server.on_result(
            instance, valid, accounted_cpu_s, quality=quality
        )
        if not was_done:
            self._note_completions()

    def runtime_of(self, wu_id: int) -> CampaignRuntime:
        """The campaign owning workunit ``wu_id`` (id-namespace lookup)."""
        index = wu_id // WU_ID_STRIDE
        if not 0 <= index < len(self.runtimes):
            raise KeyError(f"workunit {wu_id} belongs to no campaign")
        return self.runtimes[index]

    def _note_completions(self) -> None:
        """Emit ``grid.complete`` for campaigns that just finished.

        Checked after result deliveries for *all* runtimes, because a
        deadline-driven terminal failure can complete a campaign from
        inside a DES timer without passing through the router.
        """
        if self.tracer is None:
            return
        for rt in self.runtimes:
            if rt.server.all_done and not rt._complete_emitted:
                rt._complete_emitted = True
                self.tracer.emit(
                    "grid.complete",
                    t_sim=self.sim.now,
                    campaign=rt.name,
                    validated=rt.server.n_validated,
                    failed=rt.server.stats.failed,
                )


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

    def merged_telemetry(self) -> Telemetry:
        """All telemetry (campaigns + grid-level) folded day-aligned."""
        return self._folded.telemetry

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
            router=partial(
                CampaignRouter,
                policy=make_policy(self.config.policy, self.config.seed),
                grid_telemetry=grid_telemetry,
            ),
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
