"""Volunteer-grid campaign orchestration.

Wires the grid server, the volunteer agents and the telemetry together and
runs a (scaled) HCMD-like campaign end to end:

* workunits are materialized in release order (least-cost receptor batches
  first, Section 5.1) from a :class:`repro.core.packaging.WorkUnitPlan`;
* hosts join over time following the HCMD share schedule (control period,
  prioritization ramp, full-power phase) applied to the WCG growth trend;
* daily telemetry records consumed CPU (VFTP series, Figure 6a), result
  arrivals (Figure 6b), per-workunit device run times (Figure 8) and
  receptor-batch completions (Figure 7);
* the final :class:`repro.core.metrics.CampaignMetrics` feeds the Table 2
  equivalence.

Real WCG scale (1.4M workunits, tens of thousands of hosts) is out of
laptop reach; campaigns run at a configurable ``scale`` — the protein set
and per-protein position counts shrink — and report scale-corrected
aggregates next to raw ones.  Scale-independent quantities (redundancy
factor, speed-down, useful-result fraction, completion shape) are the
reproduction targets; the fluid model (:mod:`repro.fluid`) provides the
full-scale absolute numbers.

One engine body: :func:`run_campaigns` starts a :class:`CampaignRuntime`
per campaign (the one place telemetry, server and callbacks are wired),
fronts them with one :class:`CampaignRouter`, drives
:func:`repro.boinc.fleet.run_fleet` and
assembles a :class:`CampaignResult` each — for a campaign alone
(:class:`VolunteerGridSimulation`), one release-order slice of it
(:func:`repro.boinc.sharding.run_sharded`) and a roster
(:class:`repro.multi.MultiGridSimulation`) alike; where results meet
again they meet in :func:`fold_results`.

Observability: :class:`Telemetry` is built on a
:class:`repro.obs.MetricsRegistry` (every daily series/counter/histogram
it keeps is uniformly exportable), and passing ``tracer=`` /
``profiler=`` to :class:`VolunteerGridSimulation` (or
:func:`scaled_phase1`) threads structured event tracing and per-callback
timing through the DES kernel, the server and every agent.  See
docs/observability.md.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .. import constants
from ..faults import FaultPlan, FaultReport, ResultQuality, ServerUnavailable
from ..obs import MetricsRegistry, Profiler, Tracer
from ..obs.health import HealthMonitor, SLOReport
from ..obs.ledger import FleetReport, HostLedger
from ..core.campaign import CampaignPlan
from ..core.metrics import CampaignMetrics
from ..core.packaging import PackagingPolicy, WorkUnitPlan
from ..core.workunit import WorkUnit
from ..grid.des import Simulator
from ..grid.host import HostPopulationModel
from ..maxdo.cost_model import CostModel
from ..proteins.library import ProteinLibrary
from ..store.format import result_bytes
from ..units import SECONDS_PER_DAY, SECONDS_PER_WEEK, format_bytes, weeks
from .config import CampaignConfig
from .fleet import FleetRun, FleetSpec, resolve_server_config, run_fleet
from .server import GridServer, Instance, ServerConfig
from .sharding import MergedServerView, merge_stats, merge_telemetry, run_sharded
from .validator import ValidationStats

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..multi.policies import SchedulingPolicy
    from ..validation.merge import DatasetVolume

__all__ = [
    "Telemetry",
    "CampaignResult",
    "fold_results",
    "RuntimeSpec",
    "CampaignRuntime",
    "WU_ID_STRIDE",
    "CampaignRouter",
    "run_campaigns",
    "CampaignConfig",
    "VolunteerGridSimulation",
    "scaled_phase1",
]


#: Device run-time histogram bucket bounds, in hours (the Figure 8 axis:
#: the paper's mean is ~13 h for ~3.3 h reference workunits).
RUN_HOURS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 13.0, 24.0, 48.0, 96.0)


class Telemetry:
    """Daily-bucketed campaign telemetry, kept in a metrics registry.

    Public accessors (``daily_cpu_s``, ``weekly_vftp`` ...) are unchanged
    from the original hand-rolled class, but the underlying storage is a
    :class:`repro.obs.MetricsRegistry` of daily series / counters /
    histograms, so every recorded quantity exports uniformly through
    ``registry.as_dict()`` (and rides along in ``metrics.json``).

    Out-of-horizon samples are clamped to the edge day *and* counted in
    the ``telemetry.clamped_samples`` counter; with a tracer attached each
    clamp additionally emits a ``telemetry.clamp`` warning event, so the
    information loss is observable instead of silent.
    """

    def __init__(
        self,
        horizon_s: float,
        tracer: Tracer | None = None,
    ) -> None:
        self.horizon_s = horizon_s
        self.registry = MetricsRegistry()
        self.tracer = tracer
        n_days = int(np.ceil(horizon_s / SECONDS_PER_DAY)) + 1
        reg = self.registry
        self._cpu = reg.daily_series(
            "campaign.daily_cpu_s", n_days,
            help="accounted volunteer CPU seconds per day (VFTP series)",
        )
        self._results = reg.daily_series(
            "campaign.daily_results", n_days, dtype=np.int64,
            help="results disclosed per day",
        )
        self._useful = reg.daily_series(
            "campaign.daily_useful", n_days, dtype=np.int64,
            help="workunits validated per day",
        )
        self._credit = reg.counter(
            "campaign.claimed_credit_points", help="total claimed credit points"
        )
        self._shipped = reg.counter(
            "campaign.shipped_bytes",
            help="result bytes shipped to the storage server",
        )
        self._clamped = reg.counter(
            "telemetry.clamped_samples",
            help="samples clamped to the horizon edge (see telemetry.clamp)",
        )
        self._run_hours = reg.histogram(
            "campaign.run_active_hours", RUN_HOURS_BUCKETS,
            help="per-result device-side active run time (hours, Figure 8)",
        )
        self._last_day = n_days - 1
        self.run_active_s: list[float] = []
        self.run_reference_s: list[float] = []
        #: (time, bytes) per receptor batch shipped to the storage server
        self.shipments: list[tuple[float, int]] = []

    # -- registry-backed views (the original public attributes) -----------

    @property
    def daily_cpu_s(self) -> np.ndarray:
        return self._cpu.values

    @property
    def daily_results(self) -> np.ndarray:
        return self._results.values

    @property
    def daily_useful(self) -> np.ndarray:
        return self._useful.values

    @property
    def total_claimed_credit(self) -> float:
        return self._credit.value

    @property
    def clamped_samples(self) -> int:
        """Samples that fell outside the horizon and were edge-clamped."""
        return int(self._clamped.value)

    # -- recording ---------------------------------------------------------

    def _day(self, t: float) -> int:
        """The day bucket of ``t``, clamped to the horizon — loudly.

        A sample outside ``[0, horizon]`` still lands in the edge bucket
        (the series stays well-formed) but is counted and, when tracing,
        reported as a ``telemetry.clamp`` event instead of being silently
        folded in.
        """
        day = int(t / SECONDS_PER_DAY)
        last = self._last_day
        if 0 <= day <= last:
            return day
        self._clamped.inc()
        if self.tracer is not None:
            self.tracer.emit(
                "telemetry.clamp", t_sim=t, day=day,
                horizon_days=last,
            )
        return min(max(day, 0), last)

    def record_result(self, t: float, accounted_cpu_s: float) -> None:
        day = self._day(t)
        self._results.add(day)
        self._cpu.add(day, accounted_cpu_s)

    def record_validation(self, t: float) -> None:
        self._useful.add(self._day(t))

    def record_credit(self, points: float) -> None:
        self._credit.inc(points)

    def record_fault(self, kind: str) -> None:
        """Count one injected fault / recovery action.

        The ``fault.<kind>`` counter is created lazily on first use, so a
        fault-free campaign's registry export stays byte-identical — no
        zero-valued fault counters appear out of nowhere.
        """
        self.registry.counter(
            f"fault.{kind}",
            help=f"injected faults / recovery actions: {kind}",
        ).inc()

    def record_shipment(self, t: float, n_bytes: int) -> None:
        """A completed receptor batch shipped to the storage server."""
        self.shipments.append((t, n_bytes))
        self._shipped.inc(n_bytes)

    def record_workunit_run(
        self, t: float, active_s: float, reference_s: float
    ) -> None:
        self.run_active_s.append(active_s)
        self.run_reference_s.append(reference_s)
        self._run_hours.observe(active_s / 3600.0)

    def weekly_vftp(self) -> np.ndarray:
        """Average VFTP per project week (the Figure 6a series)."""
        n_weeks = len(self.daily_cpu_s) // 7
        daily_vftp = self.daily_cpu_s[: n_weeks * 7] / SECONDS_PER_DAY
        return daily_vftp.reshape(n_weeks, 7).mean(axis=1)


@dataclass
class CampaignResult:
    """Everything a finished (or horizon-capped) campaign produced."""

    telemetry: Telemetry
    #: the live server, or the plain record of one (a shard's result that
    #: crossed a process, a folded result)
    server: GridServer | MergedServerView
    completion_time: float | None
    horizon_s: float
    scale: float
    n_hosts: int
    #: receptor library indices in release order
    release_order: np.ndarray
    #: completion time of each receptor batch (by release position), NaN if
    #: incomplete
    batch_completion_s: np.ndarray
    #: the fault plan the campaign ran under (empty = fault-free)
    faults: FaultPlan = FaultPlan.none()
    #: the final SLO report when a health monitor rode the campaign
    #: (``health=True``), else None
    health: SLOReport | None = None
    #: the final per-host fleet report when a host ledger rode the
    #: campaign (``ledger=True``), else None
    ledger: FleetReport | None = None
    #: per-shard wall-clock seconds when the campaign ran sharded
    #: (:mod:`repro.boinc.sharding`), else None
    shard_walls: list[float] | None = None

    @property
    def span_s(self) -> float:
        """Campaign span: completion if reached, else the horizon."""
        return self.completion_time if self.completion_time is not None else self.horizon_s

    @property
    def completion_weeks(self) -> float | None:
        if self.completion_time is None:
            return None
        return self.completion_time / SECONDS_PER_WEEK

    def metrics(self) -> CampaignMetrics:
        stats = self.server.stats
        return CampaignMetrics(
            span_seconds=self.span_s,
            consumed_cpu_s=stats.consumed_cpu_s,
            useful_reference_cpu_s=stats.useful_reference_s,
            results_disclosed=stats.disclosed,
            results_effective=stats.effective,
        )

    def fault_report(self) -> FaultReport:
        """The campaign-level error budget (what was injected, what the
        defences caught, what slipped through, what failed terminally)."""
        return FaultReport.collect(
            self.faults,
            self.server.stats,
            self.telemetry.registry,
            total_workunits=self.server.n_workunits,
        )

    def summary_rows(self, volume: DatasetVolume) -> list[list[Any]]:
        """The ``repro-hcmd simulate`` table: (quantity, measured, paper)
        for the Section 5 headline numbers and the merged result dataset
        ``volume`` in both formats (the paper's 123 GB is the full
        library's)."""
        metrics = self.metrics()
        weeks = self.completion_weeks
        full_library = volume.n_files == constants.N_PROTEINS**2
        return [
            ["scale", f"1/{self.scale:g}", "-"],
            ["hosts", self.n_hosts, "-"],
            ["workunits", self.server.n_workunits, "-"],
            ["completion (weeks)", f"{weeks:.1f}" if weeks else "incomplete", "26"],
            ["redundancy factor", f"{metrics.redundancy:.3f}", "1.37"],
            ["useful result fraction", f"{metrics.useful_result_fraction:.3f}", "0.73"],
            ["net speed-down", f"{metrics.speed_down_net:.2f}", "3.96"],
            ["points-based VFTP / truth",
             f"{self.vftp_from_credit() / self.vftp_from_useful_work():.2f}", "-"],
            ["result dataset (text)", format_bytes(volume.raw_bytes),
             "123 GB" if full_library else "-"],
            ["result dataset (columnar)", format_bytes(volume.columnar_bytes), "-"],
            ["text / columnar ratio", f"{volume.columnar_ratio:.2f}x", "-"],
        ]

    def mean_device_run_hours(self) -> float:
        """Average device-side run time per result (paper: ~13 h)."""
        runs = np.asarray(self.telemetry.run_active_s)
        if runs.size == 0:
            raise ValueError("no workunit completed")
        return float(runs.mean()) / 3600.0

    def vftp_from_credit(self) -> float:
        """The Section 8 points-based VFTP estimate for this campaign."""
        from .credit import vftp_from_credit

        return vftp_from_credit(self.telemetry.total_claimed_credit, self.span_s)

    def vftp_from_useful_work(self) -> float:
        """Ground truth: reference work delivered per wall-clock second —
        what the points estimator is supposed to approximate."""
        return self.server.stats.useful_reference_s / self.span_s

    def shipped_bytes_total(self) -> int:
        """Result volume shipped to the storage server so far (§5.2)."""
        return sum(b for _, b in self.telemetry.shipments)

    def export(self, directory, profiler: Profiler | None = None) -> list:
        """Dump the campaign telemetry as CSV/JSON artifacts.

        Writes daily series, weekly aggregates, the per-result run times
        and the final metrics into ``directory``; returns the paths.
        Passing the campaign's :class:`~repro.obs.Profiler` additionally
        writes its machine-readable dump as ``profile.json``.
        """
        from pathlib import Path

        from ..analysis.export import export_json, export_series_csv

        directory = Path(directory)
        t = self.telemetry
        n_days = len(t.daily_cpu_s)
        paths = [
            export_series_csv(
                directory / "daily.csv",
                {
                    "day": np.arange(n_days),
                    "cpu_seconds": t.daily_cpu_s,
                    "results": t.daily_results,
                    "useful": t.daily_useful,
                },
            ),
            export_series_csv(
                directory / "workunit_runs.csv",
                {
                    "active_seconds": np.asarray(t.run_active_s),
                    "reference_seconds": np.asarray(t.run_reference_s),
                },
            ),
        ]
        m = self.metrics()
        payload = {
            "completion_weeks": self.completion_weeks,
            "n_hosts": self.n_hosts,
            "scale": self.scale,
            "vftp": m.vftp,
            "redundancy": m.redundancy,
            "useful_result_fraction": m.useful_result_fraction,
            "speed_down_raw": m.speed_down_raw,
            "speed_down_net": m.speed_down_net,
            "shipped_bytes": self.shipped_bytes_total(),
            # every registry metric (daily series, counters,
            # histograms) rides along, self-describing
            "registry": t.registry.as_dict(),
        }
        if self.faults.enabled:
            # Fault-free exports stay byte-identical: the error budget
            # only appears when a plan was active.
            payload["faults"] = self.fault_report().as_dict()
        if self.health is not None:
            # Same contract: the SLO report appears only when a monitor
            # rode the campaign.
            payload["health"] = self.health.as_dict()
        if self.ledger is not None:
            # And the fleet forensics only when a host ledger rode it.
            payload["ledger"] = self.ledger.as_dict()
        paths.append(
            export_json(
                directory / "metrics.json",
                payload,
                experiment="scaled phase-I campaign",
            )
        )
        if profiler is not None:
            paths.append(
                export_json(
                    directory / "profile.json",
                    profiler.to_dict(),
                    experiment="scaled phase-I campaign",
                )
            )
        return paths


def batch_completion_array(
    n_batches: int, batch_completion: dict[int, float]
) -> np.ndarray:
    """Completion time per batch position (NaN where still open)."""
    out = np.full(n_batches, np.nan)
    for batch, t in batch_completion.items():
        out[batch] = t
    return out


def fold_results(
    results: Sequence[CampaignResult],
    n_hosts: int,
    extra_telemetry: Sequence[Telemetry] = (),
) -> CampaignResult:
    """Fold results that ran to one horizon into one.

    The one place results meet — the shards of a campaign
    (:func:`repro.boinc.sharding.run_sharded`) and the campaigns of a
    roster (:class:`repro.multi.GridResult`'s merged views): telemetry
    sums day-aligned (``extra_telemetry`` first — a grid's own),
    :class:`ValidationStats` field-wise, and ``completion_time`` is the
    last part's once **every** part completed, else ``None``.  What the
    parts share (horizon, scale, release order, fault plan, server
    policy) is read off the first; ``n_hosts`` is the caller's to state:
    shards recruit disjoint fleets, a roster shares one.  Batch
    completions union by release position — the campaign's table for
    shards, which slice one release order; a roster's campaigns each
    count from 0, so :class:`~repro.multi.GridResult` exposes no batch
    view of its fold.
    """
    first = results[0]
    telemetry = Telemetry(first.horizon_s)
    for part in (*extra_telemetry, *(r.telemetry for r in results)):
        merge_telemetry(telemetry, part)
    stats = ValidationStats()
    batch_completion: dict[int, float] = {}
    for result in results:
        merge_stats(stats, result.server.stats)
        batch_completion.update(result.server.batch_completion)
    times = [r.completion_time for r in results]
    completion_time = None if None in times else max(times)
    return replace(
        first,
        telemetry=telemetry,
        server=MergedServerView(
            stats=stats,
            n_workunits=sum(r.server.n_workunits for r in results),
            completion_time=completion_time,
            batch_completion=batch_completion,
            config=first.server.config,
        ),
        completion_time=completion_time,
        n_hosts=n_hosts,
        batch_completion_s=batch_completion_array(
            max(len(r.batch_completion_s) for r in results), batch_completion
        ),
        health=None,
        ledger=None,
    )


class _CampaignTracer:
    """Tracer proxy stamping ``campaign=<name>`` into every event.

    Handed to each campaign's server and telemetry in place of the grid
    tracer, so the server-channel lifecycle (``server.issue`` /
    ``result`` / ``validate`` / ``batch_complete`` ...) is attributable
    per campaign in a merged trace.  Agent-channel events stay
    host-level (one agent serves many campaigns over its life); the
    workunit-id namespace maps them back to campaigns.
    """

    __slots__ = ("_tracer", "_campaign")

    def __init__(self, tracer: Tracer, campaign: str) -> None:
        self._tracer = tracer
        self._campaign = campaign

    def emit(self, etype: str, t_sim: float | None = None, **fields) -> None:
        self._tracer.emit(etype, t_sim=t_sim, campaign=self._campaign, **fields)


@dataclass(frozen=True)
class RuntimeSpec:
    """A materialized campaign — alone, a shard, a roster entry or served:
    everything a :class:`CampaignRuntime` needs except the kernel, the
    tracer and the fleet's horizon.  Every cross-docking spec comes from
    :meth:`cross_docking`; a screening build makes its own."""

    #: the ``(workunit, batch)`` list in release order
    workunits: list[tuple[WorkUnit, int]]
    #: result bytes shipped when each batch completes, by release position
    batch_bytes: Sequence[int]
    #: resolved, never ``None`` (``GridServer``'s default is not phase I's)
    server_config: ServerConfig
    #: receptor / batch indices in release order
    release_order: np.ndarray
    #: the whole campaign's reference CPU seconds (a shard's spec too)
    total_reference_s: float
    scale: float = 1.0
    #: first workunit id (a shard's or a roster campaign's id namespace)
    id_base: int = 0
    #: the roster entry (a :class:`repro.multi.Campaign`) the campaign runs
    #: under on a shared grid — its name stamps every server event; None
    #: for a campaign alone, whose events carry no stamp
    campaign: Any = None

    @classmethod
    def cross_docking(
        cls, campaign_plan: CampaignPlan, plan: WorkUnitPlan,
        server_config: ServerConfig, scale: float = 1.0,
        batch_lo: int = 0, batch_hi: int | None = None, id_base: int = 0,
    ) -> "RuntimeSpec":
        """Release positions ``[batch_lo, batch_hi)`` (default: all) of a
        cross-docking campaign, ids from ``id_base``.  A receptor batch
        ships its result lines, 118 bytes each, when it completes ("when
        one protein has been docked with the 168 others", Section 5.2)."""
        n_files = len(campaign_plan.library)
        return cls(
            workunits=campaign_plan.materialize(plan, batch_lo, batch_hi, id_base),
            batch_bytes=[
                result_bytes(rows, n_files) for rows in campaign_plan.batch_rows()
            ],
            server_config=server_config,
            release_order=campaign_plan.release_order,
            total_reference_s=campaign_plan.total_work,
            scale=scale,
            id_base=id_base,
        )


class CampaignRuntime:
    """One campaign live on a DES kernel.

    The only place a campaign's :class:`Telemetry`, :class:`GridServer`
    and the server's two callbacks are wired together, and
    (:meth:`result`) the only place a live server turns back into a
    :class:`CampaignResult` — for a campaign alone, a shard and a roster
    entry (each behind a :class:`CampaignRouter`) and the campaign a
    :class:`~repro.service.SchedulerService` serves.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: RuntimeSpec,
        horizon_s: float,
        tracer: Tracer | None = None,
        server_factory: Callable[..., GridServer] | None = None,
        index: int = 0,
    ) -> None:
        self.spec = spec
        #: position on the roster (the id namespace and the policy tie-break)
        self.index = index
        self.campaign = spec.campaign
        self.name = spec.campaign.name if spec.campaign is not None else None
        if tracer is not None and self.name is not None:
            tracer = _CampaignTracer(tracer, self.name)
        self.telemetry = telemetry = Telemetry(horizon_s, tracer=tracer)
        batch_bytes = spec.batch_bytes
        make_server = server_factory if server_factory is not None else GridServer
        self.server = make_server(
            sim=sim,
            workunits=spec.workunits,
            config=spec.server_config,
            on_workunit_valid=lambda wu, t: telemetry.record_validation(t),
            on_batch_complete=lambda batch, t: telemetry.record_shipment(
                t, batch_bytes[batch]
            ),
            tracer=tracer,
            id_base=spec.id_base,
        )
        # -- scheduling state, the router's to change; a campaign alone
        # -- keeps these values for life
        #: admitted to scheduling (a roster entry waits for ``submit_week``)
        self.admitted = True
        #: drained: no new issues, outstanding results still accepted
        self.drained = False
        #: cumulative reference seconds issued — the fair-share measure,
        #: kept where a policy chooses between campaigns
        self.issued_reference_s = 0.0
        self._complete_emitted = False

    @property
    def is_candidate(self) -> bool:
        """Eligible to serve the next work request."""
        return self.admitted and not self.drained and not self.server.all_done

    @property
    def settled(self) -> bool:
        """Nothing left to schedule here (done, or drained for good)."""
        return self.drained or self.server.all_done

    def result(self, fleet: FleetSpec, n_hosts: int) -> CampaignResult:
        """What the campaign produced under ``fleet`` (``n_hosts`` joined)."""
        spec, server = self.spec, self.server
        return CampaignResult(
            telemetry=self.telemetry,
            server=server,
            completion_time=server.completion_time,
            horizon_s=fleet.horizon_s,
            scale=spec.scale,
            n_hosts=n_hosts,
            release_order=spec.release_order.copy(),
            batch_completion_s=batch_completion_array(
                len(spec.batch_bytes), server.batch_completion
            ),
            faults=fleet.faults,
        )


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
    """The one front: the agent-facing façade over every campaign server.

    Duck-types the ``GridServer`` surface volunteer agents consume.  With
    N runtimes every work request walks the policy's preference ordering
    (quota-capped campaigns demoted behind everyone under quota) until a
    campaign hands out an instance; results route back by workunit-id
    namespace.  With one, agents record into its telemetry, and with no
    roster entry its server answers them.  Constructing it arms the
    roster's lifecycle on ``sim`` (a timer per mid-run ``submit_week``
    and ``drain_week``); a runtime with no roster entry is admitted at
    t=0, never drained, and gets no quota and no ``grid.*`` event.
    """

    def __init__(
        self,
        sim: Simulator,
        runtimes: list[CampaignRuntime],
        policy: "SchedulingPolicy | None" = None,
        grid_telemetry: Telemetry | None = None,
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
        self._lone = runtimes[0] if len(runtimes) == 1 else None
        self._roster = [rt for rt in runtimes if rt.campaign is not None]
        if self._lone is not None and not self._roster:
            # Nothing to admit, drain or announce: its server answers.
            self.request_work = self._lone.server.request_work
            self.on_result = self._lone.server.on_result
        elif policy is None or self._lone is None and (
            grid_telemetry is None or len(self._roster) < len(runtimes)
        ):
            raise ValueError(
                "a roster needs a policy, and with several campaigns a "
                "grid telemetry and a roster entry for each"
            )
        for rt in self._roster:
            rt.admitted = rt.campaign.submit_week == 0.0
        self._pending_admissions = sum(
            1 for rt in self._roster if not rt.admitted
        )
        for rt in self._roster:
            if rt.admitted and tracer is not None:
                tracer.emit(
                    "grid.admit", t_sim=0.0, campaign=rt.name,
                    n_workunits=rt.server.n_workunits,
                )
        for rt in self._roster:
            if not rt.admitted:
                sim.schedule_at(weeks(rt.campaign.submit_week), self.admit, rt)
            if rt.campaign.drain_week is not None:
                sim.schedule_at(
                    min(weeks(rt.campaign.drain_week), rt.telemetry.horizon_s),
                    self.drain, rt,
                )

    # -- fleet wiring ------------------------------------------------------

    def telemetry_for(self, host_id: int) -> "Telemetry | _AgentTelemetry":
        """What the agent of ``host_id`` records into."""
        if self._lone is not None:
            return self._lone.telemetry
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
        for rt in self.runtimes:
            if rt.admitted and not rt.settled:
                return False
        return True

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
        """Emit ``grid.complete`` for roster campaigns that just finished.

        Checked after result deliveries for *all* runtimes, because a
        deadline-driven terminal failure can complete a campaign from
        inside a DES timer without passing through the router.
        """
        if self.tracer is None:
            return
        for rt in self._roster:
            if rt.server.all_done and not rt._complete_emitted:
                rt._complete_emitted = True
                self.tracer.emit(
                    "grid.complete",
                    t_sim=self.sim.now,
                    campaign=rt.name,
                    validated=rt.server.n_validated,
                    failed=rt.server.stats.failed,
                )


def run_campaigns(
    fleet: FleetSpec,
    specs: Sequence[RuntimeSpec],
    *,
    policy: "SchedulingPolicy | None" = None,
    grid_telemetry: Telemetry | None = None,
    server_factory: Callable[..., GridServer] | None = None,
    tracer: Tracer | None = None,
    profiler: Profiler | None = None,
    health: "bool | HealthMonitor | None" = None,
    ledger: "bool | HostLedger | None" = None,
) -> tuple[FleetRun, list[CampaignResult]]:
    """The engine body: campaigns on one kernel, one fleet, one result each.

    Starts a :class:`CampaignRuntime` per spec (``server_factory`` swaps
    every server's class) on the kernel
    :func:`~repro.boinc.fleet.run_fleet` creates, fronts them with one
    :class:`CampaignRouter`, drives the fleet and turns every runtime
    back into a :class:`CampaignResult`.  A roster of several campaigns
    adds its ``policy`` and its ``grid_telemetry`` (where agents record
    before their first assignment).  Observers are forwarded here and
    nowhere else; their reports come back on the
    :class:`~repro.boinc.fleet.FleetRun`.
    """
    runtimes: list[CampaignRuntime] = []
    # A campaign alone or a shard has no profile row for its start.
    timed = (profiler if profiler is not None else Profiler()).timed
    roster = specs[0].campaign is not None

    def build_front(sim: Simulator, tracer: Tracer | None) -> CampaignRouter:
        with timed("setup.campaigns") if roster else nullcontext():
            runtimes.extend(
                CampaignRuntime(
                    sim, spec, fleet.horizon_s, tracer, server_factory, index
                )
                for index, spec in enumerate(specs)
            )
        return CampaignRouter(sim, runtimes, policy, grid_telemetry, tracer)

    run = run_fleet(
        fleet,
        build_front,
        tracer=tracer,
        profiler=profiler,
        health=health,
        ledger=ledger,
    )
    for rt in runtimes:
        # A wire proxy's trailing deadline timers fire remotely, once told
        # the horizon was reached (a GridServer's fired in the kernel).
        finalize = getattr(rt.server, "finalize_campaign", None)
        if finalize is not None:
            finalize(fleet.horizon_s)
    return run, [rt.result(fleet, run.n_hosts) for rt in runtimes]


class VolunteerGridSimulation:
    """A configurable volunteer-grid campaign.

    Everything that configures it is one :class:`CampaignConfig`::

        sim = VolunteerGridSimulation(library, cost_model, CampaignConfig(
            seed=7, faults=FaultPlan.from_spec("corrupt=0.1"),
        ))

    The fleet is the config's fleet fields resolved once into a
    :class:`~repro.boinc.fleet.FleetSpec` (``sim.fleet``); :meth:`run`
    hands it and the campaign's one :class:`RuntimeSpec` to
    :func:`run_campaigns`: no roster entry, so no policy, no ``grid.*``
    event and no ``campaign=`` stamp.
    """

    def __init__(
        self,
        library: ProteinLibrary,
        cost_model: CostModel,
        config: CampaignConfig | None = None,
        *,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        health: "bool | HealthMonitor | None" = None,
        ledger: "bool | HostLedger | None" = None,
    ) -> None:
        if config is None:
            config = CampaignConfig()
        #: the resolved campaign configuration (frozen)
        self.config = config
        self.library = library
        self.cost_model = cost_model
        #: structured event tracing for the DES/server/agents (opt-in)
        self.tracer = tracer
        #: per-callback and per-phase wall-time aggregation (opt-in)
        self.profiler = profiler
        #: streaming SLO/health monitor riding the trace stream (opt-in;
        #: ``True`` = a fresh default-threshold monitor per :meth:`run`)
        self.health = health or None
        #: streaming per-host behavioral ledger riding the trace stream
        #: (opt-in; ``True`` = a fresh ledger per :meth:`run`)
        self.ledger = ledger or None
        self.packaging = (
            config.packaging
            if config.packaging is not None
            else PackagingPolicy(target_hours=3.65)
        )
        self.scale = config.scale
        self.plan = WorkUnitPlan(cost_model, self.packaging)
        self.campaign = CampaignPlan(library, cost_model, policy=config.release_policy)
        #: who volunteers, when, and how they are accounted
        self.fleet = FleetSpec.resolve(config, self.campaign.total_work)
        self.server_config = resolve_server_config(
            config.server, config.faults, config.seed, self.fleet.horizon_s
        )

    # -- the fleet's fields, readable where they always were ----------------

    seed = property(lambda self: self.fleet.seed)
    horizon_s = property(lambda self: self.fleet.horizon_s)
    #: the fault-injection plan (empty = fault-free campaign)
    faults = property(lambda self: self.fleet.faults)
    share_schedule = property(lambda self: self.fleet.share_schedule)
    population = property(lambda self: self.fleet.population)
    accounting = property(lambda self: self.fleet.accounting)
    n_hosts_peak = property(lambda self: self.fleet.n_hosts_peak)

    @property
    def host_model(self) -> HostPopulationModel:
        return self.fleet.host_model

    @host_model.setter
    def host_model(self, model: HostPopulationModel) -> None:
        # Ablations swap the population after construction; the peak
        # fleet stays as sized for the configured one.
        self.fleet = replace(self.fleet, host_model=model)

    # -- campaign materialization -------------------------------------------

    def runtime_spec(self) -> RuntimeSpec:
        """This campaign as a :class:`CampaignRuntime` can start it;
        materializes the workunits."""
        return RuntimeSpec.cross_docking(
            self.campaign, self.plan, self.server_config, self.scale
        )

    # -- execution ----------------------------------------------------------

    def run(self, server_factory: Callable[..., GridServer] | None = None) -> CampaignResult:
        """Run the campaign to completion (or the horizon).

        With a :class:`~repro.boinc.sharding.ShardPlan` of more than one
        shard in the config, execution is delegated to
        :func:`repro.boinc.sharding.run_sharded` (the body below run on
        K release-order slices, folded losslessly); a plan of one shard —
        or none — runs the monolithic path below, bit-identical either way.

        ``server_factory`` swaps the in-process :class:`GridServer` for a
        stand-in with the same agent-facing surface — the wire-driven
        load-generator mode (:mod:`repro.service.loadgen`) injects a
        socket-backed proxy here.  The factory is called with the same
        keyword arguments as the ``GridServer`` constructor and may ignore
        the ones it does not need.
        """
        shards = self.config.shards
        if shards is not None and shards.n_shards > 1:
            if server_factory is not None:
                raise ValueError(
                    "server_factory is incompatible with a multi-shard plan; "
                    "run the load generator against a single-shard campaign"
                )
            return run_sharded(self)
        if server_factory is not None and self.health is not None:
            raise ValueError(
                "health monitoring needs the in-process server's event "
                "stream; run the wire-driven campaign without health="
            )
        if server_factory is not None and self.ledger is not None:
            raise ValueError(
                "the host ledger needs the in-process server's event "
                "stream; run the wire-driven campaign without ledger= "
                "(the scheduler service keeps its own, see GET /v1/hosts)"
            )
        profiler = self.profiler if self.profiler is not None else Profiler()
        with profiler.timed("setup.workunits"):
            spec = self.runtime_spec()
        run, (result,) = run_campaigns(
            self.fleet,
            [spec],
            server_factory=server_factory,
            tracer=self.tracer,
            profiler=self.profiler,
            health=self.health,
            ledger=self.ledger,
        )
        result.health, result.ledger = run.health, run.ledger
        return result


def scaled_phase1(
    scale: float = 200.0,
    n_proteins: int = 24,
    seed: int = constants.DEFAULT_SEED,
    target_hours: float = 3.65,
    horizon_weeks: float = 40.0,
    config: CampaignConfig | None = None,
    tracer: Tracer | None = None,
    profiler: Profiler | None = None,
    health: "bool | HealthMonitor | None" = None,
    ledger: "bool | HostLedger | None" = None,
    **kwargs,
) -> VolunteerGridSimulation:
    """A phase-I-like campaign shrunk by ``scale``.

    ``n_proteins`` proteins keep the phase-1 per-protein statistics; the
    per-protein position counts are divided by ``scale``; packaging uses
    the deployed ~3.3 h workunits.  The default configuration yields a few
    thousand workunits — minutes of simulation — while preserving the
    scale-free observables (redundancy, speed-down, useful fraction,
    three-phase shape).

    A :class:`CampaignConfig` passed as ``config=`` supplies the
    remaining knobs (fault plan, server policy, host model, ...); its
    ``scale``/``seed``/``horizon_weeks`` are overridden by this
    function's arguments, and its ``packaging`` only when unset.  Extra
    keyword arguments are :class:`CampaignConfig` field names
    (``accounting=``, ``server=``, ``n_hosts_peak=``, ``faults=``, ...)
    folded into the config; anything else is a ``TypeError``.
    ``tracer=Tracer.to_jsonl(path)`` records a structured campaign trace and
    ``profiler=Profiler()`` aggregates per-callback wall time (see
    docs/observability.md).

    This function is a thin adapter over the campaign-first API: the
    library and cost model come from
    :class:`repro.multi.CrossDockingWorkload` (the workload a
    ``Campaign.cross_docking(...)`` runs on a multi-campaign grid) and
    both entry points build with :meth:`RuntimeSpec.cross_docking`.
    """
    # Imported lazily: repro.multi.engine imports this module, so a
    # module-level import here would be circular.
    from ..multi.workloads import CrossDockingWorkload

    workload = CrossDockingWorkload(
        scale=scale, n_proteins=n_proteins, target_hours=target_hours
    )
    library, cost_model = workload.library_and_costs(seed)
    if config is None:
        config = CampaignConfig()
    if config.packaging is None:
        config = config.with_(packaging=PackagingPolicy(target_hours=target_hours))
    config = config.with_(horizon_weeks=horizon_weeks, scale=scale, seed=seed)
    if kwargs:
        config = config.with_(**kwargs)
    return VolunteerGridSimulation(
        library, cost_model, config,
        tracer=tracer, profiler=profiler, health=health, ledger=ledger,
    )
