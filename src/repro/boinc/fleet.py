"""The one fleet driver: recruit → observe → drive.

The paper runs *one* volunteer fleet under a share schedule and lets the
server side vary.  This module is that fleet, once, for every engine:
the single-campaign :class:`~repro.boinc.simulator.VolunteerGridSimulation`,
each slice :func:`~repro.boinc.sharding.run_sharded` runs, the
multi-campaign :class:`~repro.multi.MultiGridSimulation` and (for the
observer wiring) the live :class:`~repro.service.SchedulerService` all
come here for

* **who joins and when** — :class:`FleetSpec`, the fleet knobs of a
  :class:`~repro.boinc.config.CampaignConfig` or a
  :class:`~repro.multi.GridConfig` resolved once to their calibrated
  defaults, with the peak-fleet auto-sizing and the share(t) x growth(t)
  arrival process;
* **what a fault plan changes on the server** —
  :func:`resolve_server_config`;
* **who listens** — :func:`tee_observers` (health monitor and host
  ledger riding the trace stream through :class:`~repro.obs.FoldSink`
  tees) and :func:`kernel_tracer` (the DES kernel emits per event only
  when its own channel is traced);
* **the run itself** — :func:`run_fleet`.

What varies between engines is only the *front*: the object agents talk
to, built by the one engine body
(:func:`repro.boinc.simulator.run_campaigns`).  The front protocol is a
duck type, with no base class:

* what :class:`~repro.boinc.agent.VolunteerAgent` consumes —
  ``all_done``, ``request_work(host_id)``, ``on_result(instance, valid,
  accounted_cpu_s, quality=)``, ``config.deadline_s`` and an optional
  ``finalize_campaign(horizon_s)`` (a wire proxy's final clock advance);
* what :func:`run_fleet` reads for the observers — ``n_workunits`` and
  ``config.max_reissues`` (they size the health monitor's reissue
  budget) and ``completion_time`` (``None`` while anything is open; the
  observers finalize there, else at the horizon).

It is served by a bare :class:`~repro.boinc.server.GridServer` (a
campaign alone: no scheduling policy to apply), by the wire proxy a
``server_factory=`` injects in its place, or by a
:class:`~repro.multi.engine.CampaignRouter` (a roster: all the
workunits, the loosest deadline and reissue budget on the grid, the
last completion).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .. import constants
from ..faults import FaultPlan
from ..grid.des import Simulator
from ..grid.host import HostPopulationModel
from ..grid.population import ShareSchedule, WCGPopulationModel, hcmd_share_schedule
from ..obs import FoldSink, HealthMonitor, HostLedger, NullSink, Profiler, Tracer
from ..obs.events import channel_of
from ..obs.health import SLOReport
from ..obs.ledger import FleetReport
from ..rng import substream
from ..units import SECONDS_PER_WEEK, weeks
from .agent import VolunteerAgent
from .credit import AccountingMode
from .server import ServerConfig
from .validator import ValidationPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..multi.campaign import GridConfig
    from .config import CampaignConfig

__all__ = [
    "FleetSpec",
    "FleetRun",
    "resolve_server_config",
    "tee_observers",
    "kernel_tracer",
    "run_fleet",
]


@dataclass(frozen=True)
class FleetSpec:
    """A volunteer fleet, fully resolved: no ``None`` left to default."""

    #: campaign seed (arrival, host and agent substreams derive from it)
    seed: int
    horizon_s: float
    host_model: HostPopulationModel
    share_schedule: ShareSchedule
    population: WCGPopulationModel
    #: phase I ran on the UD agent (wall-clock accounting); phase II on
    #: BOINC (``AccountingMode.BOINC_CPU_TIME``)
    accounting: AccountingMode
    faults: FaultPlan
    n_hosts_peak: int
    #: Shards number their hosts from disjoint id blocks: every
    #: host-keyed substream (behaviour, agent RNG, fault state) stays
    #: independent across the shards of one campaign.
    host_id_base: int = 0
    #: Shard k draws its fleet from its own arrival substream, so shards
    #: of one campaign never share or correlate their arrival processes
    #: (0 is the unsharded stream).
    arrival_stream: int = 0

    @classmethod
    def resolve(
        cls,
        config: "CampaignConfig | GridConfig",
        total_reference_s: float,
    ) -> "FleetSpec":
        """The fleet ``config`` describes, ``None`` fields defaulted.

        ``total_reference_s`` (all the work the fleet will be offered)
        sizes the peak fleet when the config leaves it open; a peak the
        config sets must be at least one host.
        """
        horizon_s = weeks(config.horizon_weeks)
        spec = cls(
            seed=config.seed,
            horizon_s=horizon_s,
            host_model=(
                config.host_model
                if config.host_model is not None
                else HostPopulationModel(seed=config.seed, horizon=horizon_s)
            ),
            share_schedule=(
                config.share_schedule
                if config.share_schedule is not None
                else hcmd_share_schedule()
            ),
            population=(
                config.population
                if config.population is not None
                else WCGPopulationModel.calibrated()
            ),
            accounting=(
                config.accounting
                if config.accounting is not None
                else AccountingMode.UD_WALL_CLOCK
            ),
            faults=config.faults,
            n_hosts_peak=0,
        )
        peak = config.n_hosts_peak
        if peak is None:
            peak = spec.auto_host_count(total_reference_s)
        elif peak < 1:
            raise ValueError(f"n_hosts_peak (--hosts-peak) must be >= 1, got {peak}")
        return replace(spec, n_hosts_peak=peak)

    def auto_host_count(self, total_reference_s: float) -> int:
        """Peak host count so ``total_reference_s`` lands in ~26 weeks.

        Weekly useful capacity of one peak-share host ~ (availability x
        week-seconds) / net-speed-down; the share schedule scales the host
        count per week.
        """
        profile = self.host_model.profile
        availability = profile.mean_on_hours / (
            profile.mean_on_hours + profile.mean_off_hours
        )
        net_speed_down = profile.expected_net_speed_down(n=20_000)
        weekly_capacity = availability * SECONDS_PER_WEEK / net_speed_down
        shares = np.asarray(
            self.share_schedule.share(np.arange(constants.PROJECT_DURATION_WEEKS) + 0.5)
        )
        share_weeks = float(shares.sum() / self.share_schedule.full_share)
        # Margin over the bare work: quorum/invalid redundancy (~1.3x),
        # checkpoint-kill losses, report/poll dead time, and the straggler
        # tail of the last batches (deadline-bound reissues).
        total = total_reference_s * 2.4
        return max(4, int(np.ceil(total / (weekly_capacity * share_weeks))))

    def arrival_times(self) -> np.ndarray:
        """Join times implementing share(t) x growth(t) host counts."""
        n_weeks = int(np.ceil(self.horizon_s / SECONDS_PER_WEEK))
        week_idx = np.arange(n_weeks, dtype=np.float64)
        shares = np.asarray(self.share_schedule.share(week_idx + 0.5))
        day0 = constants.WCG_LAUNCH_TO_HCMD_DAYS
        growth = np.asarray(
            self.population.trend(day0 + 7.0 * (week_idx + 0.5))
        )
        project_end_week = float(constants.PROJECT_DURATION_WEEKS)
        ref = self.share_schedule.full_share * float(
            self.population.trend(day0 + 7.0 * project_end_week)
        )
        target = np.maximum(
            1, np.round(self.n_hosts_peak * shares * growth / ref).astype(np.int64)
        )
        target = np.maximum.accumulate(target)  # hosts never leave
        arrivals: list[float] = []
        current = 0
        rng = substream(self.seed, "host-arrivals", self.arrival_stream)
        for w in range(n_weeks):
            new = int(target[w] - current)
            if new > 0:
                times = w * SECONDS_PER_WEEK + rng.random(new) * SECONDS_PER_WEEK
                arrivals.extend(float(t) for t in np.sort(times))
                current = int(target[w])
        return np.asarray(arrivals)


def resolve_server_config(
    server: ServerConfig | None, faults: FaultPlan, seed: int, horizon_s: float
) -> ServerConfig:
    """A campaign's server policy with the fault plan's overrides applied.

    ``None`` is the calibrated phase-I policy.  On a multi-campaign grid
    every campaign resolves against the same ``(faults, seed, horizon)``:
    one physical server farm, so an infrastructure outage hits every
    campaign's scheduler at the same wall times.
    """
    if server is None:
        # The value-range validation method replaced quorum comparison
        # mid-campaign; week 16 reproduces the overall 1.37 redundancy
        # factor for a 26-week campaign.
        server = ServerConfig(
            validation=ValidationPolicy(switch_time=weeks(16.0))
        )
    if not faults.enabled:
        return server
    overrides: dict[str, Any] = {}
    if faults.max_reissues is not None:
        overrides["max_reissues"] = faults.max_reissues
    if faults.outages is not None:
        overrides["outages"] = faults.outage_windows(seed, horizon_s)
    return replace(server, **overrides) if overrides else server


def tee_observers(
    tracer: Tracer | None,
    health: HealthMonitor | None = None,
    ledger: HostLedger | None = None,
) -> tuple[Tracer | None, Any]:
    """Tee the trace stream into the observers' lifecycle tables.

    Returns ``(tracer, restore_sink)``: the tracer every emitter should
    use, and the caller's original sink to put back on it when the run
    ends (``None`` when there is nothing to restore).  The caller owns
    the restore — in a ``finally``, the tracer outlives the run.

    Each distinct table gets one :class:`~repro.obs.tracer.FoldSink`, the
    health tee outermost.  Without a user-supplied tracer, build an
    observer-only one: events feed the tables and are then discarded
    (``NullSink``), restricted to the channels the observers read (plus
    ``health``, which the monitor emits on) so the DES kernel's
    high-rate events skip the emit path entirely.  With a user tracer,
    the tee inherits its channel filter — a filter that drops ``"host"``
    starves the ledger of credit and trust events (documented in
    :mod:`repro.obs.ledger`).
    """
    observers = [obs for obs in (health, ledger) if obs is not None]
    if not observers:
        return tracer, None
    restore_sink = None
    if tracer is None:
        channels = {channel_of(etype) for obs in observers for etype in obs.EVENTS}
        if health is not None:
            channels.add("health")
        tracer = Tracer(sink=NullSink(), channels=channels)
    else:
        restore_sink = tracer.sink
    for table in reversed(dict.fromkeys(obs.table for obs in observers)):
        tracer.sink = FoldSink(table, tracer.sink)
    if health is not None:
        health.bind(tracer)
    return tracer, restore_sink


def kernel_tracer(tracer: Tracer | None) -> Tracer | None:
    """The tracer the DES kernel itself should hold.

    A tracer whose channel filter excludes ``des`` would drop every
    kernel event anyway (they are all ``des.*``), yet the kernel would
    still pay an ``emit`` call per scheduled, fired and discarded event
    to find that out.  Hand the kernel ``None`` instead, so its dispatch
    loop pays only its ``is None`` check.
    """
    if (
        tracer is not None
        and tracer.channels is not None
        and "des" not in tracer.channels
    ):
        return None
    return tracer


@dataclass
class FleetRun:
    """What :func:`run_fleet` hands back to the engine that called it."""

    #: whatever ``build_front`` returned
    front: Any
    n_hosts: int
    health: SLOReport | None = None
    ledger: FleetReport | None = None


def run_fleet(
    spec: FleetSpec,
    build_front: Callable[[Simulator, Tracer | None], Any],
    *,
    telemetry_for: Callable[[int], Any],
    tracer: Tracer | None = None,
    profiler: Profiler | None = None,
    health: "bool | HealthMonitor | None" = None,
    ledger: "bool | HostLedger | None" = None,
) -> FleetRun:
    """Recruit ``spec``'s fleet against a front and run it to the horizon.

    ``build_front(sim, tracer)`` builds the agent-facing front on the
    given DES kernel; ``tracer`` is the one to emit through (the caller's,
    teed into the observers, or an observer-only one).
    ``telemetry_for(host_id)`` is the telemetry object that host's agent
    records into.  ``health=True`` / ``ledger=True`` build a default
    observer *for this run*, so running the same simulation twice reports
    the same thing twice; an instance the caller supplied stays theirs
    (and accumulates across runs, as they asked).  Only a monitor and a
    ledger both built for this run share one lifecycle table: a supplied
    observer's table carries its earlier runs.  Whatever happens, the
    caller's tracer gets its own sink back.
    """
    if health is True and ledger is True:
        ledger = HostLedger()
        health = HealthMonitor(table=ledger.table)
    health = HealthMonitor() if health is True else health or None
    ledger = HostLedger() if ledger is True else ledger or None
    tracer, restore_sink = tee_observers(tracer, health, ledger)
    try:
        sim = Simulator(tracer=kernel_tracer(tracer), profiler=profiler)
        if profiler is None:
            profiler = Profiler()
        front = build_front(sim, tracer)
        if health is not None:
            health.configure_campaign(
                front.n_workunits, front.config.max_reissues
            )

        with profiler.timed("setup.hosts"):
            agents: list[VolunteerAgent] = []
            starts: list[tuple[float, Callable[[], None]]] = []
            for idx, join_t in enumerate(spec.arrival_times()):
                host_id = spec.host_id_base + idx
                agent = VolunteerAgent(
                    sim,
                    front,
                    spec.host_model.spec(
                        host_id,
                        join_time=float(join_t),
                        faults=spec.faults.host_state(spec.seed, host_id),
                    ),
                    telemetry_for(host_id),
                    rng=substream(spec.seed, "agent", host_id),
                    accounting=spec.accounting,
                    tracer=tracer,
                )
                agents.append(agent)
                starts.append((float(join_t), agent.start))
            # Arrival times are generated sorted, so the batch load takes
            # the append-only path (no per-event heap sift-up).
            sim.schedule_batch_at(starts)

        with profiler.timed("des.run"):
            sim.run(until=spec.horizon_s)

        # A wire-backed server proxy needs a final clock advance on the
        # *remote* side: trailing deadline timers there fire only when told
        # the campaign horizon was reached (the in-process GridServer has
        # no such hook — its timers live in `sim` and already fired).
        finalize = getattr(front, "finalize_campaign", None)
        if finalize is not None:
            finalize(spec.horizon_s)

        run = FleetRun(front=front, n_hosts=len(agents))
        if health is not None or ledger is not None:
            t_final = (
                front.completion_time
                if front.completion_time is not None
                else spec.horizon_s
            )
            if health is not None:
                run.health = health.finalize(t_final)
            if ledger is not None:
                run.ledger = ledger.finalize(t_final)
        return run
    finally:
        if restore_sink is not None:
            tracer.sink = restore_sink
