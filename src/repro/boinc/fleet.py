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
* **who listens** — :func:`resolve_observers` (what ``health=True`` /
  ``ledger=True`` build for a run), :func:`tee_observers` (the run's
  tracer: health monitor and host ledger ride the trace stream through
  :class:`~repro.obs.FoldSink` tees on a tracer of the run's own, the
  caller's left as it was; a sharded run's parent tees the merged stream
  through the same tracer) and :func:`kernel_tracer` (the DES kernel
  emits per event only when its own channel is traced);
* **the run itself** — :func:`run_fleet`.

The object agents talk to — the *front* — is one
:class:`~repro.boinc.simulator.CampaignRouter` over the campaigns on the
kernel, built by the one engine body
(:func:`repro.boinc.simulator.run_campaigns`).  The front protocol is a
duck type, with no base class:

* what :class:`~repro.boinc.agent.VolunteerAgent` consumes —
  ``all_done``, ``request_work(host_id)``, ``on_result(instance, valid,
  accounted_cpu_s, quality=)`` and ``config.deadline_s``, answered by
  the servers behind it (a :class:`~repro.boinc.server.GridServer`, or
  the wire proxy a ``server_factory=`` injects);
* what :func:`run_fleet` reads — ``telemetry_for(host_id)`` (what each
  agent records into), ``n_workunits`` and ``config.max_reissues`` (they
  size the health monitor's reissue budget) and ``completion_time``
  (``None`` while anything is open; the observers finalize there, else
  at the horizon).
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
    "observer_channels",
    "resolve_observers",
    "observer_sink",
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


def observer_channels(health=None, ledger=None) -> set[str]:
    """The channels an observer-only tracer records for these observers
    (or None): those their events are on, plus ``health`` with a
    monitor, which emits on it."""
    views = [obs for obs in (health, ledger) if obs is not None]
    channels = {channel_of(etype) for obs in views for etype in obs.EVENTS}
    return channels | {"health"} if health is not None else channels


def resolve_observers(
    health: "bool | HealthMonitor | None", ledger: "bool | HostLedger | None"
) -> tuple[HealthMonitor | None, HostLedger | None]:
    """The observers of one run, every engine's.

    ``health=True`` / ``ledger=True`` build a default observer *for this
    run*, so running the same simulation twice reports the same thing
    twice; an instance the caller supplied stays theirs (and accumulates
    across runs, as they asked).  Only a monitor and a ledger both built
    for this run share one lifecycle table: a supplied observer's table
    carries its earlier runs.
    """
    if health is True and ledger is True:
        ledger = HostLedger()
        return HealthMonitor(table=ledger.table), ledger
    return (
        HealthMonitor() if health is True else health or None,
        HostLedger() if ledger is True else ledger or None,
    )


def observer_sink(
    sink, health: HealthMonitor | None = None, ledger: HostLedger | None = None
):
    """``sink`` teed into the observers' lifecycle tables: one
    :class:`~repro.obs.tracer.FoldSink` per distinct table, the health
    tee outermost."""
    observers = (obs for obs in (health, ledger) if obs is not None)
    for table in reversed(dict.fromkeys(obs.table for obs in observers)):
        sink = FoldSink(table, sink)
    return sink


def tee_observers(
    tracer: Tracer | None,
    health: HealthMonitor | None = None,
    ledger: HostLedger | None = None,
) -> Tracer | None:
    """The tracer a run emits through, its observers teed in.

    ``tracer`` is the caller's, or ``None`` for an untraced run.  Without
    observers this is the caller's tracer; with them, a tracer of the
    run's own whose sink is :func:`observer_sink` over the caller's sink,
    counting into the caller's ``counts`` and filtering on its channels
    — a filter that drops ``"host"`` starves the ledger of credit and
    trust events (documented in :mod:`repro.obs.ledger`).  Without a caller tracer the
    tees end in a ``NullSink`` and record :func:`observer_channels` only,
    so the DES kernel's high-rate events skip the emit path entirely.
    The caller's tracer is never changed: there is nothing to restore.
    """
    if health is None and ledger is None:
        return tracer
    if tracer is None:
        return Tracer(
            sink=observer_sink(NullSink(), health, ledger),
            channels=observer_channels(health, ledger),
        )
    teed = Tracer(
        sink=observer_sink(tracer.sink, health, ledger), channels=tracer.channels
    )
    teed.counts = tracer.counts
    return teed


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

    n_hosts: int
    health: SLOReport | None = None
    ledger: FleetReport | None = None


def run_fleet(
    spec: FleetSpec,
    build_front: Callable[[Simulator, Tracer | None], Any],
    *,
    tracer: Tracer | None = None,
    profiler: Profiler | None = None,
    health: "bool | HealthMonitor | None" = None,
    ledger: "bool | HostLedger | None" = None,
) -> FleetRun:
    """Recruit ``spec``'s fleet against a front and run it to the horizon.

    ``build_front(sim, tracer)`` builds the agent-facing front on the
    given DES kernel; ``tracer`` is the one to emit through
    (:func:`tee_observers`'s: the caller's, or a tracer of the run's own
    teed into the observers), and the health monitor emits its
    transitions through it too.  ``health`` and ``ledger`` resolve
    through :func:`resolve_observers`.
    """
    health, ledger = resolve_observers(health, ledger)
    tracer = tee_observers(tracer, health, ledger)
    if health is not None:
        health.bind(tracer)
    sim = Simulator(tracer=kernel_tracer(tracer), profiler=profiler)
    if profiler is None:
        profiler = Profiler()
    front = build_front(sim, tracer)
    if health is not None:
        health.configure_campaign(front.n_workunits, front.config.max_reissues)

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
                front.telemetry_for(host_id),
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

    run = FleetRun(n_hosts=len(agents))
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
