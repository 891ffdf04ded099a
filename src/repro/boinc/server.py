"""Grid server: workunit database, scheduling, deadlines, reissue.

The server owns the campaign's workunits, released receptor batch by
receptor batch in least-cost-first order (Section 5.1).  Per workunit it
tracks issued instances, applies the validation policy on incoming results,
reissues after deadline misses or invalid results, and fires callbacks when
workunits and receptor batches complete.

Fault tolerance: outage windows (``ServerConfig.outages``) make the
server refuse ``request_work``/``on_result`` RPCs — agents back off and
retry — and a bounded reissue budget (``ServerConfig.max_reissues``)
turns a workunit that keeps failing into a terminal ``failed`` state so a
degraded campaign completes (with an error budget,
:class:`repro.faults.FaultReport`) instead of hanging.  Sabotaged
(plausible-but-wrong) results pass the value-range check and are only
exposed when a quorum partner disagrees; see :mod:`repro.faults`.

Observability: pass ``tracer=`` to record the server-channel events
(``server.release`` / ``issue`` / ``reissue`` / ``result`` / ``validate``
/ ``refuse`` / ``workunit_failed`` / ``batch_complete`` /
``campaign_complete``) plus ``fault.outage`` boundaries — see
docs/observability.md for the taxonomy and field meanings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Tracer

from ..core.workunit import WorkUnit
from ..faults import ResultQuality, ServerUnavailable
from ..grid.des import Event, Simulator
from ..units import days
from .validator import AdaptiveReplication, ValidationPolicy, ValidationStats

__all__ = ["ServerConfig", "Instance", "GridServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Server-side policy knobs."""

    #: instance deadline: unreported copies are reissued after this long
    deadline_s: float = days(10.0)
    #: validation regime switch
    validation: ValidationPolicy = field(
        default_factory=lambda: ValidationPolicy(switch_time=days(7 * 12))
    )
    #: BOINC-style adaptive replication (None = phase-I fixed policy); only
    #: its two numbers are read — the streaks are ``GridServer.adaptive``'s
    adaptive: AdaptiveReplication | None = None
    #: reissues allowed per workunit before it is terminally failed
    #: (None = unbounded, the phase-I behaviour)
    max_reissues: int | None = None
    #: outage windows ``(start, end)`` during which every RPC is refused
    #: (normally derived from :meth:`repro.faults.FaultPlan.outage_windows`)
    outages: tuple[tuple[float, float], ...] = ()


@dataclass
class Instance:
    """One issued copy of a workunit."""

    wu: WorkUnit
    host_id: int
    issued_at: float
    #: per-workunit issue ordinal (0 for the first copy ever issued); the
    #: span reconstructor uses it to tell copies of one workunit apart
    copy: int = 0
    timeout_event: Event | None = None
    reported: bool = False
    #: the deadline passed before the report arrived (the copy was already
    #: reclaimed and reissued; a late report must not re-credit it)
    timed_out: bool = False

    def cancel_timeout(self) -> None:
        if self.timeout_event is not None:
            self.timeout_event.cancel()
            self.timeout_event = None


class _WorkunitState:
    """Server-side bookkeeping for one workunit."""

    __slots__ = (
        "wu", "batch", "n_valid", "n_valid_bad", "done", "failed",
        "outstanding", "trusted_single", "reissues", "issues",
    )

    def __init__(self, wu: WorkUnit, batch: int) -> None:
        self.wu = wu
        self.batch = batch
        self.n_valid = 0
        #: plausible-but-wrong (sabotaged) results that passed the checks
        self.n_valid_bad = 0
        self.done = False
        self.failed = False  #: terminally failed (reissue budget exhausted)
        self.outstanding = 0  #: live (unreported, un-timed-out) instances
        #: adaptive replication issued this workunit as a single trusted copy
        self.trusted_single = False
        self.reissues = 0  #: times this workunit re-entered the issue queue
        self.issues = 0  #: copies issued so far (the instance `copy` ordinal)


class GridServer:
    """The workunit database and scheduler.

    ``workunits`` must arrive in release order with their receptor-batch
    index; batches complete when every one of their workunits is validated
    (that is when results ship to the storage server in France).

    ``id_base`` is the global id of the first workunit: a campaign shard
    serves a contiguous id range ``[id_base, id_base + len(workunits))``
    while keeping the campaign-global numbering, so merged traces and
    span trees stay collision-free across shards.
    """

    def __init__(
        self,
        sim: Simulator,
        workunits: list[tuple[WorkUnit, int]],
        config: ServerConfig | None = None,
        on_workunit_valid: Callable[[WorkUnit, float], None] | None = None,
        on_batch_complete: Callable[[int, float], None] | None = None,
        tracer: "Tracer | None" = None,
        id_base: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else ServerConfig()
        self.stats = ValidationStats()
        policy = self.config.adaptive
        #: this run's trust table, built from the policy's two numbers:
        #: streaks are run state, so a config reused across runs, shards
        #: or campaigns starts clean (None = fixed replication)
        self.adaptive = policy and AdaptiveReplication(
            policy.trust_after, policy.spot_check_rate
        )
        self.tracer = tracer
        self._on_workunit_valid = on_workunit_valid
        self._on_batch_complete = on_batch_complete
        self._id_base = id_base

        self._states: list[_WorkunitState] = [
            _WorkunitState(wu, batch) for wu, batch in workunits
        ]
        for pos, state in enumerate(self._states):
            if state.wu.wu_id != id_base + pos:
                raise ValueError(
                    "workunit ids must equal their release position "
                    f"(got id {state.wu.wu_id} at position {id_base + pos})"
                )
        self._fresh = 0  #: index of the next never-issued workunit
        self._reissue: deque[_WorkunitState] = deque()
        self._batch_remaining: dict[int, int] = {}
        for state in self._states:
            self._batch_remaining[state.batch] = (
                self._batch_remaining.get(state.batch, 0) + 1
            )
        self.completion_time: float | None = None
        self.batch_completion: dict[int, float] = {}

        # Outage windows: boundary callbacks flip the _down flag at the
        # exact window edges (so refusals and the fault.outage trace
        # events carry true boundary times).  No windows -> no events.
        self._down = False
        self._down_until = 0.0
        for start, end in self.config.outages:
            sim.schedule_at(start, self._outage_begin, end)
            sim.schedule_at(end, self._outage_end)

    # -- outages -----------------------------------------------------------

    def _outage_begin(self, until: float) -> None:
        self._down = True
        self._down_until = until
        if self.tracer is not None:
            self.tracer.emit(
                "fault.outage", t_sim=self.sim.now, phase="begin", until=until,
            )

    def _outage_end(self) -> None:
        self._down = False
        if self.tracer is not None:
            self.tracer.emit("fault.outage", t_sim=self.sim.now, phase="end")

    def _refuse(self, op: str, host_id: int) -> None:
        """Refuse an RPC mid-outage: count, trace, raise."""
        self.stats.refused_rpcs += 1
        if self.tracer is not None:
            self.tracer.emit(
                "server.refuse", t_sim=self.sim.now, op=op, host=host_id,
                until=self._down_until,
            )
        raise ServerUnavailable(self._down_until)

    # -- scheduling --------------------------------------------------------

    @property
    def n_workunits(self) -> int:
        return len(self._states)

    @property
    def n_validated(self) -> int:
        return self.stats.effective

    @property
    def all_done(self) -> bool:
        return self.completion_time is not None

    def request_work(self, host_id: int) -> Instance | None:
        """Hand one workunit instance to a requesting agent.

        Reissues take priority over fresh work (a timed-out workunit blocks
        its receptor batch); fresh workunits go out in release order, with
        the initial replication the validation policy demands — unless
        adaptive replication trusts the requesting host, in which case a
        single copy suffices.

        Raises :class:`repro.faults.ServerUnavailable` inside an outage
        window (callers back off and retry; ``None`` still means "up, but
        no work left").
        """
        if self._down:
            self._refuse("request_work", host_id)
        state = self._next_state(host_id)
        if state is None:
            return None
        instance = Instance(
            wu=state.wu, host_id=host_id, issued_at=self.sim.now,
            copy=state.issues,
        )
        state.issues += 1
        state.outstanding += 1
        # Deadline timers share one fixed delay and are cancelled on report
        # in the vast majority of cases, so they go to the kernel's FIFO
        # timer lane instead of churning the main heap as tombstones.
        instance.timeout_event = self.sim.schedule_timer(
            self.config.deadline_s, self._on_timeout, state, instance
        )
        if self.tracer is not None:
            self.tracer.emit(
                "server.issue", t_sim=self.sim.now,
                wu=state.wu.wu_id, host=host_id, batch=state.batch,
                copy=instance.copy,
            )
        return instance

    def _next_state(self, host_id: int) -> _WorkunitState | None:
        while self._reissue:
            state = self._reissue[0]
            if state.done:
                self._reissue.popleft()
                continue
            return self._reissue.popleft()
        while self._fresh < len(self._states):
            state = self._states[self._fresh]
            if state.done:
                self._fresh += 1
                continue
            # Initial replication: queue the extra copies for the next
            # requesters, advance past this workunit.
            replication = self.config.validation.replication_at(self.sim.now)
            adaptive = self.adaptive
            if replication > 1 and adaptive is not None:
                if not adaptive.needs_partner(host_id):
                    replication = 1
                    state.trusted_single = True
                elif self.tracer is not None and adaptive.is_trusted(host_id):
                    # A trusted host drew its deterministic spot check:
                    # the quorum partner stays despite the trust streak.
                    self.tracer.emit(
                        "host.spot_check", t_sim=self.sim.now,
                        host=host_id, wu=state.wu.wu_id,
                    )
            for _ in range(replication - 1):
                self._reissue.append(state)
            self._fresh += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "server.release", t_sim=self.sim.now,
                    wu=state.wu.wu_id, batch=state.batch,
                    replication=replication,
                    receptor=state.wu.receptor, ligand=state.wu.ligand,
                )
            return state
        return None

    def _on_timeout(self, state: _WorkunitState, instance: Instance) -> None:
        """Deadline passed without a report: reclaim and reissue."""
        if instance.reported:
            return
        instance.timeout_event = None
        instance.timed_out = True
        state.outstanding -= 1
        if not state.done:
            self._requeue(state, instance.host_id, "deadline")

    def _requeue(self, state: _WorkunitState, host_id: int, reason: str) -> None:
        """Re-enter the issue queue — or terminally fail the workunit once
        its reissue budget (``ServerConfig.max_reissues``) is exhausted."""
        state.reissues += 1
        max_reissues = self.config.max_reissues
        if max_reissues is not None and state.reissues > max_reissues:
            self._fail(state, reason)
            return
        self._reissue.append(state)
        if self.tracer is not None:
            self.tracer.emit(
                "server.reissue", t_sim=self.sim.now,
                wu=state.wu.wu_id, host=host_id, reason=reason,
            )

    def _fail(self, state: _WorkunitState, reason: str) -> None:
        """Terminal failure: close the workunit so the campaign degrades
        gracefully (completes with an error budget) instead of hanging."""
        state.done = True
        state.failed = True
        self.stats.failed += 1
        if self.tracer is not None:
            self.tracer.emit(
                "server.workunit_failed", t_sim=self.sim.now,
                wu=state.wu.wu_id, batch=state.batch,
                reissues=state.reissues, reason=reason,
            )
        self._check_campaign_complete()

    # -- results -----------------------------------------------------------

    def on_result(
        self,
        instance: Instance,
        valid: bool,
        accounted_cpu_s: float,
        quality: "ResultQuality | None" = None,
    ) -> None:
        """An agent reports a result (possibly after its deadline).

        ``quality`` is the fault-injection ground truth: ``None`` derives
        it from ``valid`` (the fault-free path).  ``ERRONEOUS`` results
        fail the range check and are rejected; ``SABOTAGED`` results pass
        it and are only caught when a quorum partner disagrees.

        Raises :class:`repro.faults.ServerUnavailable` inside an outage
        window — nothing is recorded, the agent retries later.
        """
        if self._down:
            self._refuse("on_result", instance.host_id)
        if instance.reported:
            raise RuntimeError("instance reported twice")
        if quality is None:
            quality = ResultQuality.OK if valid else ResultQuality.ERRONEOUS
        valid = quality is not ResultQuality.ERRONEOUS
        instance.reported = True
        instance.cancel_timeout()
        state = self._state_of(instance.wu)
        if not instance.timed_out:
            # A timed-out copy already gave its outstanding slot back when
            # the deadline reclaimed it; decrementing again would wrongly
            # zero the count while a reissued copy is still computing (and
            # trigger a spurious quorum-stall reissue).
            state.outstanding = max(0, state.outstanding - 1)
        self.stats.record_result(accounted_cpu_s)
        if self.tracer is not None:
            self.tracer.emit(
                "server.result", t_sim=self.sim.now,
                wu=state.wu.wu_id, host=instance.host_id, valid=valid,
                late=state.done, accounted_cpu_s=accounted_cpu_s,
                copy=instance.copy,
            )

        adaptive = self.adaptive
        if state.done:
            self.stats.late += 1
            return
        if not valid:
            self.stats.invalid += 1
            if adaptive is not None:
                if self.tracer is not None and adaptive.is_trusted(
                    instance.host_id
                ):
                    self.tracer.emit(
                        "host.demoted", t_sim=self.sim.now,
                        host=instance.host_id,
                        streak=adaptive.streak(instance.host_id),
                    )
                adaptive.record_invalid(instance.host_id)
            self._requeue(state, instance.host_id, "invalid")
            return

        # The result *looks* valid to the server (OK, or plausible-but-
        # wrong sabotage that the range check cannot catch).
        if adaptive is not None:
            adaptive.record_valid(instance.host_id)
            if (
                self.tracer is not None
                and adaptive.streak(instance.host_id) == adaptive.trust_after
            ):
                self.tracer.emit(
                    "host.trusted", t_sim=self.sim.now,
                    host=instance.host_id, streak=adaptive.trust_after,
                )
        quorum = self.config.validation.quorum_at(self.sim.now)
        if state.trusted_single:
            quorum = 1
        if quality is ResultQuality.SABOTAGED:
            state.n_valid_bad += 1
        else:
            state.n_valid += 1
        if state.n_valid >= quorum:
            if state.trusted_single:
                regime = "adaptive"
            else:
                regime = "quorum" if quorum >= 2 else "bounds"
            self.stats.quorum_extra += state.n_valid + state.n_valid_bad - 1
            # Sabotaged copies that lost the comparison were caught.
            self.stats.sabotage_caught += state.n_valid_bad
            self._validate(state, regime, host=instance.host_id)
        elif state.n_valid_bad >= quorum:
            # Wrong-but-agreeing results met the quorum (or a single
            # sabotaged result passed the bounds check / adaptive trust):
            # the workunit validates with bad science.  FaultReport
            # surfaces these in the error budget.
            if state.trusted_single:
                regime = "adaptive"
            else:
                regime = "quorum" if quorum >= 2 else "bounds"
            self.stats.quorum_extra += state.n_valid + state.n_valid_bad - 1
            self._validate(state, regime, tainted=True, host=instance.host_id)
        elif state.outstanding == 0:
            # Waiting for a quorum partner nobody is computing: reissue.
            self._requeue(state, instance.host_id, "quorum-stall")

    def _state_of(self, wu: WorkUnit) -> _WorkunitState:
        state = self._states[wu.wu_id - self._id_base]
        if state.wu.wu_id != wu.wu_id:
            raise KeyError(f"unknown workunit {wu.wu_id}")
        return state

    def _validate(
        self,
        state: _WorkunitState,
        regime: str,
        tainted: bool = False,
        host: int | None = None,
    ) -> None:
        state.done = True
        self.stats.record_validation(state.wu.cost_reference_s, regime)
        if tainted:
            self.stats.bad_validated += 1
        if self.tracer is not None:
            # `host` correlates the validation with the reporting host whose
            # result closed the quorum (the span reconstructor's terminal
            # lifecycle edge).
            if tainted:
                self.tracer.emit(
                    "server.validate", t_sim=self.sim.now,
                    wu=state.wu.wu_id, batch=state.batch, regime=regime,
                    tainted=True, host=host,
                )
            else:
                self.tracer.emit(
                    "server.validate", t_sim=self.sim.now,
                    wu=state.wu.wu_id, batch=state.batch, regime=regime,
                    host=host,
                )
        if self._on_workunit_valid is not None:
            self._on_workunit_valid(state.wu, self.sim.now)
        self._batch_remaining[state.batch] -= 1
        if self._batch_remaining[state.batch] == 0:
            self.batch_completion[state.batch] = self.sim.now
            if self.tracer is not None:
                self.tracer.emit(
                    "server.batch_complete", t_sim=self.sim.now,
                    batch=state.batch,
                )
            if self._on_batch_complete is not None:
                self._on_batch_complete(state.batch, self.sim.now)
        self._check_campaign_complete()

    def _check_campaign_complete(self) -> None:
        """Close the campaign once every workunit is validated or failed."""
        if self.stats.effective + self.stats.failed == len(self._states):
            self.completion_time = self.sim.now
            if self.tracer is not None:
                self.tracer.emit(
                    "server.campaign_complete", t_sim=self.sim.now,
                    n_workunits=len(self._states),
                )
