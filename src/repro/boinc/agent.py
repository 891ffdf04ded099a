"""The volunteer agent state machine.

"The agent connects to the server to get new workunit, then it launches the
program [...].  After the computing work is finished, the computing device
sends back the result [...] and asks for an another workunit." (Section 3.1)

Behaviour modeled per the paper:

* computation only progresses while the host's availability trace is on,
  at the host's ``progress_rate`` (speed x duty cycle);
* every availability interruption may be a clean suspend (in-memory state
  kept) or a kill — after a kill, progress rolls back to the last
  checkpoint, i.e. the last completed starting position (Section 4.3).
  The trace is precomputed: an interruption is a lookup, not a DES event
  (a traced run schedules ``_checkpoint_seen`` to emit its checkpoint);
* finished results are reported after a reconnection delay; the accounted
  run time is the *active wall-clock* time, reproducing the UD agent's
  accounting bias (Section 6);
* a fetched workunit may be silently abandoned (host never reconnects);
  the server's deadline reclaims it;
* an idle agent with no work available polls again a few hours later.

Fault tolerance (active only when the host spec carries a
:class:`repro.faults.HostFaultState`): injected crashes roll progress
back to the last checkpoint and reboot after a delay; corrupted or
sabotaged results are labelled with their ground-truth
:class:`~repro.faults.ResultQuality`; refused RPCs (server outages) and
lost report uploads are retried with exponential backoff and jitter.
Every retry hop is a named bound method (``_report`` reschedules itself,
fetches go back through ``_when_available``), so traces and profiles stay
attributable.  All fault randomness draws from the host's dedicated fault
stream, never from ``self.rng`` — a fault-free campaign is bit-identical
with or without the machinery.

Observability: pass ``tracer=`` to record the agent-channel events
(``agent.fetch`` / ``idle`` / ``abandon`` / ``checkpoint`` / ``complete``
/ ``report`` / ``retry``) plus the injected ``fault.*`` events — see
docs/observability.md.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..faults import ResultQuality, ServerUnavailable
from ..grid.des import Simulator
from ..grid.host import HostSpec
from ..units import SECONDS_PER_HOUR
from .credit import (
    AccountingMode,
    HostBenchmark,
    accounted_seconds,
    claimed_credit,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Tracer
    from .server import GridServer, Instance
    from .simulator import Telemetry

__all__ = [
    "VolunteerAgent",
    "KILL_PROBABILITY",
    "WORK_POLL_HOURS",
    "RETRY_BASE_S",
    "RETRY_MAX_EXPONENT",
]

#: Probability that an availability interruption kills the process (losing
#: progress back to the last starting-position checkpoint) instead of
#: cleanly suspending it.
KILL_PROBABILITY = 0.30

#: Idle agents retry the server after this many hours without work.
WORK_POLL_HOURS = 8.0

#: Lognormal sigma of the per-host benchmark measurement bias (how far the
#: agent's Whetstone-style benchmark drifts from application throughput).
BENCHMARK_BIAS_SIGMA = 0.05

#: First retry backoff after a refused/lost RPC (seconds); successive
#: attempts double it, with uniform jitter in [0.5x, 1.5x).
RETRY_BASE_S = 600.0

#: Backoff doubling stops at this exponent (2**8 * 600 s ~ 1.8 days), so
#: retries keep probing a long outage instead of receding forever.
RETRY_MAX_EXPONENT = 8


class VolunteerAgent:
    """One volunteer device's agent."""

    def __init__(
        self,
        sim: Simulator,
        server: "GridServer",
        spec: HostSpec,
        telemetry: "Telemetry",
        rng: np.random.Generator,
        accounting: AccountingMode = AccountingMode.UD_WALL_CLOCK,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.sim = sim
        self.server = server
        self.spec = spec
        self.telemetry = telemetry
        self.rng = rng
        self.accounting = accounting
        self.tracer = tracer
        self.benchmark = HostBenchmark(
            host_speed=spec.speed,
            measurement_bias=float(np.exp(rng.normal(0.0, BENCHMARK_BIAS_SIGMA))),
        )
        self.instance: "Instance | None" = None
        # progress state for the current workunit (reference seconds)
        self._cost = 0.0
        self._chunk = 0.0  #: checkpoint granularity = one starting position
        self._done = 0.0  #: committed + in-memory progress
        self._checkpointed = 0.0  #: progress safe on disk
        self._active_s = 0.0  #: accounted active wall-clock so far
        self._fetch_attempt = 0  #: consecutive refused work requests
        self.results_returned = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin operating (called at the host's project-join time)."""
        self._when_available(self._fetch_work)

    def _when_available(self, action) -> None:
        """Run ``action`` now if the host is available, else at the next
        availability start (agents only act while the device computes).

        The continuation is this bound method itself with ``action`` as
        the scheduled argument — not a closure — so each hop is
        allocation-free and ``des.fire`` / the profiler attribute the
        wait to ``VolunteerAgent._when_available`` instead of a
        ``<lambda>``.
        """
        t = self.sim.now
        if self.spec.trace.is_available(t):
            action()
            return
        nxt = self.spec.trace.next_transition(t)
        if nxt is not None:
            self.sim.schedule_at(nxt, self._when_available, action)
        # else: the host never computes again; it falls silent.

    # -- work fetching -----------------------------------------------------

    def _fetch_work(self) -> None:
        if self.server.all_done:
            return
        try:
            instance = self.server.request_work(self.spec.host_id)
        except ServerUnavailable:
            attempt = self._fetch_attempt
            self._fetch_attempt += 1
            self._backoff_retry(
                "refused", attempt, self._when_available, self._fetch_work
            )
            return
        self._fetch_attempt = 0
        if instance is None:
            poll = float(self.rng.exponential(WORK_POLL_HOURS * SECONDS_PER_HOUR))
            if self.tracer is not None:
                self.tracer.emit(
                    "agent.idle", t_sim=self.sim.now,
                    host=self.spec.host_id, poll_s=max(poll, 600.0),
                )
            self.sim.schedule(max(poll, 600.0), self._when_available, self._fetch_work)
            return
        self.instance = instance
        wu = instance.wu
        self._cost = wu.cost_reference_s
        self._chunk = wu.cost_reference_s / wu.nsep
        self._done = 0.0
        self._checkpointed = 0.0
        self._active_s = 0.0
        if self.tracer is not None:
            self.tracer.emit(
                "agent.fetch", t_sim=self.sim.now,
                host=self.spec.host_id, wu=wu.wu_id, copy=instance.copy,
            )
        if self.rng.random() < self.spec.abandon_prob:
            # Volunteer walks away; the deadline will reclaim the copy and
            # this agent only comes back after it has passed.
            self.instance = None
            if self.tracer is not None:
                self.tracer.emit(
                    "agent.abandon", t_sim=self.sim.now,
                    host=self.spec.host_id, wu=wu.wu_id,
                )
            self.sim.schedule(
                self.server.config.deadline_s * 1.5,
                self._when_available, self._fetch_work,
            )
            return
        self._compute_step()

    # -- computing ---------------------------------------------------------

    def _compute_step(self) -> None:
        """Crunch to the workunit's end, walking the precomputed trace: a
        gap is applied inline, then one event (completion or injected
        crash) follows, or none if the host never computes again.
        """
        t = self.sim.now
        trace = self.spec.trace
        rate = self.spec.progress_rate
        while t is not None:  # None: the host never computes again
            if not trace.is_available(t):
                t = trace.next_transition(t)
                continue
            interval_end = trace.next_transition(t)
            # Float accumulation over interruptions can push _done a few ulp
            # past _cost; a negative residual would schedule into the past.
            needed_s = max(0.0, (self._cost - self._done) / rate)
            if interval_end is None or t + needed_s <= interval_end:
                if not self._maybe_crash(needed_s, t):
                    self.sim.schedule_at(t + needed_s, self._complete)
                return
            span = interval_end - t
            if self._maybe_crash(span, t):
                return
            # Suspend, or kill: progress since the last checkpoint (the last
            # starting-position boundary) is lost.
            self._active_s += span
            self._done += span * rate
            self._checkpointed = math.floor(self._done / self._chunk) * self._chunk
            killed = bool(self.rng.random() < KILL_PROBABILITY)
            lost_s = self._done - self._checkpointed if killed else 0.0
            if killed:
                self._done = self._checkpointed
            if self.tracer is not None:
                self.sim.schedule_at(interval_end, self._checkpoint_seen,
                                     killed, lost_s, self._done / self._cost)
            t = interval_end

    def _checkpoint_seen(self, killed: bool, lost_s: float, done: float) -> None:
        """Emit an interruption's ``agent.checkpoint`` at its instant."""
        self.tracer.emit(
            "agent.checkpoint", t_sim=self.sim.now, host=self.spec.host_id,
            wu=self.instance.wu.wu_id, killed=killed,
            lost_reference_s=lost_s, done_fraction=done,
        )

    def _maybe_crash(self, span: float, t: float) -> bool:
        """Inject a crash inside the ``span`` active seconds from ``t``, maybe.

        Draws the time-to-crash from the host's dedicated fault stream
        (exponential around the crash MTBF; the hazard accrues only over
        active compute time, which is exactly what ``span`` covers).
        Returns True when a crash was scheduled instead of the normal
        continuation.  No-op — and no draw — on fault-free hosts.
        """
        f = self.spec.faults
        if f is None or f.crash_mtbf_s is None or span <= 0.0:
            return False
        crash_in = float(f.rng.exponential(f.crash_mtbf_s))
        if crash_in >= span:
            return False
        self.sim.schedule_at(t + crash_in, self._fault_crash, crash_in)
        return True

    def _fault_crash(self, active_span: float) -> None:
        """An injected crash: lose in-memory progress, reboot, resume."""
        self._active_s += active_span
        self._done += active_span * self.spec.progress_rate
        self._checkpointed = math.floor(self._done / self._chunk) * self._chunk
        lost_s = self._done - self._checkpointed
        self._done = self._checkpointed
        f = self.spec.faults
        self.telemetry.record_fault("crashes")
        if self.tracer is not None:
            instance = self.instance
            self.tracer.emit(
                "fault.crash", t_sim=self.sim.now,
                host=self.spec.host_id,
                wu=instance.wu.wu_id if instance is not None else None,
                lost_reference_s=lost_s,
                done_fraction=self._done / self._cost if self._cost else 1.0,
            )
        reboot = float(f.rng.exponential(f.reboot_delay_s)) if f.reboot_delay_s > 0 else 0.0
        self.sim.schedule(reboot, self._when_available, self._compute_step)

    def _complete(self) -> None:
        instance = self.instance
        if instance is None:
            raise RuntimeError("completion without an active instance")
        rate = self.spec.progress_rate
        self._active_s += (self._cost - self._done) / rate
        self._done = self._cost
        valid = bool(self.rng.random() < self.spec.reliability)
        active_s = self._active_s
        self.instance = None
        self.telemetry.record_workunit_run(
            self.sim.now, active_s, instance.wu.cost_reference_s
        )
        delay = float(self.rng.exponential(self.spec.report_delay_mean_s))
        if self.tracer is not None:
            self.tracer.emit(
                "agent.complete", t_sim=self.sim.now,
                host=self.spec.host_id, wu=instance.wu.wu_id,
                active_s=active_s, report_delay_s=delay,
            )
        quality = ResultQuality.OK if valid else ResultQuality.ERRONEOUS
        f = self.spec.faults
        if f is not None and valid:
            if f.saboteur:
                # Plausible-but-wrong values: passes the range check; only
                # a disagreeing quorum partner can expose it.
                quality = ResultQuality.SABOTAGED
                self.telemetry.record_fault("sabotaged")
                if self.tracer is not None:
                    self.tracer.emit(
                        "fault.sabotage", t_sim=self.sim.now,
                        host=self.spec.host_id, wu=instance.wu.wu_id,
                    )
            elif f.corrupt_prob > 0.0 and f.rng.random() < f.corrupt_prob:
                # Detectably-garbage result (wrong magnitudes, truncated
                # file): the value-range check always rejects it.
                quality = ResultQuality.ERRONEOUS
                self.telemetry.record_fault("corrupted")
                if self.tracer is not None:
                    self.tracer.emit(
                        "fault.corrupt", t_sim=self.sim.now,
                        host=self.spec.host_id, wu=instance.wu.wu_id,
                    )
        self.sim.schedule(delay, self._report, instance, quality, active_s)

    def _report(
        self,
        instance: "Instance",
        quality: ResultQuality,
        active_s: float,
        attempt: int = 0,
    ) -> None:
        f = self.spec.faults
        if (
            f is not None
            and f.report_loss_prob > 0.0
            and float(f.rng.random()) < f.report_loss_prob
        ):
            self.telemetry.record_fault("report_lost")
            if self.tracer is not None:
                self.tracer.emit(
                    "fault.report_lost", t_sim=self.sim.now,
                    host=self.spec.host_id, wu=instance.wu.wu_id,
                    attempt=attempt,
                )
            self._backoff_retry(
                "report-lost", attempt,
                self._report, instance, quality, active_s, attempt + 1,
            )
            return
        accounted = accounted_seconds(self.spec, active_s, self.accounting)
        credit = claimed_credit(self.spec, active_s, self.accounting, self.benchmark)
        valid = quality is not ResultQuality.ERRONEOUS
        if self.tracer is not None:
            self.tracer.emit(
                "agent.report", t_sim=self.sim.now,
                host=self.spec.host_id, wu=instance.wu.wu_id,
                valid=valid, accounted_cpu_s=accounted,
            )
        try:
            self.server.on_result(instance, valid, accounted, quality=quality)
        except ServerUnavailable:
            self._backoff_retry(
                "refused", attempt,
                self._report, instance, quality, active_s, attempt + 1,
            )
            return
        self.telemetry.record_result(self.sim.now, accounted)
        self.telemetry.record_credit(credit)
        if self.tracer is not None:
            self.tracer.emit(
                "host.credit", t_sim=self.sim.now,
                host=self.spec.host_id, wu=instance.wu.wu_id, points=credit,
            )
        self.results_returned += 1
        self._when_available(self._fetch_work)

    # -- fault recovery ----------------------------------------------------

    def _backoff_retry(self, reason: str, attempt: int, callback, *args) -> None:
        """Schedule ``callback(*args)`` after an exponential jittered backoff.

        ``RETRY_BASE_S * 2**attempt`` (exponent capped) scaled by a
        uniform jitter in [0.5, 1.5) drawn from the host's fault stream —
        synchronized retry storms after an outage ends would otherwise
        hammer the server in lockstep.  The continuation is a named bound
        method, so traces and profiles attribute the hop.
        """
        base = RETRY_BASE_S * (2.0 ** min(attempt, RETRY_MAX_EXPONENT))
        f = self.spec.faults
        jitter = 0.5 + float(f.rng.random()) if f is not None else 1.0
        delay = base * jitter
        self.telemetry.record_fault("retries")
        if self.tracer is not None:
            self.tracer.emit(
                "agent.retry", t_sim=self.sim.now,
                host=self.spec.host_id, reason=reason,
                attempt=attempt, delay_s=delay,
            )
        self.sim.schedule(delay, callback, *args)
