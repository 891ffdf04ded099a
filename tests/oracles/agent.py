"""The event-per-interruption agent: the oracle for ``VolunteerAgent``.

Until the availability walk landed, ``VolunteerAgent._compute_step``
scheduled an ``_interrupt`` event at the end of every availability
interval that cut a workunit short, and ``_interrupt`` went back through
``_when_available`` — a second event at the next interval start.  The
product now walks the precomputed trace in one call and schedules one
event per workunit (completion or crash).  ``SteppedAgent`` keeps the old
chain, moved here verbatim: a seeded campaign must produce the same
``CampaignResult`` and the same non-``des.*`` trace with either agent
(``tests/test_agent_equivalence.py``).
"""

from __future__ import annotations

import math

from repro.boinc.agent import KILL_PROBABILITY, VolunteerAgent

__all__ = ["SteppedAgent"]


class SteppedAgent(VolunteerAgent):
    """A volunteer agent that fires two DES events per interruption."""

    def _compute_step(self) -> None:
        """Crunch within the current availability interval."""
        t = self.sim.now
        trace = self.spec.trace
        if not trace.is_available(t):
            self._when_available(self._compute_step)
            return
        interval_end = trace.next_transition(t)
        rate = self.spec.progress_rate
        # Float accumulation in _interrupt can push _done a few ulp past
        # _cost; a negative residual would make sim.schedule raise.
        needed_s = max(0.0, (self._cost - self._done) / rate)
        if interval_end is None or t + needed_s <= interval_end:
            if self._maybe_crash(needed_s):
                return
            self.sim.schedule(needed_s, self._complete)
            return
        span = interval_end - t
        if self._maybe_crash(span):
            return
        self.sim.schedule_at(interval_end, self._interrupt, span)

    def _maybe_crash(self, span: float) -> bool:
        """Inject a crash inside the next ``span`` active seconds, maybe.

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
        self.sim.schedule(crash_in, self._fault_crash, crash_in)
        return True

    def _interrupt(self, active_span: float) -> None:
        """Availability ended mid-workunit: suspend or kill."""
        self._active_s += active_span
        self._done += active_span * self.spec.progress_rate
        # Checkpoints commit at starting-position boundaries.  (math.floor
        # == np.floor bit-for-bit on float64; the scalar form skips a
        # ufunc dispatch in this per-interruption path.)
        self._checkpointed = math.floor(self._done / self._chunk) * self._chunk
        killed = bool(self.rng.random() < KILL_PROBABILITY)
        lost_s = self._done - self._checkpointed
        if killed:
            # Killed: in-memory progress since the last checkpoint is lost.
            self._done = self._checkpointed
        if self.tracer is not None:
            instance = self.instance
            self.tracer.emit(
                "agent.checkpoint", t_sim=self.sim.now,
                host=self.spec.host_id,
                wu=instance.wu.wu_id if instance is not None else None,
                killed=killed,
                lost_reference_s=lost_s if killed else 0.0,
                done_fraction=self._done / self._cost if self._cost else 1.0,
            )
        self._when_available(self._compute_step)
