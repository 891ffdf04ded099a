"""Volunteer host model.

Section 6 decomposes why a volunteer "virtual full-time processor" is ~4x
slower than the reference Opteron 2 GHz at producing useful work:

* the UD agent runs guest work at most at 60% of the CPU (default
  throttle) and "measures wall clock time rather than actual process
  execution time";
* the research application runs at the lowest priority, so any other use
  of the machine further starves it ("not unexpected if the research
  application actually ran for less than 50% of the elapsed wall clock
  time");
* the devices are on average slower than the reference processor, and the
  screensaver itself costs CPU.

A host is therefore: a relative ``speed`` (reference-seconds of work per
second of CPU actually received), a ``duty_cycle`` (fraction of the CPU the
agent gets while the host is available = throttle x contention), an
availability trace, and reliability parameters (invalid results, abandoned
workunits, reporting lag).  The *accounted* run time of a result — what the
grid's statistics see — is the active wall-clock time, reproducing the UD
accounting bias.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import constants
from ..rng import substream
from ..units import SECONDS_PER_HOUR
from .availability import AvailabilityTrace, generate_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults import HostFaultState

__all__ = ["HostProfile", "HostSpec", "HostPopulationModel"]


@dataclass(frozen=True)
class HostProfile:
    """Population-level distribution parameters for volunteer hosts."""

    #: median relative speed vs the Opteron 2 GHz reference
    speed_median: float = 0.84
    #: lognormal sigma of the speed distribution
    speed_sigma: float = 0.30
    #: agent CPU throttle (UD default 60%)
    throttle: float = constants.UD_CPU_THROTTLE
    #: share of the throttled CPU the lowest-priority task actually gets
    #: while the host is available (uniform range: owner contention).
    #: Together with the speed distribution this pins the population's
    #: expected net speed-down at the paper's 3.96.
    contention_low: float = 0.33
    contention_high: float = 0.77
    #: probability a returned result is valid
    reliability: float = 0.96
    #: probability a fetched workunit is silently abandoned (host never
    #: reconnects with it; the server times it out)
    abandon_prob: float = 0.03
    #: mean availability session / gap lengths (hours)
    mean_on_hours: float = 6.0
    mean_off_hours: float = 6.0
    #: mean delay between finishing a result and reporting it (hours) —
    #: agents only talk to the server when the volunteer is online
    report_delay_mean_h: float = 2.0
    #: per-week probability a volunteer leaves the project for good
    #: (phase I's fleet only grew, so the default is no attrition)
    attrition_weekly: float = 0.0

    def expected_net_speed_down(self, n: int = 200_000, seed: int = 1) -> float:
        """Monte-Carlo estimate of E[1 / (speed * duty_cycle)].

        This is the population's net speed-down: accounted (active
        wall-clock) time per unit of reference work.  The default profile
        is calibrated to the paper's 3.96.
        """
        rng = np.random.default_rng(seed)
        speed = self.speed_median * np.exp(
            rng.normal(0.0, self.speed_sigma, size=n)
        )
        duty = self.throttle * rng.uniform(
            self.contention_low, self.contention_high, size=n
        )
        return float((1.0 / (speed * duty)).mean())


@dataclass(frozen=True)
class HostSpec:
    """One concrete volunteer host."""

    host_id: int
    speed: float
    duty_cycle: float
    reliability: float
    abandon_prob: float
    report_delay_mean_s: float
    trace: AvailabilityTrace
    #: fault-injection state for this host (crash MTBF, sabotage flag,
    #: report-loss probability and the dedicated fault RNG); None on a
    #: fault-free campaign — see :mod:`repro.faults`
    faults: "HostFaultState | None" = None

    def __post_init__(self) -> None:
        if self.speed <= 0 or not 0 < self.duty_cycle <= 1:
            raise ValueError("speed must be positive and duty cycle in (0, 1]")
        if not 0 <= self.reliability <= 1 or not 0 <= self.abandon_prob <= 1:
            raise ValueError("probabilities must be in [0, 1]")

    @property
    def progress_rate(self) -> float:
        """Reference work per active wall-clock second (speed x duty)."""
        return self.speed * self.duty_cycle


class HostPopulationModel:
    """Deterministic per-index host synthesis.

    Host ``i`` is generated from its own named substream, so populations
    are stable under growth: adding host 1001 never changes hosts 0..1000.
    """

    def __init__(
        self,
        profile: HostProfile | None = None,
        seed: int = constants.DEFAULT_SEED,
        horizon: float = 26 * 7 * 86_400.0,
    ) -> None:
        self.profile = profile if profile is not None else HostProfile()
        self.seed = seed
        self.horizon = horizon

    def spec(
        self,
        index: int,
        join_time: float = 0.0,
        faults: "HostFaultState | None" = None,
    ) -> HostSpec:
        """Materialize host ``index`` joining the project at ``join_time``.

        ``faults`` attaches a per-host fault-injection state (derived by
        :meth:`repro.faults.FaultPlan.host_state` from its own substream,
        so it never perturbs this host's behavioural draws).
        """
        p = self.profile
        rng = substream(self.seed, "host", index)
        speed = p.speed_median * float(np.exp(rng.normal(0.0, p.speed_sigma)))
        duty = p.throttle * float(rng.uniform(p.contention_low, p.contention_high))
        leave_time = None
        if p.attrition_weekly > 0:
            # Exponential tenure with the matching weekly hazard.
            mean_tenure_s = 7 * 86_400.0 / p.attrition_weekly
            leave_time = join_time + float(rng.exponential(mean_tenure_s))
        trace = generate_trace(
            rng,
            horizon=self.horizon,
            join_time=join_time,
            leave_time=leave_time,
            mean_on_hours=p.mean_on_hours,
            mean_off_hours=p.mean_off_hours,
        )
        return HostSpec(
            host_id=index,
            speed=speed,
            duty_cycle=duty,
            reliability=p.reliability,
            abandon_prob=p.abandon_prob,
            report_delay_mean_s=p.report_delay_mean_h * SECONDS_PER_HOUR,
            trace=trace,
            faults=faults,
        )

    def with_profile(self, **overrides) -> "HostPopulationModel":
        """A copy of this model with profile fields overridden."""
        return HostPopulationModel(
            profile=replace(self.profile, **overrides),
            seed=self.seed,
            horizon=self.horizon,
        )
