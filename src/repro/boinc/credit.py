"""Run-time accounting and the points (credit) system (Sections 6 and 8).

Phase I ran on the UD agent, which "measures wall clock time rather than
actual process execution time"; phase II will run on BOINC, which accounts
actual CPU time.  The conclusion sketches a third, middleware-independent
estimator the authors defer to future work:

    "Another way to approach the number of virtual full-time processors is
    to base the estimate on the number of points awarded instead of
    run-time.  Points represent the amount of work done by a computer to
    compute a result and are based on the run time for that result
    multiplied by a weight factor determined by running a benchmark on the
    agent."

This module implements all three accountings on top of the host model:

* **UD**: accounted time = active wall-clock (includes the 60% throttle
  and owner contention — overstates true CPU by ~2x);
* **BOINC**: accounted time = actual CPU time received
  (wall x duty cycle);
* **points**: claimed credit = accounted run time x a per-host benchmark
  weight; the benchmark measures the host's *speed*, so points estimate
  the reference work directly and cancel both the device speed and (for
  BOINC accounting) the throttle.

The VFTP-from-points estimator divides granted points by what one
reference processor would earn full-time — the "more middleware
independent" metric the paper wants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: the accounting enum stays stdlib-only
    from ..grid.host import HostSpec

__all__ = [
    "AccountingMode",
    "CobblestoneScale",
    "HostBenchmark",
    "accounted_seconds",
    "claimed_credit",
    "vftp_from_credit",
]


class AccountingMode(enum.Enum):
    """How an agent bills the run time of a result."""

    #: UD agent: wall-clock while the task is active (phase I).
    UD_WALL_CLOCK = "ud"
    #: BOINC agent: actual CPU time the task received (phase II).
    BOINC_CPU_TIME = "boinc"


@dataclass(frozen=True)
class CobblestoneScale:
    """Credit scale: points one reference processor earns per day.

    BOINC's historical constant is 100 cobblestones/day for a reference
    machine; the absolute scale cancels in VFTP estimates, but keeping it
    explicit makes claimed credits comparable with published numbers.
    """

    points_per_reference_day: float = 100.0

    def __post_init__(self) -> None:
        if self.points_per_reference_day <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class HostBenchmark:
    """The agent-side benchmark determining the credit weight factor.

    A real agent runs Whetstone/Dhrystone; here the benchmark *measures*
    the host's true crunch speed with multiplicative error
    ``measurement_bias`` (benchmarks never track application throughput
    exactly — this is the residual middleware dependence the paper
    expects the points system to shrink, not eliminate).
    """

    host_speed: float  #: true reference-work per CPU-second
    measurement_bias: float = 1.0

    def __post_init__(self) -> None:
        if self.host_speed <= 0 or self.measurement_bias <= 0:
            raise ValueError("speeds must be positive")

    @property
    def measured_speed(self) -> float:
        return self.host_speed * self.measurement_bias


def accounted_seconds(
    spec: HostSpec, active_wall_s: float, mode: AccountingMode
) -> float:
    """Run time the agent reports for ``active_wall_s`` of active wall time.

    UD bills the wall time itself; BOINC bills the CPU actually received,
    i.e. wall x duty cycle.
    """
    if active_wall_s < 0:
        raise ValueError("active wall time must be non-negative")
    if mode is AccountingMode.UD_WALL_CLOCK:
        return active_wall_s
    return active_wall_s * spec.duty_cycle


def claimed_credit(
    spec: HostSpec,
    active_wall_s: float,
    mode: AccountingMode,
    benchmark: HostBenchmark,
    scale: CobblestoneScale | None = None,
) -> float:
    """Points claimed for a result: accounted time x benchmark weight.

    With BOINC accounting the claim is proportional to
    ``cpu_time x speed = reference work`` — device speed cancels exactly
    (up to the benchmark bias).  With UD accounting the throttle and
    contention leak into the claim, which is why the paper calls the
    UD-based VFTP "a low estimate".
    """
    scale = scale if scale is not None else CobblestoneScale()
    accounted = accounted_seconds(spec, active_wall_s, mode)
    points_per_second = scale.points_per_reference_day / 86_400.0
    return accounted * benchmark.measured_speed * points_per_second


def vftp_from_credit(
    granted_points: float,
    span_seconds: float,
    scale: CobblestoneScale | None = None,
) -> float:
    """Virtual full-time processors implied by a credit total.

    Granted points over a period, divided by what one reference processor
    earns in that period — the middleware-independent estimator of
    Section 8.
    """
    if span_seconds <= 0:
        raise ValueError("span must be positive")
    if granted_points < 0:
        raise ValueError("points must be non-negative")
    scale = scale if scale is not None else CobblestoneScale()
    reference_points = scale.points_per_reference_day * span_seconds / 86_400.0
    return granted_points / reference_points
