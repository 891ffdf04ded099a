"""Volunteer availability traces.

A volunteer device alternates between periods where the agent can compute
(machine on, user allows guest work) and periods where it cannot (machine
off, user busy, agent paused).  "The user can configure the agent to use
only the idle time of the device, or launch the workunit only when the
screensaver is active or continuously work" (Section 3.1) — at the level
the simulation needs, this is an on/off renewal process with exponential
session/gap lengths plus a diurnal modulation (nights are more available
than office hours for home machines; the aggregate weekly dip of Figure 1
is handled by the population model).

Traces are materialized up front per host (a few hundred intervals for a
26-week horizon), so the agent state machine can query transitions in
O(log n) and property tests can check the interval algebra directly.

Synthesis is the dominant setup cost at campaign scale, so
:func:`generate_trace` samples its exponential on/off lengths in blocks —
one RNG call per block instead of two per session — and the interval
assembly runs on plain Python floats.  The sampled values are
bit-identical to the one-draw-per-session loop it replaced (block
``standard_exponential`` consumes the same bit stream, and the diurnal
``math.sin`` matches ``np.sin`` on float64), so per-host traces are
unchanged for a given generator seed; see ``tests/test_grid_availability``
for the exact-equivalence check against the scalar reference.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..units import SECONDS_PER_DAY, SECONDS_PER_HOUR

__all__ = ["AvailabilityTrace", "generate_trace"]

#: Minimum session / gap length (seconds): a host never flips faster.
MIN_INTERVAL_S = 60.0


@dataclass(frozen=True)
class AvailabilityTrace:
    """Sorted, disjoint ``[start, end)`` intervals where the host computes.

    All times are simulation seconds.  ``horizon`` bounds the trace: queries
    beyond it return "unavailable forever".
    """

    starts: np.ndarray
    ends: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.float64)
        ends = np.asarray(self.ends, dtype=np.float64)
        if starts.shape != ends.shape or starts.ndim != 1:
            raise ValueError("starts/ends must be equal-length 1-d arrays")
        if len(starts):
            if (ends <= starts).any():
                raise ValueError("every interval must have positive length")
            if (starts[1:] < ends[:-1]).any():
                raise ValueError("intervals must be sorted and disjoint")
            if ends[-1] > self.horizon:
                raise ValueError("trace extends past its horizon")
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)
        starts.setflags(write=False)
        ends.setflags(write=False)
        # Plain-float copies for the per-event point queries: bisect over a
        # Python list compares C doubles directly, where the ndarray path
        # would box one np.float64 per probe — this is the agents' hottest
        # query pair, called a few times per simulated event.
        object.__setattr__(self, "_starts_list", starts.tolist())
        object.__setattr__(self, "_ends_list", ends.tolist())

    def is_available(self, t: float) -> bool:
        """Whether the host computes at time ``t``."""
        i = bisect_right(self._starts_list, t) - 1
        return i >= 0 and t < self._ends_list[i]

    def next_transition(self, t: float) -> float | None:
        """First time strictly after ``t`` where availability flips.

        Returns None when no transition remains before the horizon.
        """
        starts = self._starts_list
        i = bisect_right(starts, t) - 1
        if i >= 0 and t < self._ends_list[i]:
            return self._ends_list[i]
        if i + 1 < len(starts):
            return starts[i + 1]
        return None

    def available_seconds(self, t0: float, t1: float) -> float:
        """Total available time within ``[t0, t1]`` (clipped overlap sum)."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        overlap = np.minimum(self.ends, t1) - np.maximum(self.starts, t0)
        return float(np.clip(overlap, 0.0, None).sum())

    @property
    def total_available(self) -> float:
        """Available seconds over the whole horizon."""
        return float((self.ends - self.starts).sum())

    def n_intervals(self) -> int:
        return len(self.starts)


def generate_trace(
    rng: np.random.Generator,
    horizon: float,
    join_time: float = 0.0,
    leave_time: float | None = None,
    mean_on_hours: float = 6.0,
    mean_off_hours: float = 6.0,
    diurnal: bool = True,
) -> AvailabilityTrace:
    """Sample an availability trace over ``[join_time, leave_time]``.

    Alternating exponential on/off sessions; with ``diurnal=True`` the off
    gaps stretch or shrink with the time of day (a per-host random phase
    models time zones and habits).  A host present for the whole horizon
    with 6 h/6 h parameters is available ~50% of wall-clock time, matching
    the "non-dedicated device" picture of Section 6.

    The exponential lengths are drawn as blocks of standard exponentials
    (scaled per use), which consumes the generator's bit stream in the
    same order as per-session scalar draws — the resulting trace is
    bit-identical.  The generator may be advanced past the last draw the
    trace actually uses (block overshoot), so callers must not rely on
    the generator's state afterwards.
    """
    end = min(horizon, leave_time if leave_time is not None else horizon)
    if end <= join_time:
        return AvailabilityTrace(
            starts=np.empty(0), ends=np.empty(0), horizon=horizon
        )
    phase = float(rng.random())
    on_scale = mean_on_hours * SECONDS_PER_HOUR
    off_scale = mean_off_hours * SECONDS_PER_HOUR
    # Expected draws: ~2 per mean session+gap, floored by the 60 s minimum
    # interval length; headroom for the diurnal shrink (weight <= 1.5) and
    # sampling noise.  Shortfalls refill below, overshoot is discarded.
    span = end - join_time
    est_sessions = 1 + min(
        int(1.5 * span / max(on_scale + off_scale, 2 * MIN_INTERVAL_S)),
        int(span / (2 * MIN_INTERVAL_S)),
    )
    block = min(2 * est_sessions + 1, 1 << 20)
    draws = rng.standard_exponential(block).tolist()
    n_draws = len(draws)
    sin = math.sin
    two_pi = 2.0 * math.pi

    starts: list[float] = []
    ends: list[float] = []
    # Start in the off state with a partial gap so hosts don't all wake at
    # their join instant.
    t = join_time + draws[0] * (mean_off_hours * SECONDS_PER_HOUR / 2)
    i = 1
    while t < end:
        if i + 2 > n_draws:  # refill: long diurnal tails outrun the estimate
            draws = rng.standard_exponential(max(block, 64)).tolist()
            n_draws = len(draws)
            i = 0
        on = draws[i] * on_scale
        gap = draws[i + 1] * off_scale
        i += 2
        session_end = min(t + max(on, MIN_INTERVAL_S), end)
        starts.append(t)
        ends.append(session_end)
        if diurnal:
            day_fraction = ((session_end / SECONDS_PER_DAY) + phase) % 1.0
            gap /= 1.0 + 0.5 * sin(two_pi * (day_fraction - 0.25))
        t = session_end + max(gap, MIN_INTERVAL_S)
    return AvailabilityTrace(
        starts=np.asarray(starts), ends=np.asarray(ends), horizon=horizon
    )
