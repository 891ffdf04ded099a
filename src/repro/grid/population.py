"""World Community Grid population model (Figure 1) and the HCMD share
schedule (Figure 6a).

Figure 1 plots the *virtual full-time processors* participating in WCG
since its launch (Nov 16, 2004): a globally increasing trend with weekly
oscillation ("during the week-end there are less processors than during
the week") and dips at the Christmas holidays of 2005 and 2006 and the
summer of 2006.

We model the trend as a logistic curve calibrated by least squares to the
paper's anchors — ~2,000 VFTP at launch, an average of 54,947 VFTP during
the HCMD project window, 74,825 VFTP in the week the paper was written —
and superpose deterministic weekly/holiday modulations.

The HCMD share schedule reproduces Section 5.1's three phases: a
low-priority *control period* (~2 months), a *project prioritization* ramp
through February (reaching 45% of WCG's devices), and a constant-share
*full power working phase* until completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..units import SECONDS_PER_DAY

__all__ = ["WCGPopulationModel", "ShareSchedule", "hcmd_share_schedule"]

#: Day offsets (from WCG launch) of the modulation features of Figure 1.
_CHRISTMAS_2005_DAY = 404
_CHRISTMAS_2006_DAY = 769
_SUMMER_2006_START = 590
_SUMMER_2006_END = 670

#: WCG launched on a Tuesday (Nov 16, 2004); weekday index 0 = Monday.
_LAUNCH_WEEKDAY = 1


@dataclass(frozen=True)
class WCGPopulationModel:
    """Logistic VFTP trend with weekly and seasonal modulation."""

    capacity: float  #: logistic ceiling (VFTP)
    midpoint_day: float  #: inflection day
    timescale_days: float  #: logistic time constant
    weekend_dip: float = constants.WEEKEND_DIP_FRACTION
    holiday_dip: float = 0.18
    summer_dip: float = 0.07
    #: VFTP produced per member (325,000 members ~ 60,000 VFTP, Section 7)
    vftp_per_member: float = constants.WCG_MEMBERS_VFTP / constants.WCG_MEMBERS

    # -- trend ----------------------------------------------------------

    def trend(self, day: np.ndarray | float) -> np.ndarray | float:
        """Smooth VFTP trend at ``day`` (days since WCG launch)."""
        day = np.asarray(day, dtype=np.float64)
        out = self.capacity / (
            1.0 + np.exp(-(day - self.midpoint_day) / self.timescale_days)
        )
        return out if out.ndim else float(out)

    def _modulation(self, day: np.ndarray) -> np.ndarray:
        weekday = (day.astype(np.int64) + _LAUNCH_WEEKDAY) % 7
        mod = np.where(weekday >= 5, 1.0 - self.weekend_dip, 1.0)
        for center in (_CHRISTMAS_2005_DAY, _CHRISTMAS_2006_DAY):
            mod = mod * (
                1.0 - self.holiday_dip * np.exp(-0.5 * ((day - center) / 6.0) ** 2)
            )
        in_summer = (day >= _SUMMER_2006_START) & (day <= _SUMMER_2006_END)
        mod = np.where(in_summer, mod * (1.0 - self.summer_dip), mod)
        return mod

    def vftp(self, day: np.ndarray | float) -> np.ndarray | float:
        """Modulated VFTP (the Figure 1 curve)."""
        arr = np.asarray(day, dtype=np.float64)
        out = self.trend(arr) * self._modulation(arr)
        return out if out.ndim else float(out)

    def daily_series(self, start_day: int, n_days: int) -> np.ndarray:
        """VFTP sampled once per day over ``[start_day, start_day+n_days)``."""
        days = np.arange(start_day, start_day + n_days, dtype=np.float64)
        return np.asarray(self.vftp(days))

    def members(self, day: np.ndarray | float) -> np.ndarray | float:
        """Members implied by the trend through the VFTP-per-member yield."""
        trend = self.trend(day)
        return trend / self.vftp_per_member

    def cpu_years_per_day(self, day: float) -> float:
        """Daily CPU production in years/day (how WCG publishes Figure 1)."""
        return float(self.vftp(day)) * SECONDS_PER_DAY / (365 * SECONDS_PER_DAY)

    # -- calibration ------------------------------------------------------

    @classmethod
    def calibrated(cls) -> "WCGPopulationModel":
        """The logistic fitted by least squares to the paper's three anchors.

        1. ~2,000 VFTP at launch (day 0);
        2. average 54,947 VFTP over the HCMD window (days 763..945);
        3. 74,825 VFTP in the week the paper was written (~day 1110).

        The fit's answer never changes, so it is frozen here as the
        ``repr`` of its three parameters; every campaign, and the goldens,
        depend on these exact values.  The fit itself is the test oracle
        ``tests/oracles/population.py::fit_wcg_trend``, and a tier-1 test
        asserts that it still returns them bit for bit.
        """
        return cls(
            capacity=86477.2535747846,
            midpoint_day=741.5868646809719,
            timescale_days=198.1085954416609,
        )


@dataclass(frozen=True)
class ShareSchedule:
    """Fraction of WCG working for HCMD as a function of project week."""

    control_weeks: float = float(constants.CONTROL_PERIOD_WEEKS)
    ramp_weeks: float = float(constants.PRIORITIZATION_WEEKS)
    control_share: float = 0.07
    full_share: float = constants.PEAK_PROJECT_SHARE

    def share(self, week: np.ndarray | float) -> np.ndarray | float:
        """Piecewise-linear share: control -> ramp -> full power."""
        week = np.asarray(week, dtype=np.float64)
        ramp_end = self.control_weeks + self.ramp_weeks
        ramp_frac = np.clip((week - self.control_weeks) / self.ramp_weeks, 0.0, 1.0)
        out = np.where(
            week < self.control_weeks,
            self.control_share,
            self.control_share + ramp_frac * (self.full_share - self.control_share),
        )
        out = np.where(week >= ramp_end, self.full_share, out)
        out = np.where(week < 0, 0.0, out)
        return out if out.ndim else float(out)

    def phase_of_week(self, week: float) -> str:
        """Phase label of Section 5.1 for ``week``."""
        if week < 0:
            raise ValueError("week must be non-negative")
        if week < self.control_weeks:
            return "control period"
        if week < self.control_weeks + self.ramp_weeks:
            return "project prioritization"
        return "full power working phase"


def hcmd_share_schedule() -> ShareSchedule:
    """The paper-default HCMD share schedule (Section 5.1)."""
    return ShareSchedule()
