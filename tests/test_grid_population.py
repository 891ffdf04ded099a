"""Tests for repro.grid.population: Figure 1 and the HCMD share schedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants as C
from repro.grid.population import (
    ShareSchedule,
    WCGPopulationModel,
    hcmd_share_schedule,
)
from tests.oracles.population import fit_wcg_trend


@pytest.fixture(scope="module")
def model() -> WCGPopulationModel:
    return WCGPopulationModel.calibrated()


class TestCalibration:
    def test_launch_anchor(self, model):
        assert model.trend(0.0) == pytest.approx(C.WCG_VFTP_AT_LAUNCH, rel=0.05)

    def test_project_average_anchor(self, model):
        days = np.arange(C.WCG_LAUNCH_TO_HCMD_DAYS, C.WCG_LAUNCH_TO_HCMD_DAYS + 182)
        avg = float(np.mean(model.trend(days.astype(float))))
        assert avg == pytest.approx(C.WCG_VFTP_DURING_PROJECT, rel=0.02)

    def test_paper_week_anchor(self, model):
        assert model.trend(1110.0) == pytest.approx(C.WCG_VFTP_DEC_2007, rel=0.02)

    def test_globally_increasing_trend(self, model):
        days = np.arange(0, 1200, 10.0)
        assert (np.diff(model.trend(days)) > 0).all()

    def test_frozen_fit_is_the_refit(self, model):
        """``calibrated()`` returns the fit's answer as literals; the fit
        (the oracle) must still produce exactly those three floats."""
        import scipy

        def triple(m):
            return (m.capacity, m.midpoint_day, m.timescale_days)

        frozen, refit = triple(model), triple(fit_wcg_trend())
        assert frozen == refit, (
            f"frozen {frozen!r} != refit {refit!r} under scipy "
            f"{scipy.__version__}: the frozen constants are the product's "
            "truth and the goldens depend on them; change them only in a "
            "change that re-pins the goldens"
        )


class TestModulation:
    def test_weekend_dip(self, model):
        # Day 0 is a Tuesday; days 4 and 5 after it are Sat/Sun.
        week = model.daily_series(700, 7)
        weekdays = (np.arange(700, 707) + 1) % 7
        weekend = week[weekdays >= 5]
        workweek = week[weekdays < 5]
        assert weekend.max() < workweek.min()

    def test_christmas_dips(self, model):
        for center in (404, 769):
            dip = float(model.vftp(float(center)))
            nearby = float(model.trend(float(center)))
            assert dip < 0.9 * nearby

    def test_summer_2006_dip(self, model):
        inside = float(model.vftp(630.0)) / float(model.trend(630.0))
        outside = float(model.vftp(500.0)) / float(model.trend(500.0))
        assert inside < outside

    def test_daily_series_shape(self, model):
        series = model.daily_series(0, 100)
        assert series.shape == (100,)
        assert (series > 0).all()


class TestMembers:
    def test_member_yield_anchor(self, model):
        # 325,000 members ~ 60,000 VFTP (Section 7).
        members = float(model.members(1110.0))
        vftp = float(model.trend(1110.0))
        assert vftp / members == pytest.approx(
            C.WCG_MEMBERS_VFTP / C.WCG_MEMBERS, rel=1e-9
        )

    def test_cpu_years_per_day(self, model):
        # 74,825 VFTP produce ~205 cpu-years per day.
        day = 1110.0
        expected = float(model.vftp(day)) / 365.0
        assert model.cpu_years_per_day(day) == pytest.approx(expected)


class TestShareSchedule:
    def test_three_phases(self):
        ss = hcmd_share_schedule()
        assert ss.phase_of_week(2) == "control period"
        assert ss.phase_of_week(10) == "project prioritization"
        assert ss.phase_of_week(20) == "full power working phase"

    def test_phase_boundaries(self):
        ss = ShareSchedule(control_weeks=9, ramp_weeks=4)
        assert ss.phase_of_week(8.99) == "control period"
        assert ss.phase_of_week(9.0) == "project prioritization"
        assert ss.phase_of_week(13.0) == "full power working phase"

    def test_control_share_low(self):
        ss = hcmd_share_schedule()
        assert float(ss.share(0.0)) < 0.10

    def test_full_share_is_45_percent(self):
        # "45% of World Community Grid's devices" at the end of February.
        ss = hcmd_share_schedule()
        assert float(ss.share(20.0)) == pytest.approx(C.PEAK_PROJECT_SHARE)

    def test_ramp_monotone(self):
        ss = hcmd_share_schedule()
        weeks = np.linspace(0, 26, 53)
        shares = np.asarray(ss.share(weeks))
        assert (np.diff(shares) >= -1e-12).all()

    def test_negative_weeks_zero(self):
        ss = hcmd_share_schedule()
        assert float(ss.share(-1.0)) == 0.0

    def test_phase_of_week_rejects_negative(self):
        with pytest.raises(ValueError):
            hcmd_share_schedule().phase_of_week(-1.0)


class TestHCMDSupplyAnchors:
    def test_whole_period_vftp(self, model):
        # share x WCG trend averaged over 26 weeks ~ Figure 6a's 16,450.
        ss = hcmd_share_schedule()
        weeks = np.arange(26) + 0.5
        supply = np.asarray(ss.share(weeks)) * np.asarray(
            model.vftp(C.WCG_LAUNCH_TO_HCMD_DAYS + 7.0 * weeks)
        )
        assert float(supply.mean()) == pytest.approx(C.HCMD_VFTP_WHOLE_PERIOD, rel=0.05)

    def test_full_power_vftp(self, model):
        ss = hcmd_share_schedule()
        weeks = np.arange(13, 26) + 0.5
        supply = np.asarray(ss.share(weeks)) * np.asarray(
            model.vftp(C.WCG_LAUNCH_TO_HCMD_DAYS + 7.0 * weeks)
        )
        assert float(supply.mean()) == pytest.approx(C.HCMD_VFTP_FULL_POWER, rel=0.05)
