"""Tests for repro.grid.host: the volunteer host model (Section 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants as C
from repro.grid.host import HostPopulationModel, HostProfile, HostSpec
from repro.grid.availability import AvailabilityTrace


def _spec(**kw):
    defaults = dict(
        host_id=0, speed=1.0, duty_cycle=0.5, reliability=0.95,
        abandon_prob=0.02, report_delay_mean_s=3600.0,
        trace=AvailabilityTrace(np.array([0.0]), np.array([1e6]), 1e7),
    )
    defaults.update(kw)
    return HostSpec(**defaults)


class TestHostSpec:
    def test_progress_rate(self):
        assert _spec(speed=0.8, duty_cycle=0.5).progress_rate == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(speed=0.0)
        with pytest.raises(ValueError):
            _spec(duty_cycle=1.5)
        with pytest.raises(ValueError):
            _spec(reliability=-0.1)


class TestProfileCalibration:
    def test_net_speed_down_matches_paper(self):
        # The default profile is calibrated to Section 6's 3.96.
        profile = HostProfile()
        assert profile.expected_net_speed_down() == pytest.approx(
            C.SPEED_DOWN_NET, rel=0.03
        )

    def test_throttle_is_ud_default(self):
        assert HostProfile().throttle == 0.60

    def test_duty_cycle_below_throttle(self):
        # The lowest-priority task never gets more than the throttle allows.
        model = HostPopulationModel(seed=1)
        for i in range(20):
            spec = model.spec(i)
            assert spec.duty_cycle <= HostProfile().throttle


class TestPopulationModel:
    def test_specs_deterministic(self):
        m = HostPopulationModel(seed=5)
        a = m.spec(3)
        b = m.spec(3)
        assert a.speed == b.speed
        np.testing.assert_array_equal(a.trace.starts, b.trace.starts)

    def test_specs_independent_of_order(self):
        m1 = HostPopulationModel(seed=5)
        _ = m1.spec(0)
        late = m1.spec(7)
        m2 = HostPopulationModel(seed=5)
        direct = m2.spec(7)
        assert late.speed == direct.speed

    def test_join_time_propagates(self):
        m = HostPopulationModel(seed=5, horizon=50 * 86400.0)
        spec = m.spec(0, join_time=20 * 86400.0)
        if spec.trace.n_intervals():
            assert spec.trace.starts[0] >= 20 * 86400.0

    def test_speed_distribution_spread(self):
        m = HostPopulationModel(seed=2)
        speeds = np.array([m.spec(i).speed for i in range(200)])
        assert 0.6 < np.median(speeds) < 1.1
        assert speeds.std() > 0.1  # heterogeneous population

    def test_with_profile_overrides(self):
        m = HostPopulationModel(seed=2).with_profile(reliability=0.5)
        assert m.profile.reliability == 0.5
        assert m.spec(0).reliability == 0.5

    def test_mean_inverse_rate_near_net_speed_down(self):
        # Sampled hosts realize the population speed-down.
        m = HostPopulationModel(seed=9)
        rates = np.array([1.0 / m.spec(i).progress_rate for i in range(400)])
        assert rates.mean() == pytest.approx(C.SPEED_DOWN_NET, rel=0.12)
