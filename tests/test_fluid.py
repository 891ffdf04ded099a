"""Tests for repro.fluid: the full-scale analytic campaign model."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants as C
from repro.core.campaign import CampaignPlan
from repro.core.packaging import PackagingPolicy, WorkUnitPlan
from repro.fluid import FluidCampaign


@pytest.fixture(scope="module")
def fluid(phase1_library, phase1_cost_model):
    campaign = CampaignPlan(phase1_library, phase1_cost_model)
    plan = WorkUnitPlan(phase1_cost_model, PackagingPolicy(target_hours=3.65))
    return FluidCampaign(campaign, plan.duration_stats()["mean"])


@pytest.fixture(scope="module")
def result(fluid):
    return fluid.run()


class TestPhase1Reproduction:
    """The paper's full-scale anchors."""

    def test_completion_in_26_weeks(self, result):
        assert result.completion_week == pytest.approx(26.0, abs=2.0)

    def test_whole_period_vftp(self, result):
        assert result.metrics().vftp == pytest.approx(
            C.HCMD_VFTP_WHOLE_PERIOD, rel=0.06
        )

    def test_full_power_vftp(self, result):
        m = result.metrics(first_week=13)
        assert m.vftp == pytest.approx(C.HCMD_VFTP_FULL_POWER, rel=0.06)

    def test_total_consumed_cpu(self, result):
        assert result.consumed_cpu_s.sum() == pytest.approx(
            C.TOTAL_WCG_CPU_S, rel=0.04
        )

    def test_overall_redundancy(self, result):
        assert result.overall_redundancy == pytest.approx(
            C.REDUNDANCY_FACTOR, abs=0.06
        )

    def test_useful_fraction(self, result):
        assert result.useful_fraction == pytest.approx(
            C.USEFUL_RESULT_FRACTION, abs=0.04
        )

    def test_result_counts(self, result):
        assert result.results_useful.sum() == pytest.approx(
            C.RESULTS_EFFECTIVE, rel=0.04
        )
        assert result.results_disclosed.sum() == pytest.approx(
            C.RESULTS_DISCLOSED, rel=0.04
        )

    def test_dedicated_equivalents(self, result):
        assert result.metrics().dedicated_equivalent == pytest.approx(
            C.DEDICATED_EQUIV_WHOLE_PERIOD, rel=0.06
        )
        assert result.metrics(first_week=13).dedicated_equivalent == pytest.approx(
            C.DEDICATED_EQUIV_FULL_POWER, rel=0.10
        )

    def test_mean_device_time(self, fluid):
        assert fluid.mean_device_seconds_per_result == pytest.approx(
            C.WCG_RESULT_MEAN_S, rel=0.03
        )

    def test_figure7_anchor(self, fluid, result):
        # Week ~19.4 is 2007-05-02: 85% proteins docked, 47% of the work.
        snap = fluid.snapshot_at_week(result, 19.4)
        assert snap.protein_fraction_complete == pytest.approx(0.85, abs=0.06)
        assert snap.work_fraction == pytest.approx(0.47, abs=0.06)


class TestMechanics:
    def test_work_conservation(self, result):
        assert result.useful_reference_s.sum() == pytest.approx(
            result.total_work, rel=1e-9
        )

    def test_cumulative_fraction_monotone(self, result):
        cum = result.cumulative_work_fraction
        assert (np.diff(cum) >= -1e-12).all()
        assert cum[-1] == pytest.approx(1.0)

    def test_vftp_follows_three_phases(self, result):
        control = result.vftp[:8].mean()
        full = result.vftp[14:20].mean()
        assert full > 4 * control

    def test_no_consumption_after_completion(self, fluid):
        res = fluid.run(max_weeks=50)
        assert len(res.weeks) == int(np.ceil(res.completion_week))

    def test_redundancy_regimes(self, fluid):
        assert fluid.redundancy(0.0) > fluid.redundancy(25.0)

    def test_metrics_rejects_empty_range(self, result):
        with pytest.raises(ValueError):
            result.metrics(first_week=100, last_week=100)

    def test_snapshot_rejects_negative_week(self, fluid, result):
        with pytest.raises(ValueError):
            fluid.snapshot_at_week(result, -1.0)

    def test_rejects_nonpositive_mean_wu(self, phase1_library, phase1_cost_model):
        campaign = CampaignPlan(phase1_library, phase1_cost_model)
        with pytest.raises(ValueError):
            FluidCampaign(campaign, 0.0)
