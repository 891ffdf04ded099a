"""Tests for repro.boinc.simulator: scaled end-to-end campaigns."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants as C
from repro.boinc.simulator import Telemetry, scaled_phase1


@pytest.fixture(scope="module")
def campaign():
    """One small campaign simulation shared below (read-only)."""
    return scaled_phase1(scale=150, n_proteins=16)


@pytest.fixture(scope="module")
def campaign_result(campaign):
    return campaign.run()


class TestTelemetry:
    def test_daily_buckets(self):
        t = Telemetry(horizon_s=14 * 86400.0)
        t.record_result(0.5 * 86400, 100.0)
        t.record_result(1.5 * 86400, 200.0)
        assert t.daily_results[0] == 1
        assert t.daily_cpu_s[1] == 200.0

    def test_overflow_clamped_to_last_bucket(self):
        t = Telemetry(horizon_s=7 * 86400.0)
        t.record_result(1e9, 1.0)
        assert t.daily_results[-1] == 1

    def test_weekly_vftp_shape(self):
        t = Telemetry(horizon_s=21 * 86400.0)
        t.record_result(3 * 86400, 86400.0)  # 1 cpu-day in week 0
        weekly = t.weekly_vftp()
        assert weekly[0] == pytest.approx(1 / 7)


class TestCampaignCompletes:
    def test_completion_near_26_weeks(self, campaign_result):
        assert campaign_result.completion_weeks is not None
        assert 20 < campaign_result.completion_weeks < 33

    def test_all_workunits_validated(self, campaign_result):
        server = campaign_result.server
        assert server.stats.effective == server.n_workunits

    def test_all_batches_complete(self, campaign_result):
        assert np.isfinite(campaign_result.batch_completion_s).all()

    def test_useful_work_equals_total(self, campaign, campaign_result):
        # Conservation: validated reference work == the packaged total.
        stats = campaign_result.server.stats
        assert stats.useful_reference_s == pytest.approx(
            campaign.campaign.total_work, rel=1e-9
        )


class TestScaleFreeObservables:
    """The paper's scale-independent anchors, at tolerance."""

    def test_redundancy_factor(self, campaign_result):
        m = campaign_result.metrics()
        assert m.redundancy == pytest.approx(C.REDUNDANCY_FACTOR, abs=0.25)

    def test_useful_fraction(self, campaign_result):
        m = campaign_result.metrics()
        assert m.useful_result_fraction == pytest.approx(
            C.USEFUL_RESULT_FRACTION, abs=0.12
        )

    def test_net_speed_down(self, campaign_result):
        m = campaign_result.metrics()
        # Stochastic at this scale (few hundred hosts): +-25%.
        assert m.speed_down_net == pytest.approx(C.SPEED_DOWN_NET, rel=0.25)

    def test_raw_speed_down_exceeds_net(self, campaign_result):
        m = campaign_result.metrics()
        assert m.speed_down_raw > m.speed_down_net

    def test_mean_device_hours_track_speed_down(self, campaign, campaign_result):
        # The paper's "13 h device time for 3.3 h workunits" relation:
        # device hours ~ workunit reference hours x net speed-down.  (At
        # aggressive scale factors the absolute workunit size shrinks —
        # whole couples fit under the target — so the ratio is the
        # scale-free observable.)
        mean_wu_h = campaign.plan.duration_stats()["mean"] / 3600.0
        expected = mean_wu_h * C.SPEED_DOWN_NET
        assert campaign_result.mean_device_run_hours() == pytest.approx(
            expected, rel=0.25
        )

    def test_three_phase_vftp_shape(self, campaign_result):
        weekly = campaign_result.telemetry.weekly_vftp()
        control = weekly[2:8].mean()
        full = weekly[14:22].mean()
        assert full > 3.0 * control  # the prioritization jump

    def test_small_batches_complete_first(self, campaign_result):
        # Release order is least-cost-first, so early batches finish
        # (on average) before late ones.
        t = campaign_result.batch_completion_s
        first_half = t[: len(t) // 2].mean()
        second_half = t[len(t) // 2 :].mean()
        assert first_half < second_half


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a = scaled_phase1(scale=700, n_proteins=6).run()
        b = scaled_phase1(scale=700, n_proteins=6).run()
        assert a.completion_time == b.completion_time
        assert a.server.stats.disclosed == b.server.stats.disclosed
        np.testing.assert_array_equal(
            a.telemetry.daily_results, b.telemetry.daily_results
        )

    def test_different_seed_differs(self):
        a = scaled_phase1(scale=700, n_proteins=6, seed=1).run()
        b = scaled_phase1(scale=700, n_proteins=6, seed=2).run()
        assert a.server.stats.disclosed != b.server.stats.disclosed


class TestSizing:
    def test_auto_host_count_scales_with_work(self):
        small = scaled_phase1(scale=400, n_proteins=12)
        big = scaled_phase1(scale=100, n_proteins=12)
        assert big.n_hosts_peak > small.n_hosts_peak

    def test_explicit_host_count_respected(self):
        sim = scaled_phase1(scale=400, n_proteins=6, n_hosts_peak=11)
        assert sim.n_hosts_peak == 11


class TestShipments:
    def test_every_batch_ships_once(self, campaign, campaign_result):
        assert len(campaign_result.telemetry.shipments) == len(campaign.library)

    def test_shipped_volume_matches_dataset_model(self, campaign, campaign_result):
        from repro.validation.merge import dataset_volume

        expected = dataset_volume(campaign.library).raw_bytes
        assert campaign_result.shipped_bytes_total() == expected

    def test_shipments_within_span(self, campaign_result):
        shipments = campaign_result.telemetry.shipments
        assert max(t for t, _ in shipments) <= campaign_result.span_s + 1e-6
        assert all(b > 0 for _, b in shipments)


class TestExport:
    def test_export_writes_artifacts(self, tmp_path, campaign_result):
        import csv
        import json

        paths = campaign_result.export(tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["daily.csv", "metrics.json", "workunit_runs.csv"]
        with (tmp_path / "daily.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["day", "cpu_seconds", "results", "useful"]
        assert len(rows) > 100
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["redundancy"] == pytest.approx(
            campaign_result.metrics().redundancy
        )
        assert metrics["shipped_bytes"] == campaign_result.shipped_bytes_total()
