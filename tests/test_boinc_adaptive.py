"""Tests for adaptive replication (the BOINC feature phase II inherits)."""

from __future__ import annotations

import pytest

from repro.boinc.server import GridServer, ServerConfig
from repro.boinc.simulator import scaled_phase1
from repro.boinc.validator import AdaptiveReplication, ValidationPolicy
from repro.core.workunit import WorkUnit
from repro.grid.des import Simulator


class TestTrustTracking:
    def test_untrusted_initially(self):
        adaptive = AdaptiveReplication(trust_after=3)
        assert not adaptive.is_trusted(1)
        assert adaptive.needs_partner(1)

    def test_trust_after_streak(self):
        adaptive = AdaptiveReplication(trust_after=3, spot_check_rate=0.0)
        for _ in range(3):
            adaptive.record_valid(1)
        assert adaptive.is_trusted(1)
        assert not adaptive.needs_partner(1)

    def test_invalid_resets_trust(self):
        adaptive = AdaptiveReplication(trust_after=2, spot_check_rate=0.0)
        adaptive.record_valid(1)
        adaptive.record_valid(1)
        assert adaptive.is_trusted(1)
        adaptive.record_invalid(1)
        assert not adaptive.is_trusted(1)

    def test_spot_checks_are_periodic(self):
        adaptive = AdaptiveReplication(trust_after=1, spot_check_rate=0.25)
        adaptive.record_valid(1)
        outcomes = [adaptive.needs_partner(1) for _ in range(8)]
        assert sum(outcomes) == 2  # every 4th trusted result is checked

    def test_per_host_independence(self):
        adaptive = AdaptiveReplication(trust_after=2, spot_check_rate=0.0)
        adaptive.record_valid(1)
        adaptive.record_valid(1)
        assert adaptive.is_trusted(1)
        assert not adaptive.is_trusted(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveReplication(trust_after=0)
        with pytest.raises(ValueError):
            AdaptiveReplication(spot_check_rate=1.5)


def _server(sim, n=3, adaptive=None):
    wus = [
        (
            WorkUnit(wu_id=k, receptor=0, ligand=0, isep_start=1 + 5 * k,
                     nsep=5, cost_reference_s=1000.0),
            0,
        )
        for k in range(n)
    ]
    config = ServerConfig(
        deadline_s=1e6,
        validation=ValidationPolicy(switch_time=1e12),  # quorum era forever
        adaptive=adaptive,
    )
    return GridServer(sim, wus, config=config)


class TestServerIntegration:
    def test_trusted_host_single_copy_validates(self):
        sim = Simulator()
        adaptive = AdaptiveReplication(trust_after=1, spot_check_rate=0.0)
        server = _server(sim, adaptive=adaptive)
        # First workunit: host 1 is untrusted, two copies circulate.
        a = server.request_work(1)
        b = server.request_work(2)
        assert a.wu.wu_id == b.wu.wu_id == 0
        server.on_result(a, valid=True, accounted_cpu_s=1.0)
        server.on_result(b, valid=True, accounted_cpu_s=1.0)
        assert server.stats.effective == 1
        # Host 1 is now trusted: its next fetch is a single copy that
        # validates alone.
        c = server.request_work(1)
        d = server.request_work(2)
        assert c.wu.wu_id == 1
        assert d.wu.wu_id == 2  # no second copy of wu 1 was queued
        server.on_result(c, valid=True, accounted_cpu_s=1.0)
        assert server.stats.effective == 2
        assert server.stats.validated_by_regime["adaptive"] == 1

    def test_untrusted_host_still_replicated(self):
        sim = Simulator()
        adaptive = AdaptiveReplication(trust_after=5, spot_check_rate=0.0)
        server = _server(sim, adaptive=adaptive)
        a = server.request_work(1)
        b = server.request_work(2)
        assert a.wu.wu_id == b.wu.wu_id == 0

    def test_without_adaptive_everything_replicates(self):
        sim = Simulator()
        server = _server(sim, adaptive=None)
        a = server.request_work(1)
        b = server.request_work(2)
        assert a.wu.wu_id == b.wu.wu_id == 0


class TestCampaignEffect:
    def test_adaptive_cuts_redundancy(self):
        def run(adaptive):
            from repro.units import weeks

            sim = scaled_phase1(
                scale=250, n_proteins=12,
                server=ServerConfig(
                    validation=ValidationPolicy(switch_time=weeks(16.0)),
                    adaptive=adaptive,
                ),
            )
            return sim.run().metrics()

        fixed = run(None)
        adaptive = run(AdaptiveReplication(trust_after=5, spot_check_rate=0.1))
        # Adaptive replication trims the quorum-era duplicates.
        assert adaptive.redundancy < fixed.redundancy
        assert adaptive.useful_result_fraction > fixed.useful_result_fraction


class TestTrustIsRunState:
    """The policy in the config is a value; the streak table and the
    spot-check counter belong to the server a run builds."""

    @staticmethod
    def _sim(**kwargs):
        from repro.units import weeks

        return scaled_phase1(
            scale=400, n_proteins=10, seed=7,
            server=ServerConfig(
                validation=ValidationPolicy(switch_time=weeks(16.0)),
                adaptive=AdaptiveReplication(trust_after=3, spot_check_rate=0.3),
            ),
            **kwargs,
        )

    def test_server_builds_its_own_table(self):
        policy = AdaptiveReplication(trust_after=1, spot_check_rate=0.0)
        server = _server(Simulator(), adaptive=policy)
        server.on_result(server.request_work(1), valid=True, accounted_cpu_s=1.0)
        assert server.adaptive is not policy
        assert server.adaptive.is_trusted(1) and not policy.is_trusted(1)

    def test_same_simulation_run_twice_is_the_same_run(self):
        sim = self._sim(ledger=True)
        first, second = sim.run(), sim.run()
        assert first.server.stats == second.server.stats
        assert first.server.stats.validated_by_regime["adaptive"] > 0
        assert first.completion_time == second.completion_time
        assert first.ledger.as_dict() == second.ledger.as_dict()
        # the values of a fresh-process run
        assert first.server.stats.disclosed == 165
