"""The multi-campaign grid engine (repro.multi).

The two load-bearing contracts:

* **single-campaign identity** — a grid with exactly one registered
  cross-docking campaign is simply N=1 on the router: the same fleet
  driver recruits the same hosts, and the router adds no randomness of
  its own, so statistics, completion, telemetry and (modulo the
  ``grid.*`` events and the ``campaign=`` stamp) the full event trace
  equal ``scaled_phase1``'s;
* **deterministic lifecycle** — mid-run admission and draining replay
  identically run to run, and campaigns receive no issues outside their
  [submit, drain) window.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.boinc.server import GridServer
from repro.boinc.sharding import plan_shards
from repro.boinc.simulator import (
    RuntimeSpec,
    Telemetry,
    run_campaigns,
    scaled_phase1,
)
from repro.faults import FaultPlan
from repro.multi import (
    Campaign,
    GridConfig,
    MultiGridSimulation,
    WU_ID_STRIDE,
    make_policy,
    three_phase_scenario,
)
from repro.obs import HealthMonitor, RingSink, Tracer
from repro.units import weeks

SCALE, N_PROTEINS, SEED = 900.0, 5, 42


def _single_grid(**overrides) -> GridConfig:
    base = dict(
        campaigns=(
            Campaign.cross_docking("hcmd", scale=SCALE, n_proteins=N_PROTEINS),
        ),
        seed=SEED,
        horizon_weeks=40.0,
    )
    base.update(overrides)
    return GridConfig(**base)


def _two_campaign_grid(submit_week: float = 2.0) -> GridConfig:
    return GridConfig(
        campaigns=(
            Campaign.cross_docking("hcmd", scale=SCALE, n_proteins=N_PROTEINS),
            Campaign.screening(
                "malaria", n_ligands=120, mean_hours=1.0,
                batch_size=20, submit_week=submit_week,
            ),
        ),
        seed=7,
        horizon_weeks=40.0,
        n_hosts_peak=12,
    )


@pytest.fixture(scope="module")
def monolithic_reference():
    return scaled_phase1(scale=SCALE, n_proteins=N_PROTEINS, seed=SEED).run()


class TestSingleCampaignIdentity:
    def test_n1_grid_is_bit_identical(self, monolithic_reference):
        """The N=1 grid hands its fleet to the same ``run_fleet`` as
        ``scaled_phase1``: every campaign-level number is equal."""
        result = MultiGridSimulation(_single_grid()).run()["hcmd"]
        ref = monolithic_reference
        assert result.completion_time == ref.completion_time
        assert result.server.stats == ref.server.stats
        assert result.n_hosts == ref.n_hosts
        for series in ("daily_cpu_s", "daily_results", "daily_useful"):
            np.testing.assert_array_equal(
                getattr(result.telemetry, series), getattr(ref.telemetry, series)
            )

    def test_forced_router_path_matches_monolithic(self, monolithic_reference):
        """A one-campaign roster and a campaign alone run behind the same
        router; what each hands the storage server is the same (one
        materializer prices both)."""
        grid = MultiGridSimulation(_single_grid()).run()
        routed, ref = grid["hcmd"], monolithic_reference
        assert grid.grid_telemetry is not None
        assert routed.telemetry.shipments == ref.telemetry.shipments
        np.testing.assert_array_equal(routed.release_order, ref.release_order)
        np.testing.assert_array_equal(
            routed.batch_completion_s, ref.batch_completion_s
        )
        assert (
            routed.telemetry.total_claimed_credit
            == ref.telemetry.total_claimed_credit
        )

    def test_one_builder_makes_the_roster_and_shard_specs(self):
        """Checked at setup, before any run: the N=1 roster spec is the
        campaign's own spec field for field (its roster entry aside), and
        shard slices from the same builder concatenate to its workunits."""
        roster = MultiGridSimulation(GridConfig(
            campaigns=(Campaign.cross_docking("hcmd", scale=900, n_proteins=5),),
            seed=42,
        )).specs[0]
        sim = scaled_phase1(scale=900, n_proteins=5, seed=42)
        alone = sim.runtime_spec()
        assert roster.campaign is not None and alone.campaign is None
        assert roster.workunits == alone.workunits  # ids, batches, costs
        np.testing.assert_array_equal(roster.release_order, alone.release_order)
        for name in (
            "batch_bytes", "total_reference_s", "server_config", "scale",
            "id_base",
        ):
            assert getattr(roster, name) == getattr(alone, name), name
        shards = [
            RuntimeSpec.cross_docking(
                sim.campaign, sim.plan, sim.server_config, sim.scale,
                shard.batch_lo, shard.batch_hi, shard.wu_id_base,
            )
            for shard in plan_shards(sim, 3)
        ]
        assert [wu for spec in shards for wu in spec.workunits] == alone.workunits

    def test_n1_trace_identical_under_full_tracing(self):
        """The N=1 router trace *is* the monolithic one, plus the
        ``grid.*`` events and the ``campaign=`` stamp — compared modulo
        exactly those."""
        def run_traced(run):
            ring = RingSink(capacity=2_000_000)
            run(Tracer(sink=ring))
            return [
                (
                    e.etype, e.t_sim,
                    {k: v for k, v in e.fields.items() if k != "campaign"},
                )
                for e in ring.events
                if not e.etype.startswith("grid.")
            ]

        mono = run_traced(
            lambda tr: scaled_phase1(
                scale=SCALE, n_proteins=N_PROTEINS, seed=SEED, tracer=tr
            ).run()
        )
        multi = run_traced(
            lambda tr: MultiGridSimulation(_single_grid(), tracer=tr).run()
        )
        assert len(mono) > 500
        assert mono == multi

    def test_grid_result_reconciles_with_campaign(self):
        grid = MultiGridSimulation(_single_grid()).run()
        assert grid.completion_time == grid["hcmd"].completion_time
        assert grid.merged_stats() == grid["hcmd"].server.stats
        assert grid.issued_share() == {"hcmd": 1.0}

    def test_n1_roster_keeps_its_campaigns_retries(self):
        """An agent refused before its first assignment retries on behalf
        of the one campaign there is: the roster entry's error budget is
        the campaign's alone, none of it parked on the grid telemetry."""
        faults = FaultPlan.from_spec("outage=10x72,loss=0.2")
        grid = MultiGridSimulation(_single_grid(faults=faults)).run()
        alone = scaled_phase1(
            scale=SCALE, n_proteins=N_PROTEINS, seed=SEED, faults=faults
        ).run()
        retries = alone.fault_report().injected["retries"]
        assert retries > 0
        assert grid["hcmd"].fault_report().injected["retries"] == retries
        assert grid.fault_report().injected["retries"] == retries
        assert "fault.retries" not in grid.grid_telemetry.registry.names()


class TestServerFactoryOnARoster:
    def test_every_roster_server_is_built_by_the_factory(self):
        """``server_factory`` builds the server of every runtime the
        engine body starts, a roster's included, and changes nothing."""
        sim = MultiGridSimulation(_two_campaign_grid())
        built = []

        def factory(**kwargs):
            built.append(kwargs["id_base"])
            return GridServer(**kwargs)

        def run(**extra):
            _, results = run_campaigns(
                sim.fleet, sim.specs,
                policy=make_policy(sim.config.policy, sim.config.seed),
                grid_telemetry=Telemetry(sim.horizon_s),
                **extra,
            )
            return results

        made, plain = run(server_factory=factory), run()
        assert built == [0, WU_ID_STRIDE]
        for result, ref in zip(made, plain):
            assert result.server.stats == ref.server.stats
            assert result.completion_time == ref.completion_time
            for series in ("daily_cpu_s", "daily_results", "daily_useful"):
                np.testing.assert_array_equal(
                    getattr(result.telemetry, series),
                    getattr(ref.telemetry, series),
                )

    def test_a_roster_missing_a_part_is_refused_at_once(self):
        """Several runtimes need a policy, a grid telemetry and a roster
        entry each; a missing one is refused before the fleet runs."""
        sim = MultiGridSimulation(_two_campaign_grid())
        policy = make_policy(sim.config.policy, sim.config.seed)
        telemetry = Telemetry(sim.horizon_s)
        alone = dataclasses.replace(sim.specs[1], campaign=None)
        for specs, kwargs in (
            (sim.specs, {"grid_telemetry": telemetry}),
            (sim.specs, {"policy": policy}),
            ([sim.specs[0], alone], {"policy": policy, "grid_telemetry": telemetry}),
        ):
            with pytest.raises(ValueError, match="a roster needs a policy"):
                run_campaigns(sim.fleet, specs, **kwargs)


class TestDeterminism:
    def test_midrun_submission_replays_identically(self):
        a = MultiGridSimulation(_two_campaign_grid()).run()
        b = MultiGridSimulation(_two_campaign_grid()).run()
        assert list(a.campaigns) == list(b.campaigns)
        for name in a.campaigns:
            assert a[name].server.stats == b[name].server.stats
            assert a[name].completion_time == b[name].completion_time
        assert a.issued_share() == b.issued_share()

    def test_workunit_id_namespaces_are_strided(self):
        ring = RingSink(capacity=500_000)
        tracer = Tracer(sink=ring, channels=("server",))
        MultiGridSimulation(_two_campaign_grid(), tracer=tracer).run()
        issued: dict[str, set[int]] = {}
        for e in ring.events:
            if e.etype == "server.issue":
                issued.setdefault(e.fields["campaign"], set()).add(
                    e.fields["wu"]
                )
        assert all(i < WU_ID_STRIDE for i in issued["hcmd"])
        assert all(
            WU_ID_STRIDE <= i < 2 * WU_ID_STRIDE for i in issued["malaria"]
        )


class TestLifecycle:
    def test_no_issues_before_submit_week(self):
        ring = RingSink(capacity=500_000)
        tracer = Tracer(sink=ring, channels=("grid", "server"))
        MultiGridSimulation(_two_campaign_grid(), tracer=tracer).run()
        admits = [e for e in ring.events if e.etype == "grid.admit"]
        by_campaign = {e.fields["campaign"]: e.t_sim for e in admits}
        assert by_campaign["hcmd"] == 0.0
        assert by_campaign["malaria"] == weeks(2.0)
        malaria_issues = [
            e.t_sim
            for e in ring.events
            if e.etype == "server.issue" and e.fields.get("campaign") == "malaria"
        ]
        assert malaria_issues
        assert min(malaria_issues) >= weeks(2.0)

    def test_drain_stops_new_issues(self):
        config = GridConfig(
            campaigns=(
                Campaign.cross_docking(
                    "hcmd", scale=SCALE, n_proteins=N_PROTEINS
                ),
                Campaign.screening(
                    "malaria", n_ligands=5_000, mean_hours=1.0,
                    drain_week=4.0,
                ),
            ),
            seed=7,
            horizon_weeks=20.0,
            n_hosts_peak=12,
        )
        ring = RingSink(capacity=500_000)
        tracer = Tracer(sink=ring, channels=("grid", "server"))
        result = MultiGridSimulation(config, tracer=tracer).run()
        drains = [e for e in ring.events if e.etype == "grid.drain"]
        assert [e.fields["campaign"] for e in drains] == ["malaria"]
        t_drain = drains[0].t_sim
        assert t_drain == weeks(4.0)
        malaria_issues = [
            e.t_sim
            for e in ring.events
            if e.etype == "server.issue" and e.fields.get("campaign") == "malaria"
        ]
        assert malaria_issues
        assert max(malaria_issues) <= t_drain
        # 5000 h of screening cannot finish in 4 weeks on 12 hosts; the
        # drain parks it incomplete while hcmd runs to completion.
        assert result["malaria"].completion_time is None
        assert result["hcmd"].completion_time is not None

    def test_completion_events_emitted_once_per_campaign(self):
        ring = RingSink(capacity=500_000)
        tracer = Tracer(sink=ring, channels=("grid",))
        result = MultiGridSimulation(_two_campaign_grid(), tracer=tracer).run()
        completes = [e for e in ring.events if e.etype == "grid.complete"]
        assert sorted(e.fields["campaign"] for e in completes) == [
            "hcmd", "malaria",
        ]
        for e in completes:
            assert e.fields["validated"] == (
                result[e.fields["campaign"]].server.n_validated
            )


class TestThreePhasePrioritization:
    def test_full_power_doubles_the_control_phase_throughput(self):
        """Section 5.1's phase-II inflection on a fixed fleet: the weight
        step 7 % -> 45 % alone at least doubles HCMD's mean daily CPU
        (control ends week 9, full power spans weeks 13..26)."""
        grid = three_phase_scenario(
            scale=25.0, n_proteins=8, n_ligands=4_000, n_hosts_peak=12
        )
        hcmd = MultiGridSimulation(grid).run()["hcmd"]
        daily = hcmd.telemetry.daily_cpu_s
        control = daily[: 9 * 7].mean()
        full_power = daily[13 * 7 : 26 * 7].mean()
        assert control > 0.0
        assert full_power >= 2.0 * control
        # the inflection is the scheduler's: the fleet never changes
        assert hcmd.n_hosts == grid.n_hosts_peak


class TestQuota:
    def test_quota_caps_share_of_issued_work(self):
        config = GridConfig(
            campaigns=(
                Campaign.screening(
                    "capped", n_ligands=400, mean_hours=1.0,
                    batch_size=50, quota_fraction=0.25,
                ),
                Campaign.screening(
                    "open", n_ligands=400, mean_hours=1.0, batch_size=50,
                ),
            ),
            seed=11,
            horizon_weeks=4.0,
            n_hosts_peak=12,
        )
        result = MultiGridSimulation(config).run()
        shares = result.issued_share()
        # Both campaigns stay hungry for the whole horizon, so the quota
        # binds: the capped campaign's share sits at ~0.25 (slack for
        # issue granularity), and the grid stays work-conserving.
        assert shares["capped"] <= 0.35
        assert shares["capped"] + shares["open"] == pytest.approx(1.0)


class TestSharedServerPolicy:
    def test_campaigns_given_one_config_keep_separate_streaks(self):
        """A ``ServerConfig`` is a value: two roster campaigns handed the
        same object run as if each had its own equal copy."""
        from repro.boinc.server import ServerConfig
        from repro.boinc.validator import AdaptiveReplication, ValidationPolicy

        def policy():
            return ServerConfig(
                validation=ValidationPolicy(switch_time=weeks(16.0)),
                adaptive=AdaptiveReplication(trust_after=2, spot_check_rate=0.25),
            )

        def run(server_a, server_b):
            return MultiGridSimulation(GridConfig(
                campaigns=(
                    Campaign.cross_docking(
                        "a", scale=SCALE, n_proteins=N_PROTEINS, server=server_a
                    ),
                    Campaign.screening(
                        "b", n_ligands=120, mean_hours=1.0, batch_size=20,
                        server=server_b,
                    ),
                ),
                seed=7, horizon_weeks=40.0, n_hosts_peak=12,
            )).run()

        shared = policy()
        together, apart = run(shared, shared), run(policy(), policy())
        for name in ("a", "b"):
            assert together[name].server.stats == apart[name].server.stats
            assert together[name].completion_time == apart[name].completion_time
        tables = [together[name].server.adaptive for name in ("a", "b")]
        assert tables[0] is not tables[1]
        assert all(table.streaks() for table in tables)
        assert tables[0].streaks() != tables[1].streaks()
        assert shared.adaptive.streaks() == {}


class TestObserversOnARoster:
    """``health=`` / ``ledger=`` reach the roster through the engine body
    the single campaign uses, so they mean the same thing on both."""

    @pytest.fixture(scope="class")
    def observed_sim(self):
        return MultiGridSimulation(
            _two_campaign_grid(), health=True, ledger=True
        )

    @pytest.fixture(scope="class")
    def observed(self, observed_sim):
        return observed_sim.run()

    def test_observed_grid_is_bit_identical(self, observed):
        bare = MultiGridSimulation(_two_campaign_grid()).run()
        assert bare.health is None and bare.ledger is None
        assert observed.n_hosts == bare.n_hosts
        for name, ref in bare.campaigns.items():
            result = observed[name]
            assert result.server.stats == ref.server.stats
            assert result.completion_time == ref.completion_time
            for series in ("daily_cpu_s", "daily_results", "daily_useful"):
                np.testing.assert_array_equal(
                    getattr(result.telemetry, series),
                    getattr(ref.telemetry, series),
                )

    def test_n1_reports_equal_the_single_campaigns(self):
        """The observers fold neither ``grid.*`` events nor (the ledger's
        ``by_campaign`` block aside) the ``campaign=`` stamp, and the N=1
        router answers the front protocol with its one campaign's values:
        the reports are equal field for field."""
        grid = MultiGridSimulation(
            _single_grid(), health=True, ledger=True
        ).run()
        ref = scaled_phase1(
            scale=SCALE, n_proteins=N_PROTEINS, seed=SEED,
            health=True, ledger=True,
        ).run()
        assert grid.health.as_dict() == ref.health.as_dict()
        fleet, ref_fleet = grid.ledger.as_dict(), ref.ledger.as_dict()
        assert ref_fleet.pop("by_campaign") == {}
        assert list(fleet.pop("by_campaign")) == ["hcmd"]
        assert fleet == ref_fleet

    def test_second_run_reports_the_same(self, observed_sim, observed):
        """Fresh observers per run, as on the single campaign."""
        again = observed_sim.run()
        assert again.health.as_dict() == observed.health.as_dict()
        assert again.ledger.as_dict() == observed.ledger.as_dict()

    def test_ledger_reconciles_with_each_campaigns_stats(self, observed):
        by_campaign = observed.ledger.by_campaign
        assert set(by_campaign) == set(observed.campaigns)
        for name, result in observed.campaigns.items():
            stats = result.server.stats
            assert by_campaign[name] == {
                "results": stats.disclosed,
                "validated": stats.effective,
                "invalid": stats.invalid,
                "late": stats.late,
            }
        merged = observed.merged_stats()
        assert observed.ledger.totals["results"] == merged.disclosed
        assert observed.ledger.totals["validated"] == merged.effective

    def test_router_answers_the_front_protocol(self):
        """What ``run_fleet`` reads from a front besides the agent surface
        (see ``repro.boinc.fleet``): the loosest reissue budget, all the
        workunits, the last completion."""
        from repro.boinc.server import ServerConfig

        tight, loose = ServerConfig(max_reissues=3), ServerConfig(max_reissues=9)
        config = GridConfig(
            campaigns=(
                Campaign.screening(
                    "a", n_ligands=30, mean_hours=1.0, batch_size=10,
                    server=tight,
                ),
                Campaign.screening(
                    "b", n_ligands=20, mean_hours=1.0, batch_size=10,
                    server=loose,
                ),
            ),
            seed=3,
            horizon_weeks=20.0,
            n_hosts_peak=8,
        )
        seen = {}

        class Probe(HealthMonitor):
            def configure_campaign(self, n_workunits, max_reissues):
                seen.update(n_workunits=n_workunits, max_reissues=max_reissues)
                super().configure_campaign(n_workunits, max_reissues)

        result = MultiGridSimulation(config, health=Probe()).run()
        assert seen == {"n_workunits": 50, "max_reissues": 9}
        assert result.completion_time is not None
        assert result.health.t_end == result.completion_time
