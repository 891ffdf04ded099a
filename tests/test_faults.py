"""Chaos suite for repro.faults: seeded fault injection end to end.

Two contracts dominate:

* **bit-identity** — an empty :class:`FaultPlan` must leave seeded
  campaigns byte-for-byte identical to a campaign with no plan at all
  (pinned against recorded golden trace digests);
* **graceful degradation** — under every fault class the campaign still
  terminates, corrupted/sabotaged results are rejected or surfaced in
  the error budget, and a bounded reissue budget converts repeated
  failure into terminal ``failed`` workunits instead of a hang.

``REPRO_BENCH_SMOKE=1`` shrinks the campaign-scale cases to a quick
smoke tier (same assertions, smaller fleets).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.boinc import CampaignConfig, scaled_phase1
from repro.boinc.server import GridServer, ServerConfig
from repro.boinc.validator import ValidationPolicy
from repro.core.workunit import WorkUnit
from repro.faults import (
    CorruptionFaults,
    CrashFaults,
    FaultPlan,
    OutageFaults,
    ReportLossFaults,
    ResultQuality,
    SabotageFaults,
    ServerUnavailable,
)
from repro.grid.des import Simulator
from repro.maxdo.resultfile import ResultTable
from repro.obs import Tracer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: (scale, n_proteins) for campaign-scale cases — smoke tier shrinks them
CAMPAIGN = (900, 5) if SMOKE else (500, 8)

pytestmark = pytest.mark.chaos


def _trace_digest(tracer):
    h = hashlib.sha256()
    for e in tracer.sink.events:
        h.update(repr((e.etype, e.t_sim, tuple(sorted(e.fields.items())))).encode())
    return h.hexdigest()


def _run(plan=None, seed=None, scale=300, n_proteins=10, horizon_weeks=40.0):
    tracer = Tracer()
    cfg = CampaignConfig() if plan is None else CampaignConfig(faults=plan)
    kw = {} if seed is None else {"seed": seed}
    result = scaled_phase1(
        scale=scale, n_proteins=n_proteins, horizon_weeks=horizon_weeks,
        config=cfg, tracer=tracer, **kw,
    ).run()
    return result, tracer


# -- plan composition / parsing ---------------------------------------------


class TestFaultPlan:
    def test_none_is_disabled(self):
        plan = FaultPlan.none()
        assert not plan.enabled
        assert plan.host_state(seed=1, host_id=0) is None
        assert plan.outage_windows(seed=1, horizon_s=1e6) == ()
        assert plan.describe() == "no faults"

    def test_with_composes(self):
        plan = FaultPlan.none().with_(corruption=CorruptionFaults(prob=0.2))
        assert plan.enabled
        assert plan.corruption.prob == 0.2
        assert plan.crashes is None

    def test_from_spec_full(self):
        plan = FaultPlan.from_spec(
            "crash=5, corrupt=0.05, sabotage=0.02, outage=3x8, loss=0.1, "
            "maxreissue=7"
        )
        assert plan.crashes.mtbf_active_days == 5.0
        assert plan.corruption.prob == 0.05
        assert plan.sabotage.host_fraction == 0.02
        assert plan.outages == OutageFaults(n_windows=3, mean_duration_h=8.0)
        assert plan.report_loss.prob == 0.1
        assert plan.max_reissues == 7

    def test_from_spec_outage_default_duration(self):
        plan = FaultPlan.from_spec("outage=2")
        assert plan.outages == OutageFaults(n_windows=2, mean_duration_h=12.0)

    def test_from_spec_empty_is_none(self):
        assert FaultPlan.from_spec("") == FaultPlan.none()
        assert FaultPlan.from_spec("  ") == FaultPlan.none()

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.from_spec("gremlins=3")
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.from_spec("corrupt")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CrashFaults(mtbf_active_days=0.0)
        with pytest.raises(ValueError):
            CorruptionFaults(prob=1.5)
        with pytest.raises(ValueError):
            SabotageFaults(host_fraction=-0.1)
        with pytest.raises(ValueError):
            ReportLossFaults(prob=1.0)
        with pytest.raises(ValueError):
            FaultPlan(max_reissues=-1)

    def test_host_state_deterministic_and_stable_under_growth(self):
        plan = FaultPlan(sabotage=SabotageFaults(host_fraction=0.5))
        a = [plan.host_state(7, i).saboteur for i in range(50)]
        b = [plan.host_state(7, i).saboteur for i in range(50)]
        assert a == b
        assert any(a) and not all(a)

    def test_outage_windows_sorted_disjoint_within_horizon(self):
        plan = FaultPlan(outages=OutageFaults(n_windows=6, mean_duration_h=48.0))
        windows = plan.outage_windows(seed=3, horizon_s=5e6)
        assert windows == plan.outage_windows(seed=3, horizon_s=5e6)
        for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
            assert e0 < s1
        for s, e in windows:
            assert 0.0 <= s < e <= 5e6


# -- the non-negotiable invariant -------------------------------------------


class TestEmptyPlanBitIdentity:
    """FaultPlan.none() campaigns match the pre-fault-subsystem traces."""

    # sha256 over (etype, t_sim, sorted fields) of every trace event,
    # the kernel's des.* events included.  Re-pinned when the span
    # correlation fields (copy/receptor/ligand/host) joined the event
    # payloads, again when the host-ledger events (host.credit on the
    # unfiltered trace) joined the stream, and again when availability
    # interruptions stopped firing DES events (the agent walks its trace;
    # only the des.* events moved).  The completion times are the original
    # pre-fault-subsystem values — the trajectory itself never moved.
    GOLDEN = {
        (300, 10, None): (
            "0e16fdd048f5806eb22d1541b0c89d6f3aaca3cb54c520918d9e7d6ff6f99c27",
            10695940.733569192,
        ),
        (500, 8, 7): (
            "e7140520b68016eb75ba9987c95172763468d4586885771a4d9e89d135d6ad5e",
            8987859.456949988,
        ),
    }

    @pytest.mark.slow
    @pytest.mark.parametrize("scale,n_proteins,seed", sorted(
        GOLDEN, key=str), ids=["s300p10", "s500p8seed7"])
    def test_matches_pre_fault_golden_trace(self, scale, n_proteins, seed):
        digest, completion = self.GOLDEN[(scale, n_proteins, seed)]
        result, tracer = _run(
            plan=FaultPlan.none(), seed=seed, scale=scale, n_proteins=n_proteins
        )
        assert result.completion_time == completion
        assert _trace_digest(tracer) == digest

    def test_no_plan_equals_empty_plan(self):
        with_plan, tr_a = _run(plan=FaultPlan.none(), scale=700, n_proteins=6)
        without, tr_b = _run(plan=None, scale=700, n_proteins=6)
        assert _trace_digest(tr_a) == _trace_digest(tr_b)
        assert with_plan.completion_time == without.completion_time
        assert (
            with_plan.telemetry.registry.as_dict()
            == without.telemetry.registry.as_dict()
        )

    def test_fault_free_stats_have_zero_fault_counters(self):
        result, _ = _run(plan=FaultPlan.none(), scale=700, n_proteins=6)
        s = result.server.stats
        assert (s.failed, s.bad_validated, s.sabotage_caught, s.refused_rpcs) \
            == (0, 0, 0, 0)
        assert not any(
            name.startswith("fault.")
            for name in result.telemetry.registry.as_dict()
        )


# -- per-fault-class campaigns ----------------------------------------------


def _assert_terminates(result):
    """A faulty campaign must close every workunit (validated or failed)."""
    s = result.server.stats
    assert result.completion_time is not None
    assert s.effective + s.failed == result.server.n_workunits


class TestCrashFaults:
    def test_crashes_inject_and_campaign_terminates(self):
        scale, n_proteins = CAMPAIGN
        plan = FaultPlan(crashes=CrashFaults(mtbf_active_days=2.0))
        result, tracer = _run(plan=plan, scale=scale, n_proteins=n_proteins)
        _assert_terminates(result)
        assert tracer.counts.get("fault.crash", 0) > 0
        reg = result.telemetry.registry
        assert reg.get("fault.crashes").value == tracer.counts["fault.crash"]

    def test_crashes_cost_wall_clock(self):
        scale, n_proteins = CAMPAIGN
        base, _ = _run(scale=scale, n_proteins=n_proteins)
        crashed, _ = _run(
            plan=FaultPlan(crashes=CrashFaults(mtbf_active_days=1.0)),
            scale=scale, n_proteins=n_proteins,
        )
        _assert_terminates(crashed)
        # Lost un-checkpointed progress must be recomputed: the same
        # workload consumes strictly more accounted device time.
        assert (
            crashed.server.stats.consumed_cpu_s
            > base.server.stats.consumed_cpu_s
        )


class TestCorruptionFaults:
    def test_corrupted_results_rejected_and_reissued(self):
        scale, n_proteins = CAMPAIGN
        plan = FaultPlan(corruption=CorruptionFaults(prob=0.25))
        result, tracer = _run(plan=plan, scale=scale, n_proteins=n_proteins)
        _assert_terminates(result)
        n_corrupt = tracer.counts.get("fault.corrupt", 0)
        assert n_corrupt > 0
        # Every corrupted result is detectable -> counted invalid; the
        # fault-free invalidity draw adds more on top.
        assert result.server.stats.invalid >= n_corrupt
        # None of them validated a workunit.
        assert result.server.stats.bad_validated == 0
        # Rejection forces reissues.
        assert tracer.counts.get("server.reissue", 0) > 0


class TestSabotageFaults:
    def test_saboteurs_caught_by_quorum_but_not_bounds(self):
        # Not smoke-shrunk: the smoke fleet is so small that the few
        # early-joining hosts do every quorum, so saboteur/honest pairs
        # (the thing this test is about) never mix.
        scale, n_proteins = 500, 8
        plan = FaultPlan(sabotage=SabotageFaults(host_fraction=0.3))
        result, tracer = _run(plan=plan, scale=scale, n_proteins=n_proteins)
        _assert_terminates(result)
        s = result.server.stats
        assert tracer.counts.get("fault.sabotage", 0) > 0
        # The two possible fates both occur at a 30% saboteur share over a
        # quorum->bounds campaign: quorum comparison catches some, and the
        # bounds era (no partner to disagree) lets some validate badly.
        assert s.sabotage_caught > 0
        assert s.bad_validated > 0
        assert result.fault_report().bad_validated_fraction > 0.0

    def test_all_saboteurs_quorum_only_never_validates_cleanly(self):
        # Every host sabotages; quorum era for the whole horizon.  Pairs of
        # agreeing-but-wrong results meet the quorum, so validations happen
        # but every one is tainted.
        plan = FaultPlan(sabotage=SabotageFaults(host_fraction=1.0))
        cfg = CampaignConfig(
            faults=plan,
            server=ServerConfig(validation=ValidationPolicy(switch_time=1e12)),
        )
        result = scaled_phase1(
            scale=900, n_proteins=5, config=cfg, horizon_weeks=40.0
        ).run()
        s = result.server.stats
        assert s.effective > 0
        assert s.bad_validated == s.effective


class TestOutageFaults:
    def test_rpcs_refused_and_retried_during_windows(self):
        # Not smoke-shrunk: outage windows are drawn over the 40-week
        # horizon, and the smoke campaign finishes so early that no RPC
        # ever lands inside one.
        scale, n_proteins = 500, 8
        plan = FaultPlan(outages=OutageFaults(n_windows=4, mean_duration_h=36.0))
        result, tracer = _run(plan=plan, scale=scale, n_proteins=n_proteins)
        _assert_terminates(result)
        assert tracer.counts.get("server.refuse", 0) > 0
        assert tracer.counts.get("agent.retry", 0) > 0
        assert result.server.stats.refused_rpcs == tracer.counts["server.refuse"]
        # Windows open and close in pairs.
        begins = [
            e for e in tracer.sink.events
            if e.etype == "fault.outage" and e.fields["phase"] == "begin"
        ]
        ends = [
            e for e in tracer.sink.events
            if e.etype == "fault.outage" and e.fields["phase"] == "end"
        ]
        assert len(begins) == len(ends) > 0
        # No refusal outside a window.
        windows = result.server.config.outages
        for e in tracer.sink.events:
            if e.etype == "server.refuse":
                assert any(s <= e.t_sim < en for s, en in windows)


class TestReportLossFaults:
    def test_lost_reports_retried_until_delivered(self):
        scale, n_proteins = CAMPAIGN
        plan = FaultPlan(report_loss=ReportLossFaults(prob=0.3))
        result, tracer = _run(plan=plan, scale=scale, n_proteins=n_proteins)
        _assert_terminates(result)
        n_lost = tracer.counts.get("fault.report_lost", 0)
        assert n_lost > 0
        assert tracer.counts.get("agent.retry", 0) >= n_lost
        # Loss delays but never destroys results: every loss is eventually
        # followed by a successful report, so the disclosed total is intact.
        base, _ = _run(scale=scale, n_proteins=n_proteins)
        assert result.server.stats.effective == base.server.stats.effective


class TestBoundedReissue:
    def test_budget_exhaustion_fails_workunit_and_campaign_completes(self):
        # Perfectly unreliable hosts: every result invalid, every reissue
        # burns budget; without max_reissues this campaign would never
        # validate anything and run to the horizon.
        plan = FaultPlan(max_reissues=3)
        cfg = CampaignConfig(
            faults=plan,
            host_model=None,
        )
        tracer = Tracer()
        sim = scaled_phase1(
            scale=900, n_proteins=5, config=cfg, tracer=tracer
        )
        sim.host_model = sim.host_model.with_profile(reliability=0.0)
        result = sim.run()
        s = result.server.stats
        assert s.failed > 0
        assert s.effective == 0
        assert result.completion_time is not None  # degraded, not hung
        assert tracer.counts.get("server.workunit_failed", 0) == s.failed
        report = result.fault_report()
        assert report.workunits_failed == s.failed
        assert report.failed_fraction == 1.0

    def test_unit_level_budget(self):
        sim = Simulator()
        config = ServerConfig(
            deadline_s=1e9,
            validation=ValidationPolicy(switch_time=0.0),
            max_reissues=2,
        )
        wu = WorkUnit(wu_id=0, receptor=0, ligand=0, isep_start=1, nsep=5,
                      cost_reference_s=100.0)
        server = GridServer(sim, [(wu, 0)], config=config)
        for _ in range(3):  # reissues 1, 2, then the budget-busting 3rd
            inst = server.request_work(1)
            assert inst is not None
            server.on_result(inst, valid=False, accounted_cpu_s=1.0)
        assert server.stats.failed == 1
        assert server.completion_time is not None
        assert server.request_work(1) is None


# -- server outage unit tests ------------------------------------------------


class TestServerOutageUnit:
    def _server(self, sim, outages):
        config = ServerConfig(
            validation=ValidationPolicy(switch_time=0.0), outages=outages
        )
        wu = WorkUnit(wu_id=0, receptor=0, ligand=0, isep_start=1, nsep=5,
                      cost_reference_s=100.0)
        return GridServer(sim, [(wu, 0)], config=config)

    def test_request_work_refused_inside_window(self):
        sim = Simulator()
        server = self._server(sim, outages=((10.0, 20.0),))
        sim.run(until=15.0)
        with pytest.raises(ServerUnavailable) as exc:
            server.request_work(1)
        assert exc.value.until == 20.0
        assert server.stats.refused_rpcs == 1

    def test_on_result_refused_without_recording(self):
        sim = Simulator()
        server = self._server(sim, outages=((10.0, 20.0),))
        inst = server.request_work(1)
        sim.run(until=15.0)
        with pytest.raises(ServerUnavailable):
            server.on_result(inst, valid=True, accounted_cpu_s=5.0)
        assert server.stats.disclosed == 0
        assert not inst.reported  # the agent may retry the same instance
        sim.run(until=25.0)
        server.on_result(inst, valid=True, accounted_cpu_s=5.0)
        assert server.stats.effective == 1

    def test_rpcs_accepted_again_after_window(self):
        sim = Simulator()
        server = self._server(sim, outages=((10.0, 20.0),))
        sim.run(until=21.0)
        assert server.request_work(1) is not None


# -- sabotage unit tests -----------------------------------------------------


class TestSabotageUnit:
    def _quorum_server(self, sim):
        config = ServerConfig(validation=ValidationPolicy(switch_time=1e12))
        wu = WorkUnit(wu_id=0, receptor=0, ligand=0, isep_start=1, nsep=5,
                      cost_reference_s=100.0)
        return GridServer(sim, [(wu, 0)], config=config)

    def test_quorum_disagreement_catches_saboteur(self):
        sim = Simulator()
        server = self._quorum_server(sim)
        a = server.request_work(1)
        b = server.request_work(2)
        server.on_result(a, valid=True, accounted_cpu_s=1.0,
                         quality=ResultQuality.SABOTAGED)
        assert server.stats.effective == 0  # one bad vote: no quorum
        server.on_result(b, valid=True, accounted_cpu_s=1.0,
                         quality=ResultQuality.OK)
        # 1 OK + 1 SABOTAGED disagree -> stall; a third copy resolves it.
        c = server.request_work(3)
        assert c is not None
        server.on_result(c, valid=True, accounted_cpu_s=1.0,
                         quality=ResultQuality.OK)
        assert server.stats.effective == 1
        assert server.stats.sabotage_caught == 1
        assert server.stats.bad_validated == 0

    def test_agreeing_saboteurs_validate_tainted(self):
        sim = Simulator()
        server = self._quorum_server(sim)
        a = server.request_work(1)
        b = server.request_work(2)
        for inst in (a, b):
            server.on_result(inst, valid=True, accounted_cpu_s=1.0,
                             quality=ResultQuality.SABOTAGED)
        assert server.stats.effective == 1
        assert server.stats.bad_validated == 1
        assert server.stats.sabotage_caught == 0

    def test_bounds_regime_cannot_catch_sabotage(self):
        sim = Simulator()
        config = ServerConfig(validation=ValidationPolicy(switch_time=0.0))
        wu = WorkUnit(wu_id=0, receptor=0, ligand=0, isep_start=1, nsep=5,
                      cost_reference_s=100.0)
        server = GridServer(sim, [(wu, 0)], config=config)
        inst = server.request_work(1)
        server.on_result(inst, valid=True, accounted_cpu_s=1.0,
                         quality=ResultQuality.SABOTAGED)
        assert server.stats.effective == 1
        assert server.stats.bad_validated == 1


# -- result-file corruption vs validation.checks -----------------------------


def corrupt_energies(
    table: ResultTable, rng: np.random.Generator, n_lines: int = 1
) -> ResultTable:
    """Corrupt ``n_lines`` energy entries of a result table in place.

    Models a cheating client or a torn upload: the total energy of the
    chosen lines is replaced by a garbage magnitude that
    :class:`repro.validation.checks.ValueRanges` must flag (both via the
    absolute-energy bound and the ``e_tot = e_lj + e_elec`` consistency
    rule).  Returns the table for chaining.
    """
    rec = table.records
    if len(rec) == 0:
        return table
    idx = rng.integers(0, len(rec), size=min(n_lines, len(rec)))
    rec["e_tot"][idx] = 1e9
    return table


def truncate_table(table: ResultTable, keep_fraction: float = 0.5) -> ResultTable:
    """A copy of ``table`` with only the first ``keep_fraction`` of lines.

    Models a truncated upload; the line-count check
    (:func:`repro.validation.checks.check_result_file`) must flag the
    mismatch against ``expected_line_count``.
    """
    n = max(1, int(len(table.records) * keep_fraction))
    return ResultTable(header=table.header, records=table.records[:n].copy())


class TestResultFileCorruption:
    NSEP = 3
    N_COUPLES = 4

    def _write(self, path, drop_lines=0):
        from repro.maxdo.resultfile import ResultHeader, write_results
        from tests.oracles.resultfile import format_record

        header = ResultHeader("P1", "P2", 1, self.NSEP, self.N_COUPLES, 10)
        lines = []
        for p in range(self.NSEP):
            for c in range(self.N_COUPLES):
                lines.append(
                    format_record(
                        1 + p,
                        c + 1,
                        1,
                        np.array([10.0, 0.0, 0.0]),
                        np.array([0.1, 0.2, 0.3]),
                        -3.0,
                        1.5,
                    )
                )
        if drop_lines:
            lines = lines[:-drop_lines]
        write_results(path, header, lines)
        return path

    def test_corrupt_energies_caught_by_value_ranges(self, tmp_path):
        from repro.maxdo.resultfile import read_results
        from repro.validation.checks import ValueRanges

        table = read_results(self._write(tmp_path / "ok.res"))
        assert ValueRanges().violations(table) == []
        rng = np.random.default_rng(0)
        corrupted = corrupt_energies(table, rng, n_lines=1)
        problems = ValueRanges().violations(corrupted)
        assert "energy out of range" in problems
        assert "energy sum mismatch" in problems

    def test_truncated_table_caught_by_line_count(self, tmp_path):
        from repro.maxdo.resultfile import read_results
        from repro.validation.checks import check_result_file

        intact = self._write(tmp_path / "ok.res")
        assert check_result_file(intact).ok
        cut = self._write(tmp_path / "cut.res", drop_lines=5)
        report = check_result_file(cut)
        assert not report.ok
        assert report.files_with_bad_line_count == ["cut.res"]

    def test_truncate_table_helper_drops_lines(self, tmp_path):
        from repro.maxdo.resultfile import expected_line_count, read_results

        table = read_results(self._write(tmp_path / "ok.res"))
        cut = truncate_table(table, keep_fraction=0.5)
        expected = expected_line_count(
            cut.header.nsep, cut.header.n_couples
        )
        assert 0 < len(cut.records) < expected
        assert len(table.records) == expected  # original untouched
