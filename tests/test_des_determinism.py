"""Campaign-level determinism: fast DES kernel vs the frozen reference.

The ISSUE acceptance criterion for the fast path: a seeded scaled
campaign must produce a bit-identical ``CampaignResult`` and an
identical event-trace sequence whether it runs on the new kernel
(``repro.grid.des``) or the original one (``tests.oracles.des``).
These tests monkeypatch the kernel class the fleet driver builds
(``repro.boinc.fleet.Simulator``) and compare full trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.boinc.fleet as fleet_mod
import repro.boinc.simulator as simulator_mod
from tests.oracles import des as _reference_des
from repro.grid.des import Simulator as FastSimulator
from repro.obs import Tracer


def _run_campaign(monkeypatch, sim_cls, scale=200, n_proteins=12):
    """One traced seeded campaign on the given kernel class."""
    monkeypatch.setattr(fleet_mod, "Simulator", sim_cls)
    tracer = Tracer()
    result = simulator_mod.scaled_phase1(
        scale=scale, n_proteins=n_proteins, tracer=tracer
    ).run()
    assert type(result.server.sim) is sim_cls
    return tracer, result


def _trace_tuples(tracer):
    return [
        (e.etype, e.t_sim, tuple(sorted(e.fields.items())))
        for e in tracer.sink.events
    ]


def _assert_results_bit_identical(a, b):
    assert a.completion_time == b.completion_time
    assert a.server.sim.events_processed == b.server.sim.events_processed
    np.testing.assert_array_equal(a.batch_completion_s, b.batch_completion_s)
    sa, sb = a.server.stats, b.server.stats
    for field in (
        "disclosed", "effective", "invalid", "late", "quorum_extra",
        "consumed_cpu_s", "useful_reference_s",
    ):
        assert getattr(sa, field) == getattr(sb, field), field
    for series in ("daily_cpu_s", "daily_results", "daily_useful",
                   "run_active_s"):
        np.testing.assert_array_equal(
            np.asarray(getattr(a.telemetry, series)),
            np.asarray(getattr(b.telemetry, series)),
        )
    assert a.telemetry.total_claimed_credit == b.telemetry.total_claimed_credit


class TestKernelEquivalenceAtCampaignScale:
    @pytest.fixture(scope="class")
    def runs(self):
        # class-scoped monkeypatching: undo immediately, keep the results
        mp = pytest.MonkeyPatch()
        try:
            fast = _run_campaign(mp, FastSimulator)
            mp.undo()
            ref = _run_campaign(mp, _reference_des.Simulator)
        finally:
            mp.undo()
        return fast, ref

    def test_campaign_result_bit_identical(self, runs):
        (_, fast), (_, ref) = runs
        _assert_results_bit_identical(fast, ref)

    def test_event_trace_sequence_identical(self, runs):
        """Every trace event — including des.schedule / des.fire /
        des.cancel with their times and callback names — matches the
        reference kernel's sequence exactly."""
        (fast_tr, _), (ref_tr, _) = runs
        assert fast_tr.counts == ref_tr.counts
        assert _trace_tuples(fast_tr) == _trace_tuples(ref_tr)

    def test_reference_kernel_really_differs(self):
        # Guard against the oracle silently becoming the fast kernel.
        assert _reference_des.Simulator is not FastSimulator
        assert hasattr(_reference_des.Event, "__dataclass_fields__")


class TestRunTwiceDeterminism:
    def test_same_seed_same_trajectory(self, monkeypatch):
        tr_a, res_a = _run_campaign(monkeypatch, FastSimulator, scale=700,
                                    n_proteins=6)
        tr_b, res_b = _run_campaign(monkeypatch, FastSimulator, scale=700,
                                    n_proteins=6)
        _assert_results_bit_identical(res_a, res_b)
        assert _trace_tuples(tr_a) == _trace_tuples(tr_b)
