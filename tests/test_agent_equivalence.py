"""Campaign-level equivalence: the availability walk vs the stepped agent.

``VolunteerAgent._compute_step`` walks a host's precomputed availability
trace in one call; ``tests.oracles.agent.SteppedAgent`` fires an
``_interrupt`` and a ``_when_available`` event per gap, as the agent used
to.  Each agent draws only from its own stream and its host's fault
stream, so a seeded campaign must produce a bit-identical
``CampaignResult`` — and, with ``des.*`` filtered out, the same event
trace — with either.  These tests monkeypatch the agent class the fleet
recruits and compare whole trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.boinc.fleet as fleet_mod
from repro.boinc import CampaignConfig, scaled_phase1
from repro.boinc.agent import VolunteerAgent
from repro.faults import FaultPlan
from repro.multi import Campaign, GridConfig, MultiGridSimulation
from repro.obs import Tracer
from tests.oracles.agent import SteppedAgent

FAULTS = "crash=5,corrupt=0.05,sabotage=0.02,loss=0.1"


def _with_each_agent(monkeypatch, build):
    """``build()`` with the fleet recruiting the product agent, then the oracle."""
    runs = []
    for agent_cls in (VolunteerAgent, SteppedAgent):
        monkeypatch.setattr(fleet_mod, "VolunteerAgent", agent_cls)
        runs.append(build())
    return runs


def _phase1(faults: str = "", traced: bool = False):
    def build():
        tracer = Tracer() if traced else None
        config = CampaignConfig(faults=FaultPlan.from_spec(faults))
        result = scaled_phase1(
            scale=300, n_proteins=10, seed=7, config=config, tracer=tracer
        ).run()
        return result, tracer
    return build


def _two_campaign_grid():
    return MultiGridSimulation(GridConfig(
        campaigns=(
            Campaign.cross_docking("hcmd", scale=900, n_proteins=5),
            Campaign.screening(
                "malaria", n_ligands=120, mean_hours=1.0,
                batch_size=20, submit_week=2.0,
            ),
        ),
        seed=7,
        horizon_weeks=40.0,
        n_hosts_peak=12,
    )).run()


def _lifecycle(tracer):
    """Trace event tuples with the kernel's own ``des.*`` events dropped."""
    return [
        (e.etype, e.t_sim, tuple(sorted(e.fields.items())))
        for e in tracer.sink.events
        if not e.etype.startswith("des.")
    ]


def _assert_results_bit_identical(a, b):
    assert a.completion_time == b.completion_time
    np.testing.assert_array_equal(a.batch_completion_s, b.batch_completion_s)
    assert a.server.stats == b.server.stats
    for series in ("daily_cpu_s", "daily_results", "daily_useful"):
        np.testing.assert_array_equal(
            getattr(a.telemetry, series), getattr(b.telemetry, series)
        )
    assert a.telemetry.run_active_s == b.telemetry.run_active_s
    assert a.telemetry.total_claimed_credit == b.telemetry.total_claimed_credit
    assert a.telemetry.registry.as_dict() == b.telemetry.registry.as_dict()


@pytest.mark.parametrize("faults", ["", FAULTS], ids=["fault-free", "faulted"])
class TestPhase1Equivalence:
    def test_untraced_result_bit_identical(self, monkeypatch, faults):
        (walk, _), (stepped, _) = _with_each_agent(monkeypatch, _phase1(faults))
        _assert_results_bit_identical(walk, stepped)
        # The oracle really is the two-events-per-gap chain.
        assert walk.server.sim.events_processed < stepped.server.sim.events_processed

    def test_traced_lifecycle_identical(self, monkeypatch, faults):
        (walk, walk_tr), (stepped, stepped_tr) = _with_each_agent(
            monkeypatch, _phase1(faults, traced=True)
        )
        _assert_results_bit_identical(walk, stepped)
        assert _lifecycle(walk_tr) == _lifecycle(stepped_tr)
        assert walk_tr.counts["agent.checkpoint"] > 0


def test_two_campaign_grid_bit_identical(monkeypatch):
    walk, stepped = _with_each_agent(monkeypatch, _two_campaign_grid)
    assert list(walk.campaigns) == list(stepped.campaigns)
    for name in walk.campaigns:
        _assert_results_bit_identical(walk[name], stepped[name])
    assert (
        walk.grid_telemetry.registry.as_dict()
        == stepped.grid_telemetry.registry.as_dict()
    )
