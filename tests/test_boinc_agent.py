"""Tests for repro.boinc.agent: the volunteer agent state machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boinc.agent import VolunteerAgent
from repro.boinc.server import GridServer, ServerConfig
from repro.boinc.simulator import Telemetry
from repro.boinc.validator import ValidationPolicy
from repro.core.workunit import WorkUnit
from repro.grid.availability import AvailabilityTrace
from repro.grid.des import Simulator
from repro.grid.host import HostSpec

HORIZON = 200 * 86400.0


def _always_on():
    return AvailabilityTrace(np.array([0.0]), np.array([HORIZON]), HORIZON)


def _spec(trace=None, **kw):
    defaults = dict(
        host_id=0, speed=1.0, duty_cycle=1.0, reliability=1.0,
        abandon_prob=0.0, report_delay_mean_s=1.0,
        trace=trace if trace is not None else _always_on(),
    )
    defaults.update(kw)
    return HostSpec(**defaults)


def _setup(n_wu=2, nsep=4, cost=1000.0, spec=None, switch_time=0.0, deadline=1e7):
    sim = Simulator()
    telemetry = Telemetry(HORIZON)
    wus = [
        (
            WorkUnit(wu_id=k, receptor=0, ligand=0, isep_start=1 + k * nsep,
                     nsep=nsep, cost_reference_s=cost),
            0,
        )
        for k in range(n_wu)
    ]
    server = GridServer(
        sim, wus,
        config=ServerConfig(
            deadline_s=deadline, validation=ValidationPolicy(switch_time=switch_time)
        ),
        on_workunit_valid=lambda wu, t: telemetry.record_validation(t),
    )
    agent = VolunteerAgent(
        sim, server, spec if spec is not None else _spec(), telemetry,
        rng=np.random.default_rng(0),
    )
    return sim, server, agent, telemetry


class TestHappyPath:
    def test_completes_all_work(self):
        sim, server, agent, _ = _setup(n_wu=3)
        sim.schedule_at(0.0, agent.start)
        sim.run(until=HORIZON)
        assert server.completion_time is not None
        assert server.stats.effective == 3
        assert agent.results_returned == 3

    def test_active_time_matches_progress_rate(self):
        spec = _spec(speed=0.5, duty_cycle=0.5)
        sim, server, agent, telemetry = _setup(n_wu=1, cost=1000.0, spec=spec)
        sim.schedule_at(0.0, agent.start)
        sim.run(until=HORIZON)
        # rate = 0.25 -> 4000 s active wall for 1000 s reference.
        assert telemetry.run_active_s[0] == pytest.approx(4000.0)

    def test_accounted_cpu_is_active_wall(self):
        spec = _spec(speed=0.5, duty_cycle=0.5)
        sim, server, agent, _ = _setup(n_wu=1, cost=1000.0, spec=spec)
        sim.schedule_at(0.0, agent.start)
        sim.run(until=HORIZON)
        # The UD accounting bias: consumed 4x the reference cost.
        assert server.stats.consumed_cpu_s == pytest.approx(4000.0)
        assert server.stats.useful_reference_s == pytest.approx(1000.0)


class TestInterruption:
    def test_interrupted_host_still_finishes(self):
        # 1h on / 1h off alternation.
        n = 100
        starts = np.arange(n) * 7200.0
        ends = starts + 3600.0
        trace = AvailabilityTrace(starts, ends, HORIZON)
        sim, server, agent, telemetry = _setup(
            n_wu=1, cost=10_000.0, spec=_spec(trace=trace)
        )
        sim.schedule_at(0.0, agent.start)
        sim.run(until=HORIZON)
        assert server.stats.effective == 1
        # Kills cost extra active time: at least the reference amount spent.
        assert telemetry.run_active_s[0] >= 10_000.0
        assert telemetry.run_active_s[0] == 12200.0
        # The gaps are walked, not fired: start, completion and report are
        # the only events.
        assert sim.events_processed == 3

    def test_checkpoint_losses_bounded_by_chunks(self):
        starts = np.arange(200) * 7200.0
        ends = starts + 3600.0
        trace = AvailabilityTrace(starts, ends, HORIZON)
        sim, server, agent, telemetry = _setup(
            n_wu=1, cost=20_000.0, nsep=10, spec=_spec(trace=trace)
        )
        sim.schedule_at(0.0, agent.start)
        sim.run(until=HORIZON)
        active = telemetry.run_active_s[0]
        # Lost work <= (#interruptions) x chunk; with ~6 interruptions and
        # 2000 s chunks, the overhead stays well under 2x.
        assert 20_000.0 <= active < 40_000.0

    def test_never_available_host_does_nothing(self):
        trace = AvailabilityTrace(np.empty(0), np.empty(0), HORIZON)
        sim, server, agent, _ = _setup(n_wu=1, spec=_spec(trace=trace))
        sim.schedule_at(0.0, agent.start)
        sim.run(until=HORIZON)
        assert server.stats.disclosed == 0


class TestProgressResidualClamp:
    def test_done_overshooting_cost_does_not_crash(self):
        # Float accumulation across many interrupts can leave _done a few
        # ulp past _cost; the residual compute time must clamp to zero
        # instead of asking the kernel for a negative delay.
        import math

        sim, server, agent, _ = _setup(n_wu=1, cost=1000.0)
        instance = server.request_work(0)
        agent.instance = instance
        agent._cost = instance.wu.cost_reference_s
        agent._chunk = agent._cost / instance.wu.nsep
        agent._done = math.nextafter(agent._cost, math.inf)
        agent._active_s = agent._done / agent.spec.progress_rate
        agent._compute_step()  # pre-fix: ValueError from scheduling at -eps
        sim.run(until=HORIZON)
        assert agent.results_returned == 1
        assert server.stats.effective == 1


class TestUnreliability:
    def test_invalid_results_reissued_until_valid(self):
        sim, server, agent, _ = _setup(n_wu=1, spec=_spec(reliability=0.5))
        sim.schedule_at(0.0, agent.start)
        sim.run(until=HORIZON)
        assert server.stats.effective == 1
        assert server.stats.disclosed >= 1
        assert server.stats.invalid == server.stats.disclosed - 1

    def test_abandoning_host_lets_deadline_recover(self):
        # abandon_prob=1: the host never computes; the deadline reclaims
        # copies, but with a single always-abandoning host the work never
        # completes — the stats must show zero results, not a hang.
        sim, server, agent, _ = _setup(
            n_wu=1, deadline=86400.0, spec=_spec(abandon_prob=1.0)
        )
        sim.schedule_at(0.0, agent.start)
        sim.run(until=30 * 86400.0)
        assert server.stats.disclosed == 0
        assert server.completion_time is None

    def test_two_hosts_one_flaky(self):
        sim = Simulator()
        telemetry = Telemetry(HORIZON)
        wus = [(WorkUnit(wu_id=0, receptor=0, ligand=0, isep_start=1, nsep=4,
                         cost_reference_s=1000.0), 0)]
        server = GridServer(
            sim, wus,
            config=ServerConfig(deadline_s=86400.0,
                                validation=ValidationPolicy(switch_time=0.0)),
        )
        flaky = VolunteerAgent(sim, server, _spec(host_id=1, abandon_prob=1.0),
                               telemetry, np.random.default_rng(1))
        solid = VolunteerAgent(sim, server, _spec(host_id=2), telemetry,
                               np.random.default_rng(2))
        sim.schedule_at(0.0, flaky.start)
        sim.schedule_at(1.0, solid.start)
        sim.run(until=HORIZON)
        assert server.stats.effective == 1
