"""Observer conformance across the in-process ``simulate`` engines.

One seeded, faulted campaign runs alone, sharded in two on one and on
two worker processes, and as a one-campaign roster, each with the health
monitor and the host ledger riding it and a full JSONL trace recorded.
On every engine the live reports are the refold of that run's own trace,
and the sharded reports do not depend on the worker count.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import CampaignConfig, ShardPlan, Tracer, scaled_phase1
from repro.faults import FaultPlan
from repro.multi import Campaign, GridConfig, MultiGridSimulation
from repro.obs import HealthMonitor, HostLedger
from repro.obs.tracer import iter_trace

SCALE, PROTEINS, SEED = 700, 6, 42
FAULTS = "crash=5,loss=0.1"


def _alone(tracer, n_shards=1, n_workers=1):
    config = CampaignConfig(
        faults=FaultPlan.from_spec(FAULTS), shards=ShardPlan(n_shards, n_workers)
    )
    result = scaled_phase1(
        scale=SCALE, n_proteins=PROTEINS, seed=SEED, config=config,
        tracer=tracer, health=True, ledger=True,
    ).run()
    return result, result


def _roster(tracer):
    grid = GridConfig(
        campaigns=(Campaign.cross_docking("hcmd", scale=SCALE, n_proteins=PROTEINS),),
        seed=SEED,
        faults=FaultPlan.from_spec(FAULTS),
    )
    result = MultiGridSimulation(grid, tracer=tracer, health=True, ledger=True).run()
    return result, result["hcmd"]


#: engine -> run(tracer) -> (the run's result, its one campaign's result)
ENGINES = {
    "alone": _alone,
    "2 shards, 1 worker": partial(_alone, n_shards=2, n_workers=1),
    "2 shards, 2 workers": partial(_alone, n_shards=2, n_workers=2),
    "one-campaign roster": _roster,
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for index, (engine, run) in enumerate(ENGINES.items()):
        path = tmp_path_factory.mktemp(f"engine{index}") / "trace.jsonl"
        with Tracer.to_jsonl(path) as tracer:
            result, campaign = run(tracer)
        out[engine] = result, campaign, path
    return out


@pytest.mark.parametrize("engine", ENGINES)
def test_reports_are_the_refold_of_the_run_s_trace(runs, engine):
    result, campaign, path = runs[engine]
    t_end = campaign.span_s
    monitor = HealthMonitor()
    monitor.configure_campaign(
        campaign.server.n_workunits, campaign.server.config.max_reissues
    )
    health = monitor.fold(iter_trace(path)).finalize(t_end)
    ledger = HostLedger().fold(iter_trace(path)).finalize(t_end)
    assert result.health.as_dict() == health.as_dict()
    assert result.ledger.as_dict() == ledger.as_dict()
    assert health.counters["health.reissues"] > 0  # the faults bite
    if engine.startswith("2 shards"):
        # no monitor rides a shard; the one folding the merge emits nothing
        assert not any(e.etype.startswith("health.") for e in iter_trace(path))


def test_sharded_reports_do_not_depend_on_the_worker_count(runs):
    one, two = (runs[f"2 shards, {n}"][0] for n in ("1 worker", "2 workers"))
    assert one.health.as_dict() == two.health.as_dict()
    assert one.ledger.as_dict() == two.ledger.as_dict()
