"""Tests for repro.boinc.sharding: the sharded campaign engine.

The contract under test (see the module docstring of
:mod:`repro.boinc.sharding`):

* a fixed ``ShardPlan(n_shards=K)`` produces the **same merged result**
  for every worker count and on every run (pool vs in-process is an
  execution detail, not an experiment parameter);
* ``K=1`` (or no plan at all) is **bit-identical** to the monolithic
  simulator — pinned here against digests captured before the sharding
  engine existed;
* merged artifacts are indistinguishable from a monolithic run to the
  downstream tooling (span reconstruction finds zero orphans, the fault
  report recombines, the JSONL trace stays time-ordered).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro import CampaignConfig, ShardPlan, Tracer, scaled_phase1
from repro.boinc.sharding import HOST_ID_STRIDE, merge_telemetry, plan_shards
from repro.boinc.simulator import Telemetry
from repro.faults import FaultPlan
from repro.obs.tracer import iter_trace

# ---------------------------------------------------------------------------
# Golden values captured at the pre-sharding HEAD (monolithic simulator),
# scale=700 n_proteins=6 seed=42, trace channels ("server","agent","fault").
# The sharded engine with K=1 — and a config with no plan at all — must
# keep reproducing these bytes.
# ---------------------------------------------------------------------------
GOLDEN = {
    "completion_time": 6807430.00267922,
    "disclosed": 78,
    "effective": 38,
    "n_hosts": 4,
    "n_events": 581,
    "trace_digest":
        "351a01958365616baa218e62417c43d7937c67ab8bd772d470f3f823dab70dd3",
    "registry_digest":
        "07a05502e2add67f3a763cee360d98671d9bc65f3eed318f826d5ef9b9c552c6",
}
CHANNELS = ("server", "agent", "fault")


def _registry_digest(result) -> str:
    payload = json.dumps(result.telemetry.registry.as_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _trace_digest(path) -> str:
    """Digest of the semantic trace content (t_wall varies run to run)."""
    h = hashlib.sha256()
    for e in iter_trace(path):
        h.update(
            repr((e.etype, e.t_sim, tuple(sorted(e.fields.items())))).encode()
        )
    return h.hexdigest()


def _run(n_shards, n_workers, tmp_path=None, name="trace.jsonl", **kw):
    tracer = None
    if tmp_path is not None:
        tracer = Tracer.to_jsonl(tmp_path / name, channels=CHANNELS)
    plan = ShardPlan(n_shards=n_shards, n_workers=n_workers)
    config = kw.pop("config", CampaignConfig()).with_(shards=plan)
    result = scaled_phase1(
        scale=700, n_proteins=6, seed=42, config=config, tracer=tracer, **kw
    ).run()
    if tracer is not None:
        tracer.close()
    return result, tracer


def _fingerprint(result) -> dict:
    """Everything observable about a merged result, hashed or verbatim."""
    m = result.metrics()
    return {
        "completion_time": result.completion_time,
        "disclosed": result.server.stats.disclosed,
        "effective": result.server.stats.effective,
        "n_hosts": result.n_hosts,
        "registry": _registry_digest(result),
        "metrics": {f: getattr(m, f) for f in vars(m)},
        "fault_report": result.fault_report().as_dict(),
        "batch_completion": result.batch_completion_s.tolist(),
    }


class TestShardPlanValue:
    def test_validates_counts(self):
        with pytest.raises(ValueError):
            ShardPlan(n_shards=0)
        with pytest.raises(ValueError):
            ShardPlan(n_shards=2, n_workers=0)

    def test_frozen(self):
        plan = ShardPlan(n_shards=2, n_workers=2)
        with pytest.raises(AttributeError):
            plan.n_shards = 4


class TestPlanShards:
    @pytest.fixture(scope="class")
    def sim(self):
        return scaled_phase1(scale=700, n_proteins=6, seed=42)

    def test_covers_campaign_disjointly(self, sim):
        for k in (1, 2, 3):
            specs = plan_shards(sim, k)
            assert len(specs) == k
            assert specs[0].batch_lo == 0
            assert specs[-1].batch_hi == len(sim.library)
            for a, b in zip(specs, specs[1:]):
                assert a.batch_hi == b.batch_lo

    def test_workunit_ids_partition_the_campaign(self, sim):
        specs = plan_shards(sim, 3)
        assert specs[0].wu_id_base == 0
        for a, b in zip(specs, specs[1:]):
            assert b.wu_id_base == a.wu_id_base + a.n_workunits
        total = specs[-1].wu_id_base + specs[-1].n_workunits
        assert total == sim.plan.total_workunits()

    def test_host_id_blocks_disjoint(self, sim):
        specs = plan_shards(sim, 3)
        assert [s.host_id_base for s in specs] == [
            0, HOST_ID_STRIDE, 2 * HOST_ID_STRIDE
        ]

    def test_too_many_shards_rejected(self, sim):
        with pytest.raises(ValueError):
            plan_shards(sim, len(sim.library) + 1)


class TestGoldenPin:
    """K=1 — and no plan — must stay bit-identical to the pre-PR output."""

    @pytest.mark.parametrize("plan", [None, ShardPlan(n_shards=1)])
    def test_monolithic_golden(self, tmp_path, plan):
        tracer = Tracer.to_jsonl(tmp_path / "t.jsonl", channels=CHANNELS)
        config = CampaignConfig(shards=plan)
        result = scaled_phase1(
            scale=700, n_proteins=6, seed=42, config=config, tracer=tracer
        ).run()
        tracer.close()
        assert result.completion_time == GOLDEN["completion_time"]
        assert result.server.stats.disclosed == GOLDEN["disclosed"]
        assert result.server.stats.effective == GOLDEN["effective"]
        assert result.n_hosts == GOLDEN["n_hosts"]
        assert tracer.n_events == GOLDEN["n_events"]
        assert _registry_digest(result) == GOLDEN["registry_digest"]
        assert _trace_digest(tmp_path / "t.jsonl") == GOLDEN["trace_digest"]


class TestMergeDeterminism:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_pool_identical_to_in_process(self, tmp_path, n_shards):
        seq, _ = _run(n_shards, 1, tmp_path, "seq.jsonl")
        pool, _ = _run(n_shards, 2, tmp_path, "pool.jsonl")
        assert _fingerprint(seq) == _fingerprint(pool)
        assert _trace_digest(tmp_path / "seq.jsonl") == _trace_digest(
            tmp_path / "pool.jsonl"
        )

    def test_run_twice_identical(self):
        a, _ = _run(3, 1)
        b, _ = _run(3, 1)
        assert _fingerprint(a) == _fingerprint(b)

    def test_shard_walls_reported(self):
        result, _ = _run(2, 1)
        assert result.shard_walls is not None
        assert len(result.shard_walls) == 2
        assert all(w > 0 for w in result.shard_walls)
        mono = scaled_phase1(scale=700, n_proteins=6, seed=42).run()
        assert mono.shard_walls is None


class TestMergedArtifacts:
    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("sharded")
        result, tracer = _run(2, 2, d)
        return result, tracer, d / "trace.jsonl"

    def test_trace_time_ordered(self, sharded):
        _, _, path = sharded
        last = float("-inf")
        for e in iter_trace(path):
            if e.t_sim is not None:
                assert e.t_sim >= last
                last = e.t_sim

    def test_no_shard_files_left_behind(self, sharded):
        _, _, path = sharded
        leftovers = [
            f for f in os.listdir(path.parent) if f.startswith("shard-")
        ]
        assert leftovers == []

    def test_tracer_counts_cover_merged_file(self, sharded):
        _, tracer, path = sharded
        with open(path) as fh:
            n_lines = sum(1 for _ in fh)
        assert tracer.n_events == n_lines
        assert sum(tracer.counts.values()) == n_lines

    def test_span_reconstruction_zero_orphans(self, sharded):
        from repro.obs.spans import reconstruct_file

        _, _, path = sharded
        campaign = reconstruct_file(path)
        assert campaign.orphans == 0
        assert len(campaign.trees) > 0

    def test_daily_series_sum_to_totals(self, sharded):
        result, _, _ = sharded
        tel = result.telemetry
        assert tel.daily_results.sum() == result.server.stats.disclosed
        assert tel.daily_cpu_s.sum() == pytest.approx(
            result.server.stats.consumed_cpu_s
        )

    def test_export_round_trips(self, sharded, tmp_path):
        result, _, _ = sharded
        paths = result.export(tmp_path / "campaign")
        assert paths and all(p.exists() for p in paths)


class TestTraceNamedLikeAShardStream:
    def test_loses_no_event(self, tmp_path, capsys):
        """The shards record their streams in the run's scratch directory,
        so a caller's trace may carry any name: ``simulate --shards 2
        --trace d/shard-0000.jsonl`` writes what ``--trace d/t.jsonl``
        does, prints its true event count and leaves nothing beside it."""
        from repro.cli import main

        events = {}
        for name in ("t.jsonl", "shard-0000.jsonl"):
            d = tmp_path / name.split(".")[0]
            d.mkdir()
            assert main([
                "simulate", "--scale", "700", "--proteins", "6",
                "--shards", "2", "--trace", str(d / name),
            ]) == 0
            lines = (d / name).read_text().splitlines()
            assert f"trace: {len(lines):,} events" in capsys.readouterr().out
            assert os.listdir(d) == [name]
            events[name] = [
                {k: v for k, v in json.loads(line).items() if k != "t_wall"}
                for line in lines
            ]
        assert len(events["t.jsonl"]) == 1259
        assert events["shard-0000.jsonl"] == events["t.jsonl"]


class TestFaultMerge:
    def test_fault_budget_recombines(self):
        config = CampaignConfig(
            faults=FaultPlan.from_spec("corrupt=0.1,loss=0.05")
        )
        seq, _ = _run(2, 1, config=config)
        pool, _ = _run(2, 2, config=config)
        assert seq.fault_report().as_dict() == pool.fault_report().as_dict()
        # injected faults must actually register in the merged budget
        assert any(
            v for k, v in seq.fault_report().as_dict().items()
            if isinstance(v, (int, float)) and v
        )


class TestTelemetryMerge:
    def test_merges_by_metric_kind(self):
        """A series or histogram the destination lacks is created there,
        as a counter is: the merge follows each metric's kind, not a list
        of names."""
        dst, src = Telemetry(3 * 86400.0), Telemetry(3 * 86400.0)
        n_days = src.registry.get("campaign.daily_cpu_s").n_days
        src.registry.daily_series("campaign.extra", n_days).add(1, 5.0)
        src.registry.histogram("campaign.extra_hours", (1.0, 2.0)).observe(1.5)
        merge_telemetry(dst, src)
        merge_telemetry(dst, src)
        assert dst.registry.get("campaign.extra").values.tolist() == [
            0.0, 10.0, 0.0, 0.0
        ]
        hours = dst.registry.get("campaign.extra_hours")
        assert (hours.bucket_counts, hours.count, hours.sum) == ([0, 2, 0], 2, 3.0)


class TestAdaptiveReplication:
    """Trust streaks are each shard server's own, so shards that share a
    process (``n_workers < n_shards``) cannot see each other's."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        from repro.boinc.server import ServerConfig
        from repro.boinc.validator import AdaptiveReplication, ValidationPolicy
        from repro.units import weeks

        d = tmp_path_factory.mktemp("adaptive")
        out = {}
        for n_workers in (1, 2, 4):
            tracer = Tracer.to_jsonl(d / f"w{n_workers}.jsonl", channels=CHANNELS)
            out[n_workers] = scaled_phase1(
                scale=400, n_proteins=10, seed=7, tracer=tracer, ledger=True,
                config=CampaignConfig(
                    shards=ShardPlan(n_shards=4, n_workers=n_workers),
                    server=ServerConfig(
                        validation=ValidationPolicy(switch_time=weeks(16.0)),
                        adaptive=AdaptiveReplication(
                            trust_after=3, spot_check_rate=0.3
                        ),
                    ),
                ),
            ).run()
            tracer.close()
        return out, d

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_identical_for_every_worker_count(self, runs, n_workers):
        results, d = runs
        ref, other = results[1], results[n_workers]
        assert other.server.stats == ref.server.stats
        assert other.completion_time == ref.completion_time
        assert other.ledger.as_dict() == ref.ledger.as_dict()
        assert _trace_digest(d / f"w{n_workers}.jsonl") == _trace_digest(
            d / "w1.jsonl"
        )

    def test_equals_a_fresh_process_run(self, runs):
        result = runs[0][1]
        assert result.server.stats.disclosed == 170
        assert result.server.stats.validated_by_regime["adaptive"] > 0
        assert result.completion_time == pytest.approx(7755478.48, abs=0.01)


class TestShardedProfile:
    def test_sections_sum_over_the_shards(self):
        """Each shard runs with its own profiler; the caller's gets their
        section tables added in shard order."""
        from repro.obs import Profiler

        profiler = Profiler()
        _run(2, 1, profiler=profiler)
        stats = profiler.stats()
        for section in ("setup.workunits", "setup.hosts", "des.run"):
            assert stats[section][0] == 2
        assert any(name.startswith("des.VolunteerAgent.") for name in stats)


class TestShardedObservers:
    """Health and ledger on a sharded campaign (each report is the refold
    of the merged trace on every worker count: see
    tests/test_observer_conformance.py)."""

    @staticmethod
    def _traced(tmp_path, n_shards, **observers):
        path = tmp_path / f"k{n_shards}.jsonl"
        with Tracer.to_jsonl(path) as tracer:
            result = scaled_phase1(
                scale=700, n_proteins=6, seed=42, tracer=tracer,
                config=CampaignConfig(shards=ShardPlan(n_shards)), **observers,
            ).run()
        return result, path

    def test_health_without_a_trace_leaves_no_file(self, tmp_path, monkeypatch):
        """With no caller trace the monitor folds the merge as it streams
        out of the shards' scratch files: no merged file is written,
        nothing is left behind, and the report is the traced run's."""
        import tempfile

        from repro._cache import cache_dir
        from repro.boinc import sharding

        traced, _ = self._traced(tmp_path, 2, health=True)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        written = []

        def recording_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(sharding, "open", recording_open, raising=False)
        config = CampaignConfig(shards=ShardPlan(2))
        result = scaled_phase1(
            scale=700, n_proteins=6, seed=42, config=config, health=True
        ).run()
        assert result.health.as_dict() == traced.health.as_dict()
        assert list(scratch.iterdir()) == [cache_dir()]  # the per-user cache
        assert all(p.name.startswith("q-") for p in cache_dir().iterdir())  # quantile memos
        assert written == []

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_ledger_is_the_refold_of_the_merged_trace(self, tmp_path, n_shards):
        from repro.obs import HostLedger

        result, path = self._traced(tmp_path, n_shards, ledger=True)
        refold = HostLedger().fold(iter_trace(path)).finalize(result.span_s)
        assert result.ledger.as_dict() == refold.as_dict()
        assert result.ledger.n_observed > 0


class TestAnyTracerSink:
    """The merged stream is appended to the run's tracer whatever its
    sink: an in-memory ring records what a JSONL file does."""

    @staticmethod
    def _events(events):
        return [(e.etype, e.channel, e.t_sim, e.fields) for e in events]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_ring_trace_equals_the_jsonl_trace(self, tmp_path, n_workers):
        from repro.obs import RingSink

        def run(tracer):
            config = CampaignConfig(shards=ShardPlan(2, n_workers))
            with tracer:
                return scaled_phase1(
                    scale=700, n_proteins=6, seed=42, config=config,
                    tracer=tracer, health=True,
                ).run()

        path = tmp_path / "trace.jsonl"
        jsonl = Tracer.to_jsonl(path)
        on_file = run(jsonl)
        ring = Tracer(sink=RingSink())
        in_memory = run(ring)
        assert self._events(ring.sink) == self._events(iter_trace(path))
        assert len(ring.sink) == ring.n_events > 0
        assert ring.counts == jsonl.counts
        assert in_memory.health.as_dict() == on_file.health.as_dict()


class TestServerIdBase:
    def test_offset_ids_accepted_and_checked(self):
        from repro.boinc.server import GridServer
        from repro.core.workunit import WorkUnit
        from repro.grid.des import Simulator

        wus = [
            (WorkUnit(wu_id=100 + i, receptor=0, ligand=i,
                      isep_start=1, nsep=4, cost_reference_s=10.0), 0)
            for i in range(3)
        ]
        server = GridServer(Simulator(), wus, id_base=100)
        assert server.n_workunits == 3
        with pytest.raises(ValueError):
            GridServer(Simulator(), wus)
