"""The one fleet driver (repro.boinc.fleet).

Every engine — single-campaign, sharded, multi-campaign, served — comes
to this module for fleet resolution, observer wiring and the run itself.
These tests pin the behaviours only a shared driver can guarantee (a
second run reports what the first did; a failed run leaves the caller's
tracer as it found it) and guard the structure: the pieces the driver
owns are defined once in ``src/repro``.
"""

from __future__ import annotations

import ast
import inspect
import re
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

from repro.boinc import CampaignConfig, scaled_phase1
from repro.boinc.fleet import FleetSpec, resolve_server_config, tee_observers
from repro.boinc.server import GridServer
from repro.boinc.sharding import ShardPlan
from repro.faults import FaultPlan
from repro.multi import Campaign, GridConfig, MultiGridSimulation
from repro.obs import (
    FoldSink, HealthMonitor, HostLedger, RingSink, Tracer,
)
from repro.service import SchedulerClient, SchedulerService, serve_in_thread
from repro.units import weeks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _small(**kwargs):
    return scaled_phase1(scale=900, n_proteins=5, seed=42, **kwargs)


class TestObserversPerRun:
    def test_second_run_reports_the_same(self):
        """``health=True`` / ``ledger=True`` mean a fresh observer per
        run, not one built at construction and folded into twice."""
        sim = _small(health=True, ledger=True)
        first, second = sim.run(), sim.run()
        assert first.server.stats == second.server.stats
        assert first.ledger.as_dict() == second.ledger.as_dict()
        assert first.health.as_dict() == second.health.as_dict()

    def test_supplied_instance_stays_the_callers(self):
        ledger = HostLedger()
        sim = _small(ledger=ledger)
        sim.run()
        observed_once = ledger.n_observed
        sim.run()
        assert observed_once > 0
        assert ledger.n_observed == 2 * observed_once

    def test_health_beside_a_reused_ledger_reports_each_run_alone(self):
        """The run's monitor reads a table of its own, not the table the
        supplied ledger carries from its earlier runs."""
        faults = CampaignConfig(faults=FaultPlan.from_spec("crash=5,loss=0.1"))
        alone = _small(health=True, config=faults).run().health.as_dict()
        ledger = HostLedger()
        first = _small(ledger=ledger, health=True, config=faults).run()
        observed_once = ledger.n_observed
        second = _small(ledger=ledger, health=True, config=faults).run()
        assert first.health.as_dict() == second.health.as_dict() == alone
        assert ledger.n_observed == 2 * observed_once
        assert not ledger.table.watched  # no monitor left on the ledger

    def test_a_supplied_monitor_accumulates_beside_a_fresh_ledger(self):
        monitor = HealthMonitor()
        first = _small(health=monitor, ledger=True).run()
        second = _small(health=monitor, ledger=True).run()
        once = first.health.counters["health.results"]
        assert once > 0
        assert second.health.counters["health.results"] == 2 * once
        assert second.ledger.as_dict() == first.ledger.as_dict()

    def test_a_ledger_only_table_keeps_no_health_state(self):
        """Windows and latency samples are the monitor's; without one the
        table keeps neither (nor any workunit row: that is the span
        view's)."""
        ledger = HostLedger()
        result = _small(ledger=ledger).run()
        assert result.completion_time is not None
        table = ledger.table
        assert not table.idle_times and not table.deadline_times
        assert not any(table.samples.values())
        assert not table._t_release and not table.pending_quorum
        assert table.trees == {}

    def test_a_shared_table_reports_what_separate_ones_do(self):
        result = _small(health=True, ledger=True).run()
        alone = _small(health=True).run()
        assert result.health.as_dict() == alone.health.as_dict()
        assert result.ledger.as_dict() == _small(ledger=True).run().ledger.as_dict()

    def test_second_sharded_run_reports_the_same(self):
        from repro.boinc.sharding import ShardPlan

        sim = _small(ledger=True, config=CampaignConfig(shards=ShardPlan(2)))
        assert sim.run().ledger.as_dict() == sim.run().ledger.as_dict()


class TestTracerRestoredOnFailure:
    @staticmethod
    def _raising_factory(**kwargs):
        raise RuntimeError("server construction failed")

    def test_failed_run_unwraps_the_tee(self, monkeypatch):
        ring = RingSink()
        tracer = Tracer(sink=ring)
        sim = _small(tracer=tracer, health=True, ledger=True)
        monkeypatch.setattr(
            "repro.boinc.simulator.GridServer", self._raising_factory
        )
        with pytest.raises(RuntimeError, match="construction failed"):
            sim.run()
        assert tracer.sink is ring

    def test_failed_wire_run_leaves_the_tracer_alone(self):
        ring = RingSink()
        tracer = Tracer(sink=ring)
        with pytest.raises(RuntimeError, match="construction failed"):
            _small(tracer=tracer).run(server_factory=self._raising_factory)
        assert tracer.sink is ring

    def test_failed_service_construction_unwraps_the_ledger_tee(
        self, monkeypatch
    ):
        ring = RingSink()
        tracer = Tracer(sink=ring)
        monkeypatch.setattr(
            "repro.boinc.simulator.GridServer", self._raising_factory
        )
        with pytest.raises(RuntimeError, match="construction failed"):
            SchedulerService(_small(), tracer=tracer)
        assert tracer.sink is ring


class TestFleetSpec:
    def test_campaign_and_grid_configs_resolve_the_same_fleet(self):
        """One resolution for both config types: the N=1 grid recruits
        exactly the fleet ``scaled_phase1`` does."""
        sim = _small()
        grid = MultiGridSimulation(GridConfig(
            campaigns=(Campaign.cross_docking("c", scale=900, n_proteins=5),),
            seed=42,
        ))
        shared_model = sim.fleet.host_model  # models compare by identity
        assert replace(grid.fleet, host_model=shared_model) == sim.fleet
        assert grid.fleet.n_hosts_peak == sim.fleet.auto_host_count(
            sim.campaign.total_work
        )
        assert (
            grid.fleet.arrival_times().tolist()
            == sim.fleet.arrival_times().tolist()
        )

    def test_shard_fields_flow_into_the_spec(self, monkeypatch):
        """A shard is the engine body on the parent's fleet with the
        ``ShardSpec``'s three fields swapped in — checked on the fleets
        ``run_sharded`` actually hands ``run_campaigns``."""
        from repro.boinc import simulator
        from repro.boinc.sharding import ShardPlan, plan_shards

        handed = []
        body = simulator.run_campaigns

        def recording(fleet, specs, **observers):
            handed.append(fleet)
            return body(fleet, specs, **observers)

        monkeypatch.setattr(simulator, "run_campaigns", recording)
        sim = _small(config=CampaignConfig(shards=ShardPlan(2)))
        sim.run()
        shards = plan_shards(sim, 2)
        assert len(handed) == 2
        for spec, shard in zip(handed, shards):
            assert spec.n_hosts_peak == shard.n_hosts_peak
            assert spec.host_id_base == shard.host_id_base
            assert spec.arrival_stream == shard.index
            # everything else is the parent's, already resolved
            assert replace(
                spec,
                n_hosts_peak=sim.fleet.n_hosts_peak,
                host_id_base=0,
                arrival_stream=0,
            ) == sim.fleet
        assert (
            handed[1].arrival_times().tolist()
            != sim.fleet.arrival_times().tolist()
        )

    def test_fault_plan_overrides_the_server_policy_once(self):
        faults = FaultPlan.from_spec("outage=2x12,maxreissue=4")
        resolved = resolve_server_config(None, faults, 7, weeks(40.0))
        assert resolved.max_reissues == 4
        assert len(resolved.outages) == 2
        sim = _small(config=CampaignConfig(faults=faults))
        assert sim.server_config == resolve_server_config(
            None, faults, 42, sim.horizon_s
        )

    def test_tee_without_observers_is_the_identity(self):
        tracer = Tracer()
        assert tee_observers(tracer) is tracer
        assert tee_observers(None) is None

    def test_one_tee_per_table(self):
        ledger = HostLedger()
        shared = HealthMonitor(table=ledger.table)
        tracer = tee_observers(None, health=shared, ledger=ledger)
        assert tracer.sink.observer is ledger.table
        assert not isinstance(tracer.sink.inner, FoldSink)
        own = HealthMonitor()
        tracer = tee_observers(None, health=own, ledger=HostLedger())
        assert tracer.sink.observer is own.table  # the health tee outermost
        assert tracer.sink.inner.observer is not own.table

    def test_observer_only_tracer_skips_the_kernel_channel(self):
        ledger = HostLedger()
        tracer = tee_observers(None, ledger=ledger)
        assert isinstance(tracer.sink, FoldSink)
        assert "host" in tracer.channels and "des" not in tracer.channels

    def test_observer_only_channels_follow_the_handler_tables(self):
        """What the observers fold, plus ``health`` — the monitor emits
        its transitions there."""
        for observers, channels in (
            ({"health": HealthMonitor()}, {"server", "agent", "health"}),
            ({"ledger": HostLedger()}, {"server", "agent", "fault", "host"}),
            (
                {"health": HealthMonitor(), "ledger": HostLedger()},
                {"server", "agent", "fault", "host", "health"},
            ),
        ):
            tracer = tee_observers(None, **observers)
            assert tracer.channels == channels


class TestCallersTracerUntouched:
    """Observers tee into a tracer of the run's own: the caller's keeps
    its sink."""

    def test_the_teed_tracer_is_the_runs_own(self):
        ring = RingSink()
        caller = Tracer(sink=ring, channels={"server", "host"})
        ledger = HostLedger()
        teed = tee_observers(caller, ledger=ledger)
        assert teed is not caller and caller.sink is ring
        assert teed.sink.observer is ledger.table and teed.sink.inner is ring
        assert teed.channels == caller.channels
        teed.emit("server.issue", t_sim=1.0, wu=0, host=3, copy=0)
        assert caller.counts["server.issue"] == 1 and len(ring) == 1

    def test_the_service_never_rewires_the_callers_tracer(self):
        ring = RingSink()
        tracer = Tracer(sink=ring)
        SchedulerService(_small(), tracer=tracer)
        assert tracer.sink is ring
        handle = serve_in_thread(_small(), tracer=tracer)
        try:
            assert tracer.sink is ring
            client = SchedulerClient.from_url(handle.url)
            try:
                assert client.request_work(3, t=0.0)["assignment"] is not None
                assert tracer.sink is ring
                assert client.hosts()["n_hosts"] == 1  # the ledger was fed
            finally:
                client.close()
        finally:
            handle.stop()
        assert tracer.sink is ring
        assert tracer.counts["server.issue"] == 1


def _sources() -> dict[str, str]:
    return {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }


def _modules_matching(pattern: str) -> list[str]:
    regex = re.compile(pattern)
    return [name for name, text in _sources().items() if regex.search(text)]


def _functions_calling(name: str) -> list[str]:
    """``module:function`` for every ``def`` in ``src/repro`` that
    contains a call of the bare name ``name``."""
    return [
        f"{module}:{node.name}"
        for module, text in _sources().items()
        if f"{name}(" in text
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
            for call in ast.walk(node)
        )
    ]


def _call_sites(matches) -> list[str]:
    """``module:Class.function`` for every call in ``src/repro`` that
    ``matches``, one entry per call."""
    sites = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                visit(module, child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and matches(child):
                sites.append(f"{module}:{'.'.join(scope)}")
            visit(module, child, scope)

    for module, text in _sources().items():
        visit(module, ast.parse(text), [])
    return sites


class TestPeakFleet:
    @pytest.mark.parametrize("peak", [0, -3])
    def test_a_peak_fleet_of_no_host_is_refused(self, peak):
        """Both configs resolve through ``FleetSpec.resolve``; the CLI's
        ``--hosts-peak`` cases are in ``tests/test_cli.py``."""
        named = r"n_hosts_peak \(--hosts-peak\)"
        with pytest.raises(ValueError, match=named):
            _small(config=CampaignConfig(n_hosts_peak=peak))
        with pytest.raises(ValueError, match=named):
            MultiGridSimulation(GridConfig(
                campaigns=(Campaign.cross_docking("hcmd", scale=900, n_proteins=5),),
                n_hosts_peak=peak,
            ))


class TestOneDefinitionEach:
    """Structural guard: what the fleet driver owns exists once."""

    def test_agents_are_constructed_in_one_module(self):
        assert _modules_matching(r"\bVolunteerAgent\(") == ["boinc/fleet.py"]

    def test_arrival_substream_is_named_in_one_module(self):
        assert _modules_matching(r"""["']host-arrivals["']""") == [
            "boinc/fleet.py"
        ]

    def test_kernel_tracer_rule_appears_once(self):
        rule = r"""["']des["'] not in \w+\.channels"""
        assert _modules_matching(rule) == ["boinc/fleet.py"]
        assert len(re.findall(rule, _sources()["boinc/fleet.py"])) == 1

    def test_one_fold_sink_class(self):
        assert _modules_matching(r"(?m)^class FoldSink\b") == ["obs/tracer.py"]
        assert _modules_matching(r"\bFoldSink\(") == ["boinc/fleet.py"]
        assert len(re.findall(r"\bFoldSink\(", _sources()["boinc/fleet.py"])) == 1

    def test_one_fold_protocol(self):
        """Health, ledger and spans are ``Fold`` subclasses: no observer
        keeps a per-event path, a second batched fold or its sink.  (The
        metric sketches' ``observe(value)`` takes samples, not events.)"""
        assert _modules_matching(r"(?m)^class Fold\b") == ["obs/tracer.py"]
        for gone in (
            r"def observe\(self, event", r"_fold_filtered", r"attach_sink",
            r"_dispatch\b",
        ):
            assert [
                name for name in _modules_matching(gone)
                if name.startswith("obs/")
            ] == [], gone

    def test_retired_names_are_gone(self):
        retired = (
            r"force_router|delegates_to_monolithic|from_kwargs|from_config"
            r"|HealthSink|LedgerSink|_LEGACY_ALIASES"
            r"|global_tracer|set_global_tracer|Tracer\.disabled|\btracing\("
            r"|Tracer\([^)]*\benabled\b"
        )
        assert _modules_matching(retired) == []

    def test_one_engine_body_drives_the_fleet(self):
        assert _modules_matching(r"(?<!def )\brun_fleet\(") == [
            "boinc/simulator.py"
        ]

    def test_server_callbacks_are_wired_in_one_module(self):
        assert _modules_matching(r"\bon_workunit_valid=") == [
            "boinc/simulator.py"
        ]
        assert _modules_matching(r"\bon_batch_complete=") == [
            "boinc/simulator.py"
        ]

    def test_campaign_results_are_built_live_once_and_merged_once(self):
        """Built live by ``CampaignRuntime.result`` and folded by
        ``fold_results``, both in one module; the two merge rules are each
        called from one function — the fold."""
        assert _modules_matching(r"\bCampaignResult\(") == [
            "boinc/simulator.py"
        ]
        for merge in ("merge_stats", "merge_telemetry"):
            assert _functions_calling(merge) == [
                "boinc/simulator.py:fold_results"
            ]

    def test_a_shard_is_not_a_nested_simulation(self):
        from repro.boinc.simulator import VolunteerGridSimulation

        for api in (VolunteerGridSimulation.__init__, FleetSpec.resolve):
            assert "shard" not in inspect.signature(api).parameters
        assert "VolunteerGridSimulation(" not in _sources()["boinc/sharding.py"]

    def test_trust_state_is_the_servers(self):
        """The adaptive policy is read off the config in one place —
        where the server builds its own table from it."""
        reads = [
            (name, len(re.findall(r"\bconfig\.adaptive\b", text)))
            for name, text in _sources().items()
            if "config.adaptive" in text
        ]
        assert reads == [("boinc/server.py", 1)]

    def test_the_cli_reports_from_a_trace_file_only(self):
        assert "RingSink(" not in _sources()["cli.py"]

    def test_one_campaign_runtime(self):
        assert _modules_matching(r"(?m)^class CampaignRuntime\b") == [
            "boinc/simulator.py"
        ]
        assert re.search(
            r"(?s)from \.\.boinc\.simulator import \([^)]*\bCampaignRuntime\b",
            _sources()["multi/engine.py"],
        )

    def test_one_front(self):
        """Every campaign runs behind the router the engine body builds:
        no caller picks or injects a front, and the fleet driver reads
        each agent's telemetry off the front."""
        from repro.boinc.fleet import run_fleet
        from repro.boinc.simulator import run_campaigns

        assert "router" not in inspect.signature(run_campaigns).parameters
        assert "telemetry_for" not in inspect.signature(run_fleet).parameters
        assert _call_sites(
            lambda call: getattr(call.func, "id", None) == "CampaignRouter"
        ) == ["boinc/simulator.py:run_campaigns.build_front"]

    def test_sharded_observers_fold_the_merged_stream(self):
        """A shard ships no observer state and no JSON: the parent folds
        the merged frames, and writes no file of its own."""
        from dataclasses import fields

        from repro.boinc.sharding import ShardOutput
        from repro.obs.lifecycle import HostRecord
        from repro.obs.tracer import Fold

        text = _sources()["boinc/sharding.py"]
        assert not re.search(r"(?m)^\s*(import json|from json\b)", text)
        assert "from_json" not in text
        assert not re.search(r"""\bopen\([^)]*["'][rbt+]*[wax]""", text)
        assert not hasattr(HostLedger, "absorb")
        assert not hasattr(HostRecord, "merge")
        assert not hasattr(Fold, "add_counts")
        assert {f.name for f in fields(ShardOutput)} & {
            "ledger", "trace_counts"
        } == set()

    def test_observers_are_built_from_true_in_one_function(self):
        """``health=True`` / ``ledger=True`` resolve in one place for
        every engine, the service's always-on ledger included; the other
        build is the offline refold."""
        sites = _call_sites(
            lambda call: getattr(call.func, "id", None)
            in ("HealthMonitor", "HostLedger")
        )
        assert sorted(set(sites)) == [
            "boinc/fleet.py:resolve_observers",
            "obs/ledger.py:FleetReport.from_trace",
        ]
        assert _modules_matching(r"\b(health|ledger) is True\b") == [
            "boinc/fleet.py"
        ]

    def test_no_code_rebinds_a_tracers_sink(self):
        """Observers tee into a tracer of the run's own: the only
        ``.sink`` ever assigned is the one a ``Tracer`` is built with."""

        def leaves(target):
            if isinstance(target, (ast.Tuple, ast.List)):
                return [leaf for elt in target.elts for leaf in leaves(elt)]
            return [target]

        assigned = [
            (module, ast.unparse(leaf))
            for module, text in _sources().items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in getattr(node, "targets", None) or [node.target]
            for leaf in leaves(target)
            if isinstance(leaf, ast.Attribute) and leaf.attr == "sink"
        ]
        assert assigned == [("obs/tracer.py", "self.sink")]
        assert _modules_matching(r"""setattr\([^)]*["']sink["']""") == []

    def test_front_stays_a_duck_type(self):
        """The router and the servers behind it share no base class: the
        agent surface is a protocol, not a type."""
        from repro.boinc.simulator import CampaignRouter

        assert GridServer.__bases__ == (object,)
        assert CampaignRouter.__bases__ == (object,)


class TestOneOfEach:
    """Structural guard: one DES kernel, one docking engine, one §5.2 rule
    set in the product; the oracles live with the tests."""

    def test_only_tests_import_the_oracles(self):
        importers = [
            str(path.relative_to(ROOT))
            for top in ("src", "examples", "benchmarks")
            for path in sorted((ROOT / top).rglob("*.py"))
            if re.search(
                r"(?m)^\s*(from|import)\s+tests\b",
                path.read_text(encoding="utf-8"),
            )
        ]
        assert importers == []

    def test_docking_apis_have_no_engine_parameter(self):
        from repro.maxdo.docking import MaxDoRun, dock_couple, dock_position

        for api in (dock_position, dock_couple, MaxDoRun.__init__):
            assert "engine" not in inspect.signature(api).parameters

    def test_one_docking_engine_in_the_product(self):
        """The per-pose scalar engine is the oracle in
        ``tests/oracles/docking.py``; the product keeps the pose-batched
        kernels and one minimiser path."""
        oracle_only = {
            "pair_energies", "interaction_energy", "energy_and_bead_gradient",
            "pose_gradient", "MinimizationResult", "minimize_rigid",
            "rotation_matrix_derivatives",
        }
        trees = {name: ast.parse(text) for name, text in _sources().items()}
        defined = [
            f"{name}:{node.name}"
            for name, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in oracle_only
        ]
        assert defined == []
        (batch,) = [
            node for node in ast.walk(trees["maxdo/minimize.py"])
            if isinstance(node, ast.FunctionDef)
            and node.name == "minimize_rigid_batch"
        ]
        assert sum(isinstance(n, ast.Return) for n in ast.walk(batch)) == 1

    def test_a_campaign_is_materialized_by_one_builder(self):
        """``RuntimeSpec`` is the one built-campaign record: every
        cross-docking spec comes from ``RuntimeSpec.cross_docking``, the
        one caller of ``CampaignPlan.materialize``; only the screening
        build makes a spec of its own."""
        defined = [
            name
            for name, text in _sources().items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef) and node.name == "WorkloadBuild"
        ]
        assert defined == []
        assert _call_sites(
            lambda call: getattr(call.func, "attr", None) == "materialize"
        ) == ["boinc/simulator.py:RuntimeSpec.cross_docking"]
        constructed = _call_sites(
            lambda call: getattr(call.func, "id", None) == "RuntimeSpec"
        )
        assert [
            site for site in constructed
            if not site.startswith("boinc/simulator.py:")
        ] == ["multi/workloads.py:ScreeningWorkload.build"]

    def test_chunk_tiling_rule_is_written_once(self):
        functions = [
            f"{name}:{node.name}"
            for name, text in _sources().items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "isep {kind} at" in ast.get_source_segment(text, node)
        ]
        assert functions == ["validation/merge.py:merged_header"]

    def test_one_result_path_in_the_product(self):
        """Uploads are checked and merged only through the store, and text
        is read by one function: the text-file checker and merge are the
        oracles in ``tests/oracles/resultfile.py``, and both text decoders
        are called from ``segment_from_text`` alone."""
        retired = {
            "check_result_file", "check_batch", "merge_couple_results",
            "sorted_rows", "files_unreadable",
        }
        def bound(node):  # the names a def, class or (field) assignment binds
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return [node.name]
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            return [t.id for t in targets if isinstance(t, ast.Name)]

        defined = [
            f"{module}:{name}"
            for module, text in _sources().items()
            for node in ast.walk(ast.parse(text))
            for name in bound(node)
            if name in retired
        ]
        assert defined == []
        for decoder in ("_decode_fixed", "_parse_floats"):
            assert _call_sites(
                lambda call: decoder in (
                    getattr(call.func, "id", None),
                    getattr(call.func, "attr", None),
                )
            ) == ["store/convert.py:segment_from_text"], decoder


def _tracked(pattern: str) -> list[str]:
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    try:
        return subprocess.run(
            ["git", "ls-files", pattern], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git is not usable here")


def test_no_bytecode_is_tracked():
    assert _tracked("*.pyc") == []


def test_no_bench_json_is_tracked_at_the_root():
    """Benchmark numbers live in ``benchmarks/e2e/baseline.json`` (with
    provenance) or under ``benchmarks/artifacts/``, never at the root."""
    assert _tracked(":(glob)BENCH_*.json") == []
