"""Tests for the repro-hcmd command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


#: ``simulate`` engine (as docs/observability.md labels it) -> the flags
#: that select it
ENGINES = {
    "single campaign": [],
    "`--shards 2`": ["--shards", "2", "--shard-workers", "1"],
    "one `--campaign`": ["--campaign", "scale=900,proteins=5"],
    "two `--campaign`": [
        "--campaign", "scale=900,proteins=5",
        "--campaign", "kind=screening,ligands=40,mean-hours=1,batch=20",
    ],
}
OBSERVERS = ("--health", "--ledger", "--profile", "--trace PATH", "--report")
#: The observer x engine cells ``simulate`` refuses with a one-line error
#: and exit 2: none, every cell runs.  docs/observability.md prints this
#: table and tests/test_docs_consistency.py holds the two together.
REFUSED: set[tuple[str, str]] = set()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.proteins == 168
        assert args.seed == 2007

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["package", "--strategy", "magic"])


class TestCommands:
    def test_estimate(self, capsys):
        assert main(["estimate"]) == 0
        out = capsys.readouterr().out
        assert "1,488:237:19:45:54" in out
        assert "49,481,544" in out

    def test_estimate_small_library(self, capsys):
        assert main(["estimate", "--proteins", "12"]) == 0
        assert "12" in capsys.readouterr().out

    def test_package(self, capsys):
        assert main(["package", "--hours", "10"]) == 0
        out = capsys.readouterr().out
        assert "workunits" in out
        assert "1,3" in out  # ~1.38M formatted with separators

    def test_package_strategy(self, capsys):
        assert main(["package", "--hours", "10", "--strategy", "merge-tail"]) == 0

    def test_simulate(self, capsys):
        assert main(["simulate", "--scale", "500", "--proteins", "8"]) == 0
        out = capsys.readouterr().out
        assert "redundancy factor" in out
        assert "net speed-down" in out

    def test_simulate_boinc_accounting(self, capsys):
        assert main([
            "simulate", "--scale", "500", "--proteins", "8",
            "--accounting", "boinc",
        ]) == 0

    def test_simulate_faults(self, capsys):
        assert main([
            "simulate", "--scale", "900", "--proteins", "5",
            "--faults", "corrupt=0.1,loss=0.1,maxreissue=10",
        ]) == 0
        out = capsys.readouterr().out
        assert "error budget (fault injection)" in out
        assert "fault plan" in out
        assert "invalid results rejected" in out
        assert "workunits failed (reissue budget)" in out

    def test_simulate_without_faults_prints_no_budget(self, capsys):
        assert main(["simulate", "--scale", "900", "--proteins", "5"]) == 0
        assert "error budget" not in capsys.readouterr().out

    def test_simulate_health_prints_slo_report(self, capsys):
        assert main([
            "simulate", "--scale", "900", "--proteins", "5", "--health",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "queue-starvation" in out
        assert "latency percentiles" in out

    def test_simulate_report_prints_post_mortem(self, capsys):
        assert main([
            "simulate", "--scale", "900", "--proteins", "5",
            "--faults", "corrupt=0.1,loss=0.1,maxreissue=10",
            "--health", "--report",
        ]) == 0
        out = capsys.readouterr().out
        # the fault error budget reaches the post-mortem via
        # CampaignResult.fault_report()
        assert "error budget (fault injection)" in out
        assert "CAMPAIGN POST-MORTEM" in out
        assert "fault plan" in out
        assert "Top critical-path couples" in out
        assert "Live SLO report" in out

    def test_simulate_multi_campaign(self, capsys):
        assert main([
            "simulate",
            "--campaign", "name=hcmd,scale=900,proteins=5",
            "--campaign", "kind=screening,ligands=60,mean-hours=1,batch=20",
            "--hosts-peak", "10", "--horizon-weeks", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "hcmd" in out and "screening" in out
        assert "policy: fair-share" in out

    def test_simulate_campaign_profile(self, capsys):
        assert main([
            "simulate", "--campaign", "scale=900,proteins=5", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "wall-time profile" in out
        for section in ("setup.campaigns", "setup.hosts", "des.run"):
            assert section in out

    def test_simulate_campaigns_with_health_and_ledger(self, capsys):
        assert main([
            "simulate",
            "--campaign", "name=hcmd,scale=900,proteins=5",
            "--campaign", "name=malaria,kind=screening,ligands=60,batch=20",
            "--hosts-peak", "10", "--health", "--ledger",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO report:" in out
        assert "fleet:" in out and "per-campaign:" in out
        assert "malaria" in out.split("per-campaign:")[1]

    def test_simulate_horizon_and_hosts_reach_the_single_campaign(self, capsys):
        """``--horizon-weeks`` / ``--hosts-peak`` are not roster-only."""
        def table(*flags):
            assert main(
                ["simulate", "--scale", "900", "--proteins", "5", *flags]
            ) == 0
            rows = (
                line.split("|") for line in capsys.readouterr().out.splitlines()
            )
            return {r[0].strip(): r[1].strip() for r in rows if len(r) == 3}

        default = table()
        assert default["completion (weeks)"] != "incomplete"
        assert table("--horizon-weeks", "3")["completion (weeks)"] == "incomplete"
        assert table("--hosts-peak", "40")["hosts"] != default["hosts"]

    @pytest.mark.parametrize("observer", OBSERVERS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_simulate_observer_matrix(self, engine, observer, tmp_path, capsys):
        """Every observer on every ``simulate`` engine: runs, or is refused
        with exit 2 and an error naming the flag to drop."""
        flags = (
            ["--trace", str(tmp_path / "t.jsonl")]
            if observer == "--trace PATH"
            else [observer]
        )
        status = main([
            "simulate", "--scale", "900", "--proteins", "5",
            *ENGINES[engine], *flags,
        ])
        err = capsys.readouterr().err
        if (engine, observer) in REFUSED:
            assert status == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert observer in err
        else:
            assert status == 0 and err == ""

    def test_simulate_campaign_trace_holds_only_the_named_channels(
        self, tmp_path, capsys
    ):
        from repro.obs import iter_trace

        path = tmp_path / "t.jsonl"
        assert main([
            "simulate", "--campaign", "scale=900,proteins=5",
            "--campaign", "kind=screening,ligands=40,mean-hours=1,batch=20",
            "--trace", str(path), "--trace-channels", "server,host",
        ]) == 0
        channels = {event.etype.split(".")[0] for event in iter_trace(path)}
        assert channels == {"server", "host"}

    def test_simulate_campaign_spec_error_is_friendly(self, capsys):
        assert main(["simulate", "--campaign", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "valid keys" in err

    def test_simulate_campaign_rejects_shards(self, capsys):
        assert main([
            "simulate", "--campaign", "scale=900,proteins=5", "--shards", "2",
        ]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_loadgen_reject_multiple_campaigns(self, capsys):
        assert main([
            "loadgen", "http://127.0.0.1:1",
            "--campaign", "scale=900,proteins=5",
            "--campaign", "kind=screening",
        ]) == 2
        assert "single-campaign wire protocol" in capsys.readouterr().err

    def test_loadgen_rejects_screening_campaign(self, capsys):
        assert main([
            "loadgen", "http://127.0.0.1:1",
            "--campaign", "kind=screening,ligands=5",
        ]) == 2
        assert "cross-docking" in capsys.readouterr().err

    def test_simulate_bad_fault_spec_rejected(self, capsys):
        assert main(["simulate", "--scale", "900", "--proteins", "5",
                     "--faults", "jitter=3"]) == 2
        assert "'jitter'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--proteins", "6", "--shards", "20"], "--shards"),
        (["simulate", "--shards", "2", "--shard-workers", "0"],
         "--shard-workers"),
        (["simulate", "--shards", "-3"], "--shards"),
        (["simulate", "--shards", "0"], "--shards"),
        (["simulate", "--faults", "bogus=1"], "'bogus'"),
        (["simulate", "--campaign", "scale=900,proteins=5",
          "--faults", "bogus=1"], "'bogus'"),
        (["simulate", "--faults", "crash=abc"], "'crash'"),
        (["serve", "--faults", "bogus=1"], "'bogus'"),
        (["serve", "--faults", "outage=2xlong"], "'outage'"),
        (["serve", "--campaign", "kind=screening"], "cross-docking"),
        (["serve", "--campaign", "submit=5,weight=3"], "'weight', 'submit'"),
        (["loadgen", "http://127.0.0.1:1", "--faults", "bogus=1"], "'bogus'"),
        (["loadgen", "http://127.0.0.1:1", "--campaign", "quota=0.5"],
         "'quota'"),
        (["simulate", "--hosts-peak", "0"], "--hosts-peak"),
        (["simulate", "--campaign", "scale=900,proteins=5",
          "--hosts-peak", "-3"], "--hosts-peak"),
        (["serve", "--max-pending", "0", "--port", "0", "--duration", "0"],
         "--max-pending"),
    ])
    def test_user_errors_are_one_line_and_touch_nothing(
        self, argv, named, tmp_path, capsys
    ):
        """What the library refuses is printed as one ``error:`` line
        naming the flag or spec key, exit 2, before anything is printed or
        an existing ``--trace`` file is opened."""
        trace = tmp_path / "existing.jsonl"
        trace.write_text("keep me\n")
        if argv[0] != "loadgen":
            argv = [*argv, "--trace", str(trace)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert trace.read_text() == "keep me\n"

    def test_sharded_profile_sums_over_shards(self, capsys):
        assert main([
            "simulate", "--scale", "900", "--proteins", "5",
            "--shards", "2", "--shard-workers", "1", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "summed over 2 shard processes" in out
        for section in ("setup.workunits", "setup.hosts", "des.run",
                        "des.VolunteerAgent."):
            assert section in out

    def test_sharded_report_needs_no_trace_and_leaves_no_file(
        self, tmp_path, monkeypatch, capsys
    ):
        import tempfile

        from repro._cache import cache_dir

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main([
            "simulate", "--scale", "900", "--proteins", "5",
            "--shards", "2", "--shard-workers", "1", "--report",
        ]) == 0
        out = capsys.readouterr().out
        assert "CAMPAIGN POST-MORTEM" in out and "source: live run" in out
        assert list(tmp_path.iterdir()) == [cache_dir()]  # the per-user cache
        assert all(p.name.startswith("q-") for p in cache_dir().iterdir())  # quantile memos

    def test_compare(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "World Community Grid" in out
        assert "Dedicated Grid" in out

    def test_project(self, capsys):
        assert main(["project"]) == 0
        out = capsys.readouterr().out
        assert "59,730" in out

    def test_project_custom(self, capsys):
        assert main(["project", "--proteins", "1000", "--weeks", "20"]) == 0

    def test_capacity(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "sustainable" in out

    def test_capacity_overload(self, capsys):
        assert main(["capacity", "--hours", "0.05"]) == 0
        assert "NO" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        assert "1,488:237:19:45:54" in out
        assert "Table 3" in out


class TestScienceCommands:
    def test_partners(self, capsys):
        assert main(["partners", "--proteins", "24"]) == 0
        out = capsys.readouterr().out
        assert "top-1 recovery" in out
        assert "ranking AUC" in out

    def test_sites(self, capsys):
        assert main([
            "sites", "--proteins", "20", "--positions", "100", "--keep", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "site recovery" in out
        assert "focused search" in out

    def test_sites_keep_validation(self, capsys):
        """The library's refusal is one ``error:`` line and exit 2 (main
        is the one place that turns a ValueError into that)."""
        assert main(["sites", "--proteins", "20", "--positions", "100",
                     "--keep", "0.0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: keep_fraction must be in (0, 1]\n"


class TestResultsCommands:
    """The `results` subcommands: convert / check / merge / stats."""

    @pytest.fixture
    def text_dir(self, tmp_path):
        from tests.test_cli_transcript import write_result_chunks

        return write_result_chunks(tmp_path / "uploads")

    def test_convert_roundtrip_zero_diff(self, text_dir, tmp_path, capsys):
        store = tmp_path / "all.rcs"
        assert main(["results", "convert", str(text_dir), str(store)]) == 0
        assert "packed 4 text files" in capsys.readouterr().out
        back = tmp_path / "back"
        assert main(["results", "convert", str(store), str(back)]) == 0
        assert "expanded 4 segments" in capsys.readouterr().out
        originals = sorted(text_dir.iterdir())
        restored = sorted(back.iterdir())
        assert [p.name for p in restored] == [p.name for p in originals]
        for orig, rest in zip(originals, restored):
            assert rest.read_bytes() == orig.read_bytes()

    def test_check_ok(self, text_dir, tmp_path, capsys):
        store = tmp_path / "all.rcs"
        main(["results", "convert", str(text_dir), str(store)])
        capsys.readouterr()
        assert main([
            "results", "check", str(store), "--files-expected", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "segments found" in out

    def test_check_rejects_corruption_with_exit_1(
        self, text_dir, tmp_path, capsys
    ):
        # Corrupt one upload's energies before converting.
        victim = sorted(text_dir.iterdir())[0]
        lines = victim.read_text(encoding="ascii").splitlines()
        lines[-1] = lines[-1][:-13] + "% 13.4f" % 9.9e6
        victim.write_text("\n".join(lines) + "\n", encoding="ascii")
        store = tmp_path / "all.rcs"
        main(["results", "convert", str(text_dir), str(store)])
        capsys.readouterr()
        assert main(["results", "check", str(store)]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert victim.name in out

    def test_merge_and_stats(self, text_dir, tmp_path, capsys):
        store = tmp_path / "all.rcs"
        merged = tmp_path / "merged.rcs"
        main(["results", "convert", str(text_dir), str(store)])
        capsys.readouterr()
        assert main(["results", "merge", str(store), str(merged)]) == 0
        assert "into 2 couple segment(s)" in capsys.readouterr().out
        assert main(["results", "stats", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "couples" in out
        assert "text / columnar ratio" in out

    def test_simulate_summary_shows_both_formats(self, capsys):
        assert main(["simulate", "--scale", "500", "--proteins", "8"]) == 0
        out = capsys.readouterr().out
        assert "result dataset (text)" in out
        assert "result dataset (columnar)" in out
        assert "text / columnar ratio" in out


class TestOneSimulateHandler:
    """``simulate`` has one handler: only building the simulation and
    printing its summary table differ by engine."""

    @staticmethod
    def _callers(module) -> dict[str, set[str]]:
        """Called name -> the module-level functions that call it."""
        import ast
        import inspect

        callers: dict[str, set[str]] = {}
        for fn in ast.parse(inspect.getsource(module)).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(fn.name)
        return callers

    def test_no_engine_fork_in_the_cli(self):
        import repro.cli

        assert not hasattr(repro.cli, "_simulate_multi")
        assert not hasattr(repro.cli, "_simulate_tail")
        callers = self._callers(repro.cli)
        assert callers["MultiGridSimulation"] == {"_cmd_simulate"}
        # `serve` and `loadgen` build their one wire campaign with it too
        assert callers["scaled_phase1"] == {"_cmd_simulate", "_service_campaign"}

    def test_run_sharded_refuses_no_observer(self):
        """``run_sharded`` raises nothing: it refuses no observer and no
        tracer sink."""
        import ast
        import inspect

        from repro.boinc.sharding import run_sharded

        raised = [
            ast.unparse(node)
            for node in ast.walk(ast.parse(inspect.getsource(run_sharded)))
            if isinstance(node, ast.Raise)
        ]
        assert raised == []
