"""Command-line interface.

``repro-hcmd`` exposes the pipeline stages as subcommands::

    repro-hcmd estimate                  # formula (1), Section 4.1
    repro-hcmd package --hours 10        # workunit slicing, Section 4.2
    repro-hcmd simulate --scale 200      # scaled volunteer campaign, Section 5
    repro-hcmd simulate --campaign scale=500,proteins=8 \\
        --campaign kind=screening,ligands=2000  # shared multi-campaign grid
    repro-hcmd compare                   # Table 2 equivalence, Section 6
    repro-hcmd project --weeks 40        # phase-II projection, Section 7
    repro-hcmd capacity --devices 836000 # server-capacity check, Section 3.2
    repro-hcmd results convert out/ merged.rcs  # pack text results, columnar
    repro-hcmd results check merged.rcs  # Section 5.2 checks, vectorized
    repro-hcmd trace campaign.jsonl      # replay a structured event trace
    repro-hcmd trace diff a.jsonl b.jsonl  # align two runs, report divergence
    repro-hcmd report --trace campaign.jsonl  # span-level post-mortem
    repro-hcmd serve --scale 900         # live scheduler RPC service
    repro-hcmd loadgen http://127.0.0.1:8642  # drive it over the wire

Every command prints plain-text tables via :mod:`repro.analysis.report`.
``simulate --trace PATH`` records a structured JSONL event trace,
``simulate --profile`` prints per-callback wall-time aggregation,
``simulate --health`` rides a streaming SLO monitor on the campaign and
``simulate --report`` prints the span-level post-mortem right after the
run; the ``trace`` subcommand turns a recorded trace into a summary table
and a human-readable timeline (``--workunit``/``--host`` follow one
workunit or host through its lifecycle), and ``report --trace`` renders
the full campaign post-mortem from a recorded trace (``--markdown`` for
a GitHub-flavoured report).  See docs/observability.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

# The parser is built from the stdlib plus these three (all stdlib-only),
# so ``--help`` and usage errors never wait for numpy or scipy; everything
# a handler needs is imported by the handler (tests/test_import_budget.py).
from . import constants as C
from .boinc.credit import AccountingMode
from .units import format_bytes, format_duration, seconds_to_ydhms

__all__ = ["main", "build_parser"]


def render_table(headers, rows) -> str:
    """:func:`repro.analysis.report.render_table`, imported (with numpy)
    by the first handler that prints a table."""
    from .analysis.report import render_table as render

    return render(headers, rows)


def _add_campaign_flag(p: argparse.ArgumentParser, repeatable: bool) -> None:
    """The shared ``--campaign SPEC`` flag (parsed by repro.multi.spec).

    One grammar across ``simulate``/``serve``/``loadgen``: a
    comma-separated ``key=value`` spec selecting the workload kind and
    campaign knobs.  ``simulate`` accepts the flag repeatedly and runs
    the campaigns on one shared grid; ``serve``/``loadgen`` speak the
    single-campaign wire protocol and accept exactly one.
    """
    extra = (
        "; repeat the flag to share the grid between campaigns"
        if repeatable
        else "; serve/loadgen accept one cross-docking campaign "
             "(the wire protocol is single-campaign)"
    )
    p.add_argument(
        "--campaign", metavar="SPEC", action="append", default=None,
        help="campaign spec: comma-separated key=value, e.g. "
             "'name=hcmd,kind=cross-docking,scale=300,proteins=10' or "
             "'kind=screening,ligands=2000,weight=2' "
             "(overrides --scale/--proteins; see docs/multicampaign.md)"
             + extra,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hcmd",
        description="HCMD phase I on a volunteer grid — reproduction toolkit",
    )
    parser.add_argument(
        "--seed", type=int, default=C.DEFAULT_SEED, help="calibration seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="formula (1) total-work estimate")
    est.add_argument(
        "--proteins", type=int, default=C.N_PROTEINS,
        help="library size (default: the phase-I 168)",
    )

    pkg = sub.add_parser("package", help="slice the workload into workunits")
    pkg.add_argument("--hours", type=float, default=10.0, help="target duration")
    pkg.add_argument(
        "--strategy", default="floor",
        choices=("floor", "round", "merge-tail", "even"),
    )

    simu = sub.add_parser("simulate", help="run a scaled volunteer campaign")
    simu.add_argument("--scale", type=float, default=200.0)
    simu.add_argument("--proteins", type=int, default=16)
    _add_campaign_flag(simu, repeatable=True)
    simu.add_argument(
        "--policy", default="fair-share",
        choices=("fair-share", "strict-priority", "weighted-lottery"),
        help="multi-campaign scheduling policy (with --campaign; "
             "see docs/multicampaign.md)",
    )
    simu.add_argument(
        "--horizon-weeks", type=float, default=40.0,
        help="campaign / grid horizon in simulated weeks",
    )
    simu.add_argument(
        "--hosts-peak", type=int, default=None,
        help="fix the peak host count "
             "(default: auto-sized from the registered work)",
    )
    simu.add_argument(
        "--accounting", default="ud", choices=[m.value for m in AccountingMode]
    )
    simu.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a structured JSONL event trace of the campaign "
             "(replay it with `repro-hcmd trace PATH`)",
    )
    simu.add_argument(
        "--trace-channels", default=None,
        help="comma-separated channels to trace (e.g. 'server,agent'; "
             "default: all; the 'des' channel is the most voluminous)",
    )
    simu.add_argument(
        "--profile", action="store_true",
        help="aggregate wall time per DES callback and print the summary",
    )
    simu.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject faults: comma-separated key=value spec, e.g. "
             "'crash=5,corrupt=0.05,sabotage=0.02,outage=2x12,loss=0.1,"
             "maxreissue=10' (see repro.faults.FaultPlan.from_spec); "
             "prints the campaign error budget after the metrics",
    )
    simu.add_argument(
        "--health", action="store_true",
        help="ride a streaming SLO/health monitor on the campaign "
             "(P2 latency sketches + breach/clear rules) and print the "
             "final SLO report",
    )
    simu.add_argument(
        "--report", action="store_true",
        help="print the span-level campaign post-mortem after the run "
             "(workunit lifecycles reconstructed from the event stream)",
    )
    simu.add_argument(
        "--ledger", action="store_true",
        help="ride the per-host behavioral ledger on the campaign and "
             "print the fleet report (works with --shards; "
             "see docs/observability.md)",
    )
    simu.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="partition the campaign into K independently-simulated "
             "shards and merge the results deterministically "
             "(see repro.boinc.sharding; default: 1 = monolithic)",
    )
    simu.add_argument(
        "--shard-workers", type=int, default=None, metavar="N",
        help="run shards on a pool of N worker processes "
             "(default: min(K, cpu count); the merged result is "
             "identical for every N)",
    )

    sub.add_parser("compare", help="Table 2: volunteer vs dedicated grid")

    proj = sub.add_parser("project", help="phase-II projection (Table 3)")
    proj.add_argument("--proteins", type=int, default=C.PHASE2_N_PROTEINS)
    proj.add_argument(
        "--reduction", type=float, default=C.PHASE2_POINT_REDUCTION,
        help="docking-point reduction factor",
    )
    proj.add_argument("--weeks", type=float, default=float(C.PHASE2_WEEKS))

    cap = sub.add_parser("capacity", help="server transaction-rate check")
    cap.add_argument("--devices", type=float, default=float(C.WCG_DEVICES))
    cap.add_argument("--hours", type=float, default=3.3, help="workunit target")

    rep = sub.add_parser(
        "report", help="the whole reproduction, paper vs measured, one page "
                       "— or, with --trace, a span-level campaign post-mortem"
    )
    rep.add_argument(
        "--trace", metavar="PATH", default=None,
        help="render a campaign post-mortem (phase throughput, latency "
             "percentiles, critical-path couples) from a recorded JSONL "
             "trace instead of the paper-vs-measured page",
    )
    rep.add_argument(
        "--markdown", action="store_true",
        help="render the post-mortem as GitHub-flavoured markdown "
             "(only with --trace)",
    )

    part = sub.add_parser(
        "partners", help="partner prediction from the cross-docking matrix"
    )
    part.add_argument("--proteins", type=int, default=C.N_PROTEINS)
    part.add_argument("--top", type=int, default=5, help="partners per protein")

    sites = sub.add_parser(
        "sites", help="binding-site localization and focused docking"
    )
    sites.add_argument("--proteins", type=int, default=80)
    sites.add_argument("--positions", type=int, default=300)
    sites.add_argument(
        "--keep", type=float, default=0.01,
        help="fraction of docking points kept (phase II uses 0.01)",
    )

    res = sub.add_parser(
        "results", help="columnar result store tools: convert / check / "
                        "merge / stats (see docs/resultstore.md)"
    )
    res_sub = res.add_subparsers(dest="results_command", required=True)
    conv = res_sub.add_parser(
        "convert", help="pack a directory of text result files into a "
                        "columnar store, or expand a store back to text "
                        "(the direction follows the source's type; the "
                        "round trip is byte-identical)"
    )
    conv.add_argument(
        "source", help="a directory of text result files, or a store file"
    )
    conv.add_argument(
        "dest", help="the store file to write, or the directory to expand into"
    )
    chk = res_sub.add_parser(
        "check", help="the Section 5.2 checks (file count, line counts, "
                      "value ranges) as whole-column passes over a store"
    )
    chk.add_argument("store", help="columnar store file")
    chk.add_argument(
        "--files-expected", type=int, default=None,
        help="check 1: expected segment count (default: skip check 1)",
    )
    mrg = res_sub.add_parser(
        "merge", help="merge workunit chunk segments into one segment per "
                      "couple (validates slice tiling, sorts by "
                      "isep/irot/igamma)"
    )
    mrg.add_argument("store", help="chunked store file")
    mrg.add_argument("out", help="merged store file to write")
    st = res_sub.add_parser(
        "stats", help="rows, couples and bytes in both result formats"
    )
    st.add_argument("store", help="columnar store file")

    trace = sub.add_parser(
        "trace", help="summarize a structured JSONL campaign trace, or "
                      "diff two runs: `trace diff A.jsonl B.jsonl`"
    )
    trace.add_argument(
        "path", nargs="+",
        help="JSONL trace (from `simulate --trace`), or `diff A B` to "
             "align two traces by workunit and report divergence",
    )
    trace.add_argument(
        "--limit", type=int, default=20,
        help="max timeline lines (head + tail; default 20)",
    )
    trace.add_argument(
        "--channel", default=None,
        help="restrict the timeline to one channel (des, server, agent, "
             "fault, docking, telemetry, health)",
    )
    trace.add_argument(
        "--workunit", type=int, default=None, metavar="WU",
        help="follow one workunit id through its lifecycle "
             "(issue/fetch/compute/report/validate)",
    )
    trace.add_argument(
        "--host", type=int, default=None,
        help="restrict the timeline to one host id",
    )
    trace.add_argument(
        "--campaign", metavar="NAME", default=None,
        help="restrict the timeline to one campaign's events (matches the "
             "campaign= stamps a multi-campaign grid adds)",
    )

    hosts = sub.add_parser(
        "hosts", help="fleet forensics: fold a recorded JSONL trace into "
                      "the per-host behavioral ledger and print the fleet "
                      "report (see docs/observability.md)"
    )
    hosts.add_argument(
        "path",
        help="JSONL trace (from `simulate --trace`); lifecycle channels "
             "(server, agent, fault, host) must have been recorded",
    )
    hosts.add_argument(
        "--host", type=int, default=None,
        help="one host's full record plus its event timeline",
    )
    hosts.add_argument(
        "--format", default="table", choices=("table", "md", "json"),
        help="fleet report format (default: terminal table)",
    )
    hosts.add_argument(
        "--top", type=int, default=10,
        help="rows in the per-host table (default 10)",
    )
    hosts.add_argument(
        "--limit", type=int, default=40,
        help="max timeline lines with --host (default 40)",
    )

    def campaign_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", type=float, default=200.0)
        p.add_argument("--proteins", type=int, default=16)
        _add_campaign_flag(p, repeatable=False)
        p.add_argument(
            "--horizon-weeks", type=float, default=40.0,
            help="campaign horizon (simulated weeks)",
        )
        p.add_argument(
            "--faults", metavar="SPEC", default=None,
            help="fault spec, as in `simulate --faults` (serve and loadgen "
                 "must agree on it for deterministic replay)",
        )

    srv = sub.add_parser(
        "serve", help="run the live scheduler service: the campaign's "
                      "GridServer behind an HTTP/JSON RPC front-end "
                      "(request-work / report-result / heartbeat; "
                      "see docs/service.md)"
    )
    campaign_flags(srv)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=8642,
        help="listening port (0 = let the OS pick one)",
    )
    srv.add_argument(
        "--max-pending", type=int, default=1024,
        help="bounded write-queue depth; a full queue refuses RPCs with "
             "503 + Retry-After instead of buffering unboundedly",
    )
    srv.add_argument(
        "--time-scale", type=float, default=1.0,
        help="live-mode clock: simulated seconds per wall second "
             "(replay clients carry explicit timestamps instead)",
    )
    srv.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for this long, then drain and exit "
             "(default: until Ctrl-C)",
    )
    srv.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record service/server events to a JSONL trace",
    )

    lg = sub.add_parser(
        "loadgen", help="drive a running scheduler service: deterministic "
                        "campaign replay or an open-loop request storm"
    )
    lg.add_argument("url", help="service URL, e.g. http://127.0.0.1:8642")
    lg.add_argument(
        "--mode", default="replay", choices=("replay", "storm"),
        help="replay: run the seeded campaign as a wire client "
             "(reconciles exactly with the in-process run); "
             "storm: open-loop throughput/overload measurement",
    )
    campaign_flags(lg)
    lg.add_argument(
        "--reconcile", action="store_true",
        help="replay mode: also run the campaign in-process and verify "
             "the wire-driven run matches (exit 1 on divergence)",
    )
    lg.add_argument(
        "--hosts", type=int, default=10_000,
        help="storm mode: distinct host ids to sweep",
    )
    lg.add_argument(
        "--connections", type=int, default=32,
        help="storm mode: concurrent keep-alive connections",
    )
    lg.add_argument(
        "--requests-per-host", type=int, default=1,
        help="storm mode: sweep the host-id range this many times",
    )
    return parser


def _library(n_proteins: int, seed: int):
    """The phase-I library at its real size, a synthetic one otherwise."""
    from .proteins.library import ProteinLibrary

    if n_proteins == C.N_PROTEINS:
        return ProteinLibrary.phase1(seed=seed)
    return ProteinLibrary.synthetic(n_proteins=n_proteins, seed=seed)


def _library_and_costs(n_proteins: int, seed: int):
    from .maxdo.cost_model import CostModel

    library = _library(n_proteins, seed)
    return library, CostModel.calibrated(library)


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .core.estimation import estimate_total_work

    library, cost_model = _library_and_costs(args.proteins, args.seed)
    report = estimate_total_work(library, cost_model)
    print(render_table(["quantity", "value"], [
        ["proteins", report.n_proteins],
        ["total reference CPU (y:d:h:m:s)", report.total_ydhms],
        ["maximum workunits", report.max_workunits],
        ["result dataset", format_bytes(report.result_bytes)],
    ]))
    return 0


def _cmd_package(args: argparse.Namespace) -> int:
    from .core.packaging import PackagingPolicy, WorkUnitPlan

    _, cost_model = _library_and_costs(C.N_PROTEINS, args.seed)
    plan = WorkUnitPlan(
        cost_model, PackagingPolicy(target_hours=args.hours, strategy=args.strategy)
    )
    stats = plan.duration_stats()
    print(render_table(["quantity", "value"], [
        ["target duration", f"{args.hours:g} h ({args.strategy})"],
        ["workunits", plan.total_workunits()],
        ["mean duration", format_duration(stats["mean"])],
        ["max duration", format_duration(stats["max"])],
        ["total reference CPU", str(seconds_to_ydhms(plan.total_reference_cpu()))],
    ]))
    return 0


def _fault_plan(args: argparse.Namespace):
    """The ``--faults SPEC`` of ``simulate`` / ``serve`` / ``loadgen`` as a
    ``FaultPlan``."""
    from .faults import FaultPlan

    if args.faults is None:
        return FaultPlan.none()
    return FaultPlan.from_spec(args.faults)


def _simulate_prologue(args: argparse.Namespace, channels=None, path=None):
    """What both ``simulate`` engines build from ``--trace`` / ``--profile``:
    ``(tracer, profiler)``.  ``path`` defaults to ``--trace``.  Opening the
    trace truncates the file, so call this once the run's configuration
    has been accepted."""
    from .obs import Profiler, Tracer

    if path is None:
        path = args.trace
    tracer = (
        Tracer.to_jsonl(path, channels=channels) if path is not None else None
    )
    return tracer, Profiler() if args.profile else None


def _simulate_epilogue(
    args: argparse.Namespace, profiler, trace_line: str, summed_over: str = ""
) -> None:
    """The trace / profile trailer both ``simulate`` engines end with."""
    if args.trace is not None:
        print(f"{trace_line} -> {args.trace} "
              f"(summarize with `repro-hcmd trace {args.trace}`)")
    if profiler is not None:
        print(f"\nwall-time profile{summed_over} (heaviest sections first):")
        print(profiler.render())


def _print_fleet_reports(result) -> None:
    """The ``--health`` / ``--ledger`` reports of either ``simulate`` engine."""
    for report in (result.health, result.ledger):
        if report is not None:
            print()
            print(report.render())


def _simulate_multi(args: argparse.Namespace) -> int:
    """``simulate --campaign SPEC [--campaign SPEC ...]``: a shared grid."""
    from .multi import GridConfig, MultiGridSimulation
    from .multi.spec import parse_campaign_spec

    for flag, used in (("--shards", args.shards != 1), ("--report", args.report)):
        if used:
            raise ValueError(f"{flag} needs the single-campaign engine; "
                             f"drop {flag} or --campaign")
    grid = GridConfig(
        campaigns=tuple(parse_campaign_spec(s) for s in args.campaign),
        policy=args.policy,
        seed=args.seed,
        horizon_weeks=args.horizon_weeks,
        n_hosts_peak=args.hosts_peak,
        faults=_fault_plan(args),
        accounting=AccountingMode(args.accounting),
    )
    tracer, profiler = _simulate_prologue(args)
    try:
        result = MultiGridSimulation(
            grid, tracer=tracer, profiler=profiler,
            health=args.health, ledger=args.ledger,
        ).run()
    finally:
        if tracer is not None:
            tracer.close()
    shares = result.issued_share()
    rows = []
    for name, campaign_result in result.campaigns.items():
        kind = type(grid.campaign(name).workload).__name__
        weeks = campaign_result.completion_weeks
        stats = campaign_result.server.stats
        rows.append([
            name,
            "cross-docking" if kind == "CrossDockingWorkload" else "screening",
            campaign_result.server.n_workunits,
            stats.effective,
            f"{weeks:.1f}" if weeks else "incomplete",
            f"{shares.get(name, 0.0):.1%}",
        ])
    print(render_table(
        ["campaign", "kind", "workunits", "validated", "weeks", "share"],
        rows,
    ))
    merged = result.merged_stats()
    grid_weeks = result.completion_time
    print(f"\npolicy: {grid.policy}; hosts: {result.n_hosts}; "
          f"grid completion: "
          + (f"{grid_weeks / (7 * 86400):.1f} weeks"
             if grid_weeks is not None else "incomplete")
          + f"; validated results: {merged.effective:,}")
    _print_fleet_reports(result)
    _simulate_epilogue(args, profiler, "trace:")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Either ``simulate`` engine; whatever the library refuses (a bad
    spec, an observer an engine cannot carry) is printed, not re-checked."""
    try:
        return (_simulate_multi if args.campaign else _simulate_single)(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _simulate_single(args: argparse.Namespace) -> int:
    import tempfile

    from .boinc.config import CampaignConfig
    from .boinc.sharding import ShardPlan, plan_shards
    from .boinc.simulator import scaled_phase1

    faults = _fault_plan(args)
    shards = ShardPlan(
        n_shards=args.shards,
        n_workers=(
            args.shard_workers
            if args.shard_workers is not None
            else min(args.shards, os.cpu_count() or 1)
        ),
    )
    sim = scaled_phase1(
        scale=args.scale,
        n_proteins=args.proteins,
        seed=args.seed,
        horizon_weeks=args.horizon_weeks,
        n_hosts_peak=args.hosts_peak,
        config=CampaignConfig(
            accounting=AccountingMode(args.accounting),
            faults=faults,
            shards=shards,
        ),
        health=args.health,
        ledger=args.ledger,
    )
    sharded = shards.n_shards > 1
    if sharded:
        # More shards than receptor batches is refused here, by the
        # planner, while an existing --trace file is still untouched.
        plan_shards(sim, shards.n_shards)
    trace_path = args.trace
    channels = (
        [c.strip() for c in args.trace_channels.split(",") if c.strip()]
        if args.trace_channels is not None
        else None
    )
    with tempfile.TemporaryDirectory() as scratch:
        if args.report and trace_path is None:
            # The post-mortem reconstructs workunit lifecycles from a
            # recorded event stream; without --trace, record the lifecycle
            # channels to a file that goes away with the report.
            trace_path = os.path.join(scratch, "report.jsonl")
            channels = ("server", "agent", "fault", "health")
        tracer, profiler = _simulate_prologue(args, channels, trace_path)
        sim.tracer, sim.profiler = tracer, profiler
        try:
            result = sim.run()
        finally:
            if tracer is not None:
                tracer.close()
        report = None
        if args.report:
            from .obs.postmortem import CampaignReport

            report = CampaignReport.from_trace(trace_path)
            if args.trace is None:
                report.source = "live run"
    from .validation.merge import dataset_volume

    volume = dataset_volume(sim.library)
    full_library = args.proteins == C.N_PROTEINS
    metrics = result.metrics()
    weeks = result.completion_weeks
    print(render_table(["quantity", "value", "paper"], [
        ["scale", f"1/{args.scale:g}", "-"],
        ["hosts", result.n_hosts, "-"],
        ["workunits", sim.plan.total_workunits(), "-"],
        ["completion (weeks)", f"{weeks:.1f}" if weeks else "incomplete", "26"],
        ["redundancy factor", f"{metrics.redundancy:.3f}", "1.37"],
        ["useful result fraction", f"{metrics.useful_result_fraction:.3f}", "0.73"],
        ["net speed-down", f"{metrics.speed_down_net:.2f}", "3.96"],
        ["points-based VFTP / truth",
         f"{result.vftp_from_credit() / result.vftp_from_useful_work():.2f}", "-"],
        ["result dataset (text)", format_bytes(volume.raw_bytes),
         "123 GB" if full_library else "-"],
        ["result dataset (columnar)", format_bytes(volume.columnar_bytes), "-"],
        ["text / columnar ratio", f"{volume.columnar_ratio:.2f}x", "-"],
    ]))
    if result.shard_walls is not None:
        walls = ", ".join(f"{w:.2f}s" for w in result.shard_walls)
        print(f"\nshards: {args.shards} x {shards.n_workers} worker(s); "
              f"per-shard wall [{walls}]")
    if faults.enabled:
        print("\nerror budget (fault injection):")
        print(render_table(["quantity", "value"], result.fault_report().rows()))
    _print_fleet_reports(result)
    if report is not None:
        report.health = result.health
        report.fault_rows = result.fault_report().rows() if faults.enabled else None
        report.volume = volume
        print()
        print(report.render())
    _simulate_epilogue(
        args, profiler,
        f"\ntrace: {tracer.n_events:,} events" if tracer is not None else "",
        f", summed over {args.shards} shard processes" if sharded else "",
    )
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    try:
        return _run_results(args)
    except (OSError, ValueError) as exc:
        # missing/corrupt store files and merge/conversion rejections are
        # user errors, not tracebacks (same convention as loadgen)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_results(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .maxdo.resultfile import BYTES_PER_LINE
    from .store import (
        check_store,
        merge_couple_store,
        read_store,
        store_to_text,
        text_to_store,
    )

    if args.results_command == "convert":
        source, dest = Path(args.source), Path(args.dest)
        if source.is_dir():
            paths = sorted(p for p in source.iterdir() if p.is_file())
            if not paths:
                print(f"error: no result files in {source}", file=sys.stderr)
                return 2
            text_bytes = sum(p.stat().st_size for p in paths)
            n = text_to_store(paths, dest)
            store_bytes = dest.stat().st_size
            print(f"packed {n} text files ({format_bytes(text_bytes)}) -> "
                  f"{dest} ({format_bytes(store_bytes)}, "
                  f"{text_bytes / store_bytes:.2f}x smaller)")
        else:
            written = store_to_text(source, dest)
            print(f"expanded {len(written)} segments from {source} -> {dest}")
        return 0

    if args.results_command == "check":
        report = check_store(args.store, files_expected=args.files_expected)
        rows = [
            ["segments found", report.files_found],
            ["segments expected",
             report.files_expected if args.files_expected is not None else "-"],
            ["bad line counts", len(report.files_with_bad_line_count)],
            ["bad values", len(report.files_with_bad_values)],
            ["verdict", "OK" if report.ok else "REJECTED"],
        ]
        print(render_table(["check", "value"], rows))
        for name in report.files_with_bad_line_count:
            print(f"  line count: {name}")
        for name, problems in report.files_with_bad_values.items():
            print(f"  values: {name}: {', '.join(problems)}")
        return 0 if report.ok else 1

    if args.results_command == "merge":
        n_rows = merge_couple_store(args.store, args.out)
        merged = read_store(args.out)
        print(f"merged {n_rows:,} rows into {len(merged)} couple "
              f"segment(s) -> {args.out}")
        return 0

    # stats
    store = read_store(args.store)
    store_bytes = Path(args.store).stat().st_size
    header_bytes = sum(
        len("\n".join(s.header.lines())) + 1 for s in store.segments
    )
    text_bytes = header_bytes + store.n_rows * BYTES_PER_LINE
    print(render_table(["quantity", "value"], [
        ["segments", len(store)],
        ["couples", len(store.by_couple())],
        ["rows", f"{store.n_rows:,}"],
        ["store bytes", format_bytes(store_bytes)],
        ["text-equivalent bytes", format_bytes(text_bytes)],
        ["text / columnar ratio", f"{text_bytes / store_bytes:.2f}x"],
    ]))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import format_timeline, iter_trace, summarize_trace
    from .obs.replay import filter_events

    if args.path[0] == "diff":
        from .obs.postmortem import diff_traces

        if len(args.path) != 3:
            print("usage: repro-hcmd trace diff A.jsonl B.jsonl",
                  file=sys.stderr)
            return 2
        diff = diff_traces(args.path[1], args.path[2])
        print(diff.render())
        return 0 if diff.identical else 1
    if len(args.path) != 1:
        print("usage: repro-hcmd trace PATH (or: trace diff A B)",
              file=sys.stderr)
        return 2
    path = args.path[0]

    def selected():
        # Stream from disk on every pass: the trace is never resident.
        return filter_events(
            iter_trace(path), workunit=args.workunit, host=args.host,
            campaign=args.campaign,
        )

    summary = summarize_trace(selected())
    span = summary.sim_span_days
    selection = [
        f"{name}={value}"
        for name, value in (
            ("workunit", args.workunit),
            ("host", args.host),
            ("campaign", args.campaign),
        )
        if value is not None
    ]
    rows = [
        ["events", summary.n_events],
        ["event types", len(summary.by_type)],
        ["channels", ", ".join(sorted(summary.by_channel)) or "-"],
        ["simulated span", f"{span:.1f} days" if span is not None else "-"],
    ]
    if selection:
        rows.insert(0, ["selection", ", ".join(selection)])
    print(render_table(["quantity", "value"], rows))
    if summary.by_type:
        print()
        print(render_table(
            ["event type", "channel", "count"],
            [list(row) for row in summary.rows()],
        ))
    lines = format_timeline(selected(), limit=args.limit, channel=args.channel)
    if lines:
        print()
        print("\n".join(lines))
    return 0


def _cmd_hosts(args: argparse.Namespace) -> int:
    """``hosts TRACE``: the per-host behavioral ledger from a trace."""
    import json

    from .obs import format_timeline, iter_trace
    from .obs.ledger import HostLedger
    from .obs.replay import filter_events

    ledger = HostLedger()
    t_end = 0.0
    try:
        for event in iter_trace(args.path):
            ledger.feed(event)
            # the horizon is the trace's last timestamp, folded or not
            if event.t_sim is not None:
                t_end = event.t_sim
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fleet = ledger.finalize(t_end)
    if fleet.n_hosts == 0:
        print(
            "error: no host activity in the trace — record the lifecycle "
            "channels (server, agent, fault, host), e.g. `simulate "
            "--trace PATH` without a restrictive --trace-channels",
            file=sys.stderr,
        )
        return 2

    if args.host is not None:
        try:
            doc = fleet.host(args.host)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        turnaround = doc["turnaround"]
        rows = [
            ["class", doc["class"]],
            ["issued / results / validated",
             f"{doc['issued']} / {doc['results']} / {doc['validated']}"],
            ["invalid / late / timed out",
             f"{doc['invalid']} / {doc['late']} / {doc['timed_out']}"],
            ["crashes / corrupted / sabotaged",
             f"{doc['crashes']} / {doc['corrupted']} / {doc['sabotaged']}"],
            ["sabotage caught / bad validated",
             f"{doc['sabotage_caught']} / {doc['bad_validated']}"],
            ["sessions / uptime",
             f"{doc['sessions']} / {doc['uptime_fraction']:.1%}"],
            ["trust streak (now / peak)",
             f"{doc['streak']} / {doc['peak_streak']}"
             + (" (trusted)" if doc["trusted"] else "")],
            ["demotions / spot checks",
             f"{doc['demotions']} / {doc['spot_checks']}"],
            ["cpu / credit",
             f"{format_duration(doc['cpu_s'])} / {doc['credit']:,.0f}"],
        ]
        estimates = turnaround.get("estimates")
        if estimates:
            rows.append([
                "turnaround p50 / p90 / p99",
                " / ".join(
                    format_duration(estimates[k])
                    for k in ("p50", "p90", "p99")
                ),
            ])
        print(render_table([f"host {args.host}", "value"], rows))
        lines = format_timeline(
            filter_events(iter_trace(args.path), host=args.host),
            limit=args.limit,
        )
        if lines:
            print()
            print("\n".join(lines))
        return 0

    if args.format == "json":
        print(json.dumps(fleet.as_dict(), indent=2, sort_keys=True))
    elif args.format == "md":
        print(fleet.render_markdown(top=args.top))
    else:
        print(fleet.render(top=args.top))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.comparison import EquivalenceTable
    from .core.campaign import CampaignPlan
    from .core.packaging import PackagingPolicy, WorkUnitPlan
    from .fluid import FluidCampaign

    library, cost_model = _library_and_costs(C.N_PROTEINS, args.seed)
    campaign = CampaignPlan(library, cost_model)
    plan = WorkUnitPlan(cost_model, PackagingPolicy(3.65))
    result = FluidCampaign(campaign, plan.duration_stats()["mean"]).run()
    table = EquivalenceTable.from_metrics(
        result.metrics(), result.metrics(first_week=13)
    )
    rows = table.rows()
    print(render_table(["grid", "whole period", "full power phase"], [
        ["World Community Grid (VFTP)", rows[0][1], rows[1][1]],
        ["Dedicated Grid (processors)", rows[0][2], rows[1][2]],
    ]))
    print(f"\ncompletion: {result.completion_week:.1f} weeks "
          f"(paper: 26); raw speed-down "
          f"{table.whole_period.speed_down:.2f} (paper: 5.43)")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from .core.projection import project_phase2

    proj = project_phase2(
        n_proteins_new=args.proteins,
        point_reduction=args.reduction,
        phase2_weeks=args.weeks,
    )
    print(render_table(["", "phase I", "phase II"], [
        [label, round(a), round(b)] for label, a, b in proj.rows()
    ]))
    print(f"\nweeks at phase-I rate: {proj.weeks_at_phase1_rate:.0f}; "
          f"members at 25% grid share: {proj.members_needed(0.25):,.0f}")
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from .boinc.capacity import ServerCapacityModel

    model = ServerCapacityModel()
    device_s = args.hours * 3600 * C.SPEED_DOWN_NET
    print(render_table(["quantity", "value"], [
        ["devices", f"{args.devices:,.0f}"],
        ["workunit target", f"{args.hours:g} reference hours"],
        ["results per day", f"{model.results_per_day(args.devices, device_s):,.0f}"],
        ["server utilization", f"{model.utilization(args.devices, device_s):.1%}"],
        ["sustainable", "yes" if model.sustainable(args.devices, device_s) else "NO"],
        ["minimum sustainable workunit",
         f"{model.min_workunit_hours(args.devices, C.SPEED_DOWN_NET):.2f} h"],
    ]))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.trace is not None:
        from .obs.postmortem import CampaignReport

        print(CampaignReport.from_trace(args.trace).render(
            markdown=args.markdown
        ))
        return 0

    from .analysis.summary import full_report

    print(full_report(seed=args.seed))
    return 0


def _cmd_partners(args: argparse.Namespace) -> int:
    from .science import CrossDockingMatrix, predict_partners, recovery_rate
    from .science.partners import ranking_auc

    matrix = CrossDockingMatrix.synthetic(_library(args.proteins, args.seed))
    pred = predict_partners(matrix)
    print(render_table(["quantity", "value"], [
        ["proteins", matrix.n_proteins],
        ["planted complexes", len(matrix.complexes)],
        [f"top-1 recovery", f"{recovery_rate(pred, matrix.complexes, 1):.0%}"],
        [f"top-{args.top} recovery",
         f"{recovery_rate(pred, matrix.complexes, args.top):.0%}"],
        ["ranking AUC", f"{ranking_auc(pred, matrix.complexes):.3f}"],
    ]))
    return 0


def _cmd_sites(args: argparse.Namespace) -> int:
    from .science import SiteMaps, predict_partners, recovery_rate

    maps = SiteMaps.synthetic(
        n_proteins=args.proteins, seed=args.seed, n_positions=args.positions
    )
    pruned = maps.pruned(keep_fraction=args.keep)
    full_rec = recovery_rate(predict_partners(maps.to_matrix()), maps.complexes, 1)
    pruned_rec = recovery_rate(
        predict_partners(pruned.to_matrix()), maps.complexes, 1
    )
    print(render_table(["quantity", "value"], [
        ["proteins / positions", f"{maps.n_proteins} / {maps.n_positions}"],
        ["site recovery", f"{maps.site_recovery():.0%}"],
        ["partner recovery (full grid)", f"{full_rec:.0%}"],
        [f"partner recovery ({args.keep:.0%} of points)", f"{pruned_rec:.0%}"],
        ["compute cost of focused search",
         f"{maps.docking_cost_fraction(args.keep):.1%} of the full grid"],
    ]))
    return 0


def _service_campaign(args: argparse.Namespace):
    """The shared campaign construction for `serve` and `loadgen`.

    Both sides must build the identical campaign (same seed, scale,
    protein count, horizon and fault spec) for deterministic replay; the
    wire proxy verifies this against the service's discovery endpoint.
    Returns ``(simulation, campaign_name)``; a ``--campaign SPEC``
    overrides the ``--scale``/``--proteins`` shorthand (one cross-docking
    campaign — the wire protocol is single-campaign, so the keys that
    schedule a campaign against others are refused, not dropped).  Raises
    ``ValueError`` for whatever the spec or ``--faults`` gets wrong.
    """
    from .boinc.config import CampaignConfig
    from .boinc.simulator import scaled_phase1

    name = "hcmd"
    scale, n_proteins = args.scale, args.proteins
    target_hours, release_policy = 3.65, "least-cost"
    if args.campaign:
        from .multi.spec import CampaignSpecError, parse_campaign_spec
        from .multi.workloads import CrossDockingWorkload

        if len(args.campaign) > 1:
            raise CampaignSpecError(
                "serve/loadgen speak the single-campaign wire protocol; "
                "pass --campaign once (run several campaigns on one grid "
                "with `simulate --campaign ... --campaign ...`)"
            )
        campaign = parse_campaign_spec(args.campaign[0], roster=False)
        if not isinstance(campaign.workload, CrossDockingWorkload):
            raise CampaignSpecError(
                "serve/loadgen front a cross-docking GridServer; use "
                "kind=cross-docking (screening campaigns run under "
                "`simulate --campaign`)"
            )
        name = campaign.name
        scale = campaign.workload.scale
        n_proteins = campaign.workload.n_proteins
        target_hours = campaign.workload.target_hours
        release_policy = campaign.workload.release_policy
    faults = _fault_plan(args)
    sim = scaled_phase1(
        scale=scale,
        n_proteins=n_proteins,
        seed=args.seed,
        target_hours=target_hours,
        horizon_weeks=args.horizon_weeks,
        config=CampaignConfig(faults=faults, release_policy=release_policy),
    )
    return sim, name


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .obs import Tracer
    from .service import SchedulerService, ServiceConfig

    try:
        sim_model, campaign_name = _service_campaign(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _run(service: SchedulerService) -> None:
        host, port = await service.start()
        print(
            f"serving campaign {campaign_name!r}: "
            f"{service.server.n_workunits} workunits at "
            f"http://{host}:{port} (drive it with `repro-hcmd loadgen "
            f"http://{host}:{port}`; Ctrl-C drains and exits)",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        if args.duration is not None:
            try:
                await asyncio.wait_for(stop.wait(), timeout=args.duration)
            except asyncio.TimeoutError:
                pass
        else:
            await stop.wait()
        print("draining...", flush=True)
        await service.shutdown()

    # Opened once the configuration has been accepted (it truncates).
    tracer = Tracer.to_jsonl(args.trace) if args.trace is not None else None
    try:
        service = SchedulerService(
            sim_model,
            config=ServiceConfig(
                host=args.host,
                port=args.port,
                max_pending=args.max_pending,
                time_scale=args.time_scale,
            ),
            tracer=tracer,
            campaign=campaign_name,
        )
        asyncio.run(_run(service))
    finally:
        if tracer is not None:
            tracer.close()
    stats = service.server.stats
    print(render_table(["quantity", "value"], [
        ["requests answered", service.requests_total],
        ["results validated", stats.effective],
        ["refused (outage)", service.refused["outage"]],
        ["refused (overload)", service.refused["overload"]],
        ["refused (draining)", service.refused["draining"]],
        ["peak queue depth", service.max_queue_depth],
    ]))
    if tracer is not None:
        print(f"trace: {tracer.n_events:,} events -> {args.trace}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service import replay_campaign, storm

    if args.mode == "storm":
        try:
            report = storm(
                args.url,
                n_hosts=args.hosts,
                connections=args.connections,
                requests_per_host=args.requests_per_host,
            )
        except OSError as exc:
            print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
            return 1
        latency = report.latency_quantiles()
        rows = [
            ["hosts x sweeps", f"{report.n_hosts} x {args.requests_per_host}"],
            ["connections", report.connections],
            ["requests sent", report.sent],
            ["requests answered", report.answered],
            ["dropped (no response)", report.dropped],
            ["refused (503)", report.refused_total],
            ["assignments / reports", f"{report.assignments} / {report.reports}"],
            ["sustained requests/s", f"{report.requests_per_s:,.0f}"],
            ["latency p50 / p99 (ms)",
             f"{latency.get('p50', 0) * 1e3:.2f} / {latency.get('p99', 0) * 1e3:.2f}"],
        ]
        # The service's own per-op P2 sketches (service.rpc_wall_s.<op>).
        for name in sorted(report.service_rpc_wall_s):
            sketch = report.service_rpc_wall_s[name]
            estimates = sketch.get("estimates")
            if not estimates:
                continue
            op = name.rsplit(".", 1)[-1]
            rows.append([
                f"service {op} p50 / p99 (ms)",
                f"{estimates.get('p50', 0) * 1e3:.2f} / "
                f"{estimates.get('p99', 0) * 1e3:.2f}",
            ])
        print(render_table(["quantity", "value"], rows))
        return 0 if report.dropped == 0 else 1

    try:
        sim_model = _service_campaign(args)[0]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = replay_campaign(sim_model, args.url)
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # campaign identity mismatch from the proxy
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result.metrics()
    weeks = result.completion_weeks
    print(render_table(["quantity", "value"], [
        ["hosts", result.n_hosts],
        ["workunits", result.server.n_workunits],
        ["completion (weeks)", f"{weeks:.1f}" if weeks else "incomplete"],
        ["results validated", result.server.stats.effective],
        ["redundancy factor", f"{metrics.redundancy:.3f}"],
        ["useful result fraction", f"{metrics.useful_result_fraction:.3f}"],
    ]))
    if args.reconcile:
        reference = _service_campaign(args)[0].run()
        match = (
            result.server.stats == reference.server.stats
            and result.completion_time == reference.completion_time
        )
        print(f"\nreconcile vs in-process run: "
              f"{'MATCH' if match else 'DIVERGED'}")
        if not match:
            print(f"  wire:       {result.server.stats}")
            print(f"  in-process: {reference.server.stats}")
            return 1
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "package": _cmd_package,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "project": _cmd_project,
    "capacity": _cmd_capacity,
    "report": _cmd_report,
    "partners": _cmd_partners,
    "sites": _cmd_sites,
    "results": _cmd_results,
    "trace": _cmd_trace,
    "hosts": _cmd_hosts,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
