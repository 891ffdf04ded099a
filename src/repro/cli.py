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

The interface is one table, :data:`COMMANDS`: a row per subcommand
holding its name, help, flags and handler (``results`` nests a table of
its own).  A flag several subcommands share is declared once, as a
module constant, and referenced from each row; :func:`build_parser` is a
loop over the table.  A handler reads its flags, calls the library and
prints what the library's objects render; whatever the library refuses
(a ``ValueError``, or an ``OSError`` on a file) becomes one ``error:``
line and exit 2 in :func:`main`, the one place that does so.

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
import contextlib
import os
import sys
from typing import Any, Sequence

# The parser is built from the stdlib plus these four (all stdlib-only),
# so ``--help`` and usage errors never wait for numpy or scipy; everything
# a handler runs is imported by the handler (tests/test_import_budget.py).
from . import constants as C
from .analysis.report import render_table
from .boinc.credit import AccountingMode
from .units import format_bytes

__all__ = ["main", "build_parser"]


def arg(*names: str, **options: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    """One ``add_argument`` call, declared as data."""
    return names, options


# -- flags shared between subcommands, each declared once --------------------

SCALE = arg("--scale", type=float, default=200.0)
PROTEINS = arg("--proteins", type=int, default=16)
CAMPAIGN = arg(
    "--campaign", metavar="SPEC", action="append",
    help="campaign spec: comma-separated key=value, e.g. "
         "'name=hcmd,kind=cross-docking,scale=300,proteins=10' or "
         "'kind=screening,ligands=2000,weight=2' "
         "(overrides --scale/--proteins; see docs/multicampaign.md); "
         "simulate takes the flag repeatedly and shares the grid between "
         "the campaigns, serve/loadgen accept one cross-docking campaign "
         "(the wire protocol is single-campaign)",
)
HORIZON = arg(
    "--horizon-weeks", type=float, default=40.0,
    help="campaign / grid horizon in simulated weeks",
)
FAULTS = arg(
    "--faults", metavar="SPEC", default="",
    help="inject faults: comma-separated key=value spec, e.g. "
         "'crash=5,corrupt=0.05,sabotage=0.02,outage=2x12,loss=0.1,"
         "maxreissue=10' (see repro.faults.FaultPlan.from_spec); "
         "simulate prints the campaign error budget after the metrics, "
         "serve and loadgen must agree on it for deterministic replay",
)


# -- handlers: parse -> call -> print (None means exit 0) ---------------------


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


def _tracer(path: str | None, channels=None):
    """A JSONL tracer on ``path`` that closes on leaving the ``with``
    block (a null context without a path).  Opening truncates the file, so
    enter it once the run's configuration has been accepted."""
    from .obs import Tracer

    if path is None:
        return contextlib.nullcontext()
    return Tracer.to_jsonl(path, channels=channels)


def _cmd_estimate(args: argparse.Namespace) -> None:
    from .core.estimation import estimate_total_work

    report = estimate_total_work(*_library_and_costs(args.proteins, args.seed))
    print(render_table(["quantity", "value"], report.rows()))


def _cmd_package(args: argparse.Namespace) -> None:
    from .core.packaging import PackagingPolicy, WorkUnitPlan

    _, cost_model = _library_and_costs(C.N_PROTEINS, args.seed)
    plan = WorkUnitPlan(
        cost_model, PackagingPolicy(target_hours=args.hours, strategy=args.strategy)
    )
    print(render_table(["quantity", "value"], plan.summary_rows()))


def _cmd_simulate(args: argparse.Namespace) -> None:
    """Every ``simulate`` engine: a campaign alone, sharded, or a roster
    (``--campaign SPEC``, repeatable) sharing one grid.  Only building the
    simulation and printing its summary table differ by engine; every
    observer flag is handled once, and whatever the library refuses (a bad
    spec, more shards than receptor batches) is printed, not re-checked."""
    import tempfile

    from .faults import FaultPlan
    from .obs import Profiler
    from .obs.postmortem import CampaignReport
    from .obs.spans import reconstruct_file

    faults = FaultPlan.from_spec(args.faults)
    observers = {"health": args.health, "ledger": args.ledger}
    volume = None
    if args.campaign:
        from .multi import GridConfig, MultiGridSimulation
        from .multi.spec import parse_campaign_spec

        if args.shards != 1:
            raise ValueError("--shards needs the single-campaign engine; "
                             "drop --shards or --campaign")
        sim = MultiGridSimulation(
            GridConfig(
                campaigns=tuple(parse_campaign_spec(s) for s in args.campaign),
                policy=args.policy,
                seed=args.seed,
                horizon_weeks=args.horizon_weeks,
                n_hosts_peak=args.hosts_peak,
                faults=faults,
                accounting=AccountingMode(args.accounting),
            ),
            **observers,
        )
    else:
        from .boinc.config import CampaignConfig
        from .boinc.sharding import ShardPlan, plan_shards
        from .boinc.simulator import scaled_phase1
        from .validation.merge import dataset_volume

        n_workers = args.shard_workers
        if n_workers is None:
            n_workers = min(args.shards, os.cpu_count() or 1)
        shards = ShardPlan(n_shards=args.shards, n_workers=n_workers)
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
            **observers,
        )
        if shards.n_shards > 1:
            # More shards than receptor batches is refused here, by the
            # planner, while an existing --trace file is still untouched.
            plan_shards(sim, shards.n_shards)
        volume = dataset_volume(sim.library)
    trace_path, channels = args.trace, None
    if args.trace_channels is not None:
        channels = [c.strip() for c in args.trace_channels.split(",") if c.strip()]
    postmortem = None
    with tempfile.TemporaryDirectory() as scratch:
        if args.report and trace_path is None:
            # The post-mortem reconstructs workunit lifecycles from a
            # recorded event stream; without --trace, record the lifecycle
            # channels to a file that goes away with the report.
            trace_path = os.path.join(scratch, "report.jsonl")
            channels = ("server", "agent", "fault", "health")
        profiler = Profiler() if args.profile else None
        with _tracer(trace_path, channels) as tracer:
            sim.tracer, sim.profiler = tracer, profiler
            result = sim.run()
        fault_rows = result.fault_report().rows() if faults.enabled else None
        if args.report:
            postmortem = CampaignReport(
                reconstruct_file(trace_path), health=result.health,
                fault_rows=fault_rows, volume=volume,
                source=args.trace or "live run",
            )
    if args.campaign:
        print(result.summary())
    else:
        print(render_table(["quantity", "value", "paper"], result.summary_rows(volume)))
        if result.shard_walls is not None:
            walls = ", ".join(f"{w:.2f}s" for w in result.shard_walls)
            print(f"\nshards: {args.shards} x {sim.config.shards.n_workers} "
                  f"worker(s); per-shard wall [{walls}]")
    if fault_rows is not None:
        print("\nerror budget (fault injection):")
        print(render_table(["quantity", "value"], fault_rows))
    for report in (result.health, result.ledger, postmortem):
        if report is not None:
            print()
            print(report.render())
    if args.trace is not None:
        print(f"\ntrace: {tracer.n_events:,} events -> {args.trace} "
              f"(summarize with `repro-hcmd trace {args.trace}`)")
    if profiler is not None:
        summed = f", summed over {args.shards} shard processes" if args.shards > 1 else ""
        print(f"\nwall-time profile{summed} (heaviest sections first):")
        print(profiler.render())


def _results_convert(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .store import store_to_text, text_to_store

    source, dest = Path(args.source), Path(args.dest)
    if not source.is_dir():
        written = store_to_text(source, dest)
        print(f"expanded {len(written)} segments from {source} -> {dest}")
        return
    paths = sorted(p for p in source.iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"no result files in {source}")
    text_bytes = sum(p.stat().st_size for p in paths)
    n = text_to_store(paths, dest)
    store_bytes = dest.stat().st_size
    print(f"packed {n} text files ({format_bytes(text_bytes)}) -> "
          f"{dest} ({format_bytes(store_bytes)}, "
          f"{text_bytes / store_bytes:.2f}x smaller)")


def _results_check(args: argparse.Namespace) -> int:
    from .store import check_store

    report = check_store(args.store, files_expected=args.files_expected)
    print(render_table(["check", "value"], [
        ["segments found", report.files_found],
        ["segments expected",
         report.files_expected if args.files_expected is not None else "-"],
        ["bad line counts", len(report.files_with_bad_line_count)],
        ["bad values", len(report.files_with_bad_values)],
        ["verdict", "OK" if report.ok else "REJECTED"],
    ]))
    for name in report.files_with_bad_line_count:
        print(f"  line count: {name}")
    for name, problems in report.files_with_bad_values.items():
        print(f"  values: {name}: {', '.join(problems)}")
    return 0 if report.ok else 1


def _results_merge(args: argparse.Namespace) -> None:
    from .store import merge_couple_store, read_store

    n_rows = merge_couple_store(args.store, args.out)
    merged = read_store(args.out)
    print(f"merged {n_rows:,} rows into {len(merged)} couple "
          f"segment(s) -> {args.out}")


def _results_stats(args: argparse.Namespace) -> None:
    from .store import read_store

    print(render_table(["quantity", "value"], read_store(args.store).size_rows()))


def _cmd_trace(args: argparse.Namespace) -> int | None:
    from .obs import iter_trace, summarize_trace
    from .obs.replay import filter_events

    diffing = args.path[0] == "diff"
    if len(args.path) != (3 if diffing else 1):
        print("usage: repro-hcmd trace diff A.jsonl B.jsonl" if diffing
              else "usage: repro-hcmd trace PATH (or: trace diff A B)",
              file=sys.stderr)
        return 2
    if diffing:
        from .obs.postmortem import diff_traces

        diff = diff_traces(args.path[1], args.path[2])
        print(diff.render())
        return 0 if diff.identical else 1
    selection = {
        key: getattr(args, key) for key in ("workunit", "host", "campaign")
        if getattr(args, key) is not None
    }

    def selected():
        # Stream from disk on every pass: the trace is never resident.
        return filter_events(iter_trace(args.path[0]), **selection)

    print(summarize_trace(selected()).render(selection))
    _print_timeline(selected(), args.limit, args.channel)


def _print_timeline(events, limit: int, channel: str | None = None) -> None:
    from .obs import format_timeline

    lines = format_timeline(events, limit=limit, channel=channel)
    if lines:
        print()
        print("\n".join(lines))


def _cmd_hosts(args: argparse.Namespace) -> None:
    """``hosts TRACE``: the per-host behavioral ledger from a trace."""
    from .obs import FleetReport, iter_trace
    from .obs.replay import filter_events

    fleet = FleetReport.from_trace(args.path)
    if fleet.n_hosts == 0:
        raise ValueError(
            "no host activity in the trace — record the lifecycle "
            "channels (server, agent, fault, host), e.g. `simulate "
            "--trace PATH` without a restrictive --trace-channels"
        )
    if args.host is None:
        print(fleet.render(args.format, top=args.top))
        return
    print(fleet.host(args.host).render(args.format))
    if args.format != "json":
        _print_timeline(
            filter_events(iter_trace(args.path), host=args.host), args.limit
        )


def _cmd_compare(args: argparse.Namespace) -> None:
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


def _cmd_project(args: argparse.Namespace) -> None:
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


def _cmd_capacity(args: argparse.Namespace) -> None:
    from .boinc.capacity import ServerCapacityModel

    rows = ServerCapacityModel().check_rows(args.devices, args.hours, C.SPEED_DOWN_NET)
    print(render_table(["quantity", "value"], rows))


def _cmd_report(args: argparse.Namespace) -> None:
    if args.trace is not None:
        from .obs.postmortem import CampaignReport

        fmt = "md" if args.markdown else "table"
        print(CampaignReport.from_trace(args.trace).render(fmt))
        return
    from .analysis.summary import full_report

    print(full_report(seed=args.seed))


def _cmd_partners(args: argparse.Namespace) -> None:
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


def _cmd_sites(args: argparse.Namespace) -> None:
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
    from .faults import FaultPlan
    from .multi.spec import CampaignSpecError, parse_campaign_spec
    from .multi.workloads import CrossDockingWorkload

    if not args.campaign:
        name, workload = "hcmd", CrossDockingWorkload(args.scale, args.proteins)
    elif len(args.campaign) > 1:
        raise CampaignSpecError(
            "serve/loadgen speak the single-campaign wire protocol; "
            "pass --campaign once (run several campaigns on one grid "
            "with `simulate --campaign ... --campaign ...`)"
        )
    else:
        campaign = parse_campaign_spec(args.campaign[0], roster=False)
        name, workload = campaign.name, campaign.workload
    if not isinstance(workload, CrossDockingWorkload):
        raise CampaignSpecError(
            "serve/loadgen front a cross-docking GridServer; use "
            "kind=cross-docking (screening campaigns run under "
            "`simulate --campaign`)"
        )
    sim = scaled_phase1(
        scale=workload.scale,
        n_proteins=workload.n_proteins,
        seed=args.seed,
        target_hours=workload.target_hours,
        horizon_weeks=args.horizon_weeks,
        config=CampaignConfig(
            faults=FaultPlan.from_spec(args.faults),
            release_policy=workload.release_policy,
        ),
    )
    return sim, name


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import signal

    from .service import SchedulerService, ServiceConfig

    sim_model, campaign_name = _service_campaign(args)

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
            with contextlib.suppress(NotImplementedError):  # non-unix
                loop.add_signal_handler(sig, stop.set)
        # no --duration: wait_for(timeout=None) waits for the signal alone
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(stop.wait(), timeout=args.duration)
        print("draining...", flush=True)
        await service.shutdown()

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        time_scale=args.time_scale,
    )
    # Opened once the configuration has been accepted (it truncates).
    with _tracer(args.trace) as tracer:
        service = SchedulerService(
            sim_model, config=config, tracer=tracer, campaign=campaign_name
        )
        asyncio.run(_run(service))
    print(render_table(["quantity", "value"], service.summary_rows()))
    if tracer is not None:
        print(f"trace: {tracer.n_events:,} events -> {args.trace}")


def _cmd_loadgen(args: argparse.Namespace) -> int | None:
    from .service import replay_campaign, storm

    sim_model = None if args.mode == "storm" else _service_campaign(args)[0]
    try:
        if sim_model is None:
            report = storm(
                args.url,
                n_hosts=args.hosts,
                connections=args.connections,
                requests_per_host=args.requests_per_host,
            )
        else:
            result = replay_campaign(sim_model, args.url)
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # campaign identity mismatch from the proxy
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sim_model is None:
        print(render_table(["quantity", "value"], report.rows(args.requests_per_host)))
        return 0 if report.dropped == 0 else 1
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
    return None


# -- the table -----------------------------------------------------------------

#: The subcommand table: one row per subcommand, ``(name, help, handler,
#: *flags)``.  A row whose handler is itself a tuple of rows is a
#: subcommand with subcommands of its own (``results``).
COMMANDS = (
    ("estimate", "formula (1) total-work estimate", _cmd_estimate,
     arg("--proteins", type=int, default=C.N_PROTEINS,
         help="library size (default: the phase-I 168)")),
    ("package", "slice the workload into workunits", _cmd_package,
     arg("--hours", type=float, default=10.0, help="target duration"),
     arg("--strategy", default="floor",
         choices=("floor", "round", "merge-tail", "even"))),
    ("simulate", "run a scaled volunteer campaign", _cmd_simulate,
     SCALE,
     PROTEINS,
     CAMPAIGN,
     arg("--policy", default="fair-share",
         choices=("fair-share", "strict-priority", "weighted-lottery"),
         help="multi-campaign scheduling policy (with --campaign; "
              "see docs/multicampaign.md)"),
     HORIZON,
     arg("--hosts-peak", type=int,
         help="fix the peak host count "
              "(default: auto-sized from the registered work)"),
     arg("--accounting", default="ud", choices=[m.value for m in AccountingMode]),
     arg("--trace", metavar="PATH",
         help="record a structured JSONL event trace of the campaign "
              "(replay it with `repro-hcmd trace PATH`)"),
     arg("--trace-channels",
         help="comma-separated channels to trace (e.g. 'server,agent'; "
              "default: all; the 'des' channel is the most voluminous)"),
     arg("--profile", action="store_true",
         help="aggregate wall time per DES callback and print the summary"),
     FAULTS,
     arg("--health", action="store_true",
         help="ride a streaming SLO/health monitor on the campaign "
              "(P2 latency sketches + breach/clear rules) and print the "
              "final SLO report"),
     arg("--report", action="store_true",
         help="print the span-level campaign post-mortem after the run "
              "(workunit lifecycles reconstructed from the event stream)"),
     arg("--ledger", action="store_true",
         help="ride the per-host behavioral ledger on the campaign and "
              "print the fleet report (works with --shards; "
              "see docs/observability.md)"),
     arg("--shards", type=int, default=1, metavar="K",
         help="partition the campaign into K independently-simulated "
              "shards and merge the results deterministically "
              "(see repro.boinc.sharding; default: 1 = monolithic)"),
     arg("--shard-workers", type=int, metavar="N",
         help="run shards on a pool of N worker processes "
              "(default: min(K, cpu count); the merged result is "
              "identical for every N)")),
    ("compare", "Table 2: volunteer vs dedicated grid", _cmd_compare),
    ("project", "phase-II projection (Table 3)", _cmd_project,
     arg("--proteins", type=int, default=C.PHASE2_N_PROTEINS),
     arg("--reduction", type=float, default=C.PHASE2_POINT_REDUCTION,
         help="docking-point reduction factor"),
     arg("--weeks", type=float, default=float(C.PHASE2_WEEKS))),
    ("capacity", "server transaction-rate check", _cmd_capacity,
     arg("--devices", type=float, default=float(C.WCG_DEVICES)),
     arg("--hours", type=float, default=3.3, help="workunit target")),
    ("report", "the whole reproduction, paper vs measured, one page "
     "— or, with --trace, a span-level campaign post-mortem", _cmd_report,
     arg("--trace", metavar="PATH",
         help="render a campaign post-mortem (phase throughput, latency "
              "percentiles, critical-path couples) from a recorded JSONL "
              "trace instead of the paper-vs-measured page"),
     arg("--markdown", action="store_true",
         help="render the post-mortem as GitHub-flavoured markdown "
              "(only with --trace)")),
    ("partners", "partner prediction from the cross-docking matrix", _cmd_partners,
     arg("--proteins", type=int, default=C.N_PROTEINS),
     arg("--top", type=int, default=5, help="partners per protein")),
    ("sites", "binding-site localization and focused docking", _cmd_sites,
     arg("--proteins", type=int, default=80),
     arg("--positions", type=int, default=300),
     arg("--keep", type=float, default=0.01,
         help="fraction of docking points kept (phase II uses 0.01)")),
    ("results", "columnar result store tools: convert / check / merge / "
     "stats (see docs/resultstore.md)", (
        ("convert", "pack a directory of text result files into a columnar "
         "store, or expand a store back to text (the direction follows the "
         "source's type; the round trip is byte-identical)", _results_convert,
         arg("source", help="a directory of text result files, or a store file"),
         arg("dest",
             help="the store file to write, or the directory to expand into")),
        ("check", "the Section 5.2 checks (file count, line counts, value "
         "ranges) as whole-column passes over a store", _results_check,
         arg("store", help="columnar store file"),
         arg("--files-expected", type=int,
             help="check 1: expected segment count (default: skip check 1)")),
        ("merge", "merge workunit chunk segments into one segment per couple "
         "(validates slice tiling, sorts by isep/irot/igamma)", _results_merge,
         arg("store", help="chunked store file"),
         arg("out", help="merged store file to write")),
        ("stats", "rows, couples and bytes in both result formats",
         _results_stats, arg("store", help="columnar store file")),
    )),
    ("trace", "summarize a structured JSONL campaign trace, or diff two "
     "runs: `trace diff A.jsonl B.jsonl`", _cmd_trace,
     arg("path", nargs="+",
         help="JSONL trace (from `simulate --trace`), or `diff A B` to "
              "align two traces by workunit and report divergence"),
     arg("--limit", type=int, default=20,
         help="max timeline lines (head + tail; default 20)"),
     arg("--channel",
         help="restrict the timeline to one channel (des, server, agent, "
              "fault, docking, telemetry, health)"),
     arg("--workunit", type=int, metavar="WU",
         help="follow one workunit id through its lifecycle "
              "(issue/fetch/compute/report/validate)"),
     arg("--host", type=int, help="restrict the timeline to one host id"),
     arg("--campaign", metavar="NAME",
         help="restrict the timeline to one campaign's events (matches the "
              "campaign= stamps a multi-campaign grid adds)")),
    ("hosts", "fleet forensics: fold a recorded JSONL trace into the "
     "per-host behavioral ledger and print the fleet report (see "
     "docs/observability.md)", _cmd_hosts,
     arg("path",
         help="JSONL trace (from `simulate --trace`); lifecycle channels "
              "(server, agent, fault, host) must have been recorded"),
     arg("--host", type=int,
         help="one host's full record plus its event timeline"),
     arg("--format", default="table", choices=("table", "md", "json"),
         help="fleet report format (default: terminal table)"),
     arg("--top", type=int, default=10,
         help="rows in the per-host table (default 10)"),
     arg("--limit", type=int, default=40,
         help="max timeline lines with --host (default 40)")),
    ("serve", "run the live scheduler service: the campaign's GridServer "
     "behind an HTTP/JSON RPC front-end (request-work / report-result / "
     "heartbeat; see docs/service.md)", _cmd_serve,
     SCALE,
     PROTEINS,
     CAMPAIGN,
     HORIZON,
     FAULTS,
     arg("--host", default="127.0.0.1"),
     arg("--port", type=int, default=8642,
         help="listening port (0 = let the OS pick one)"),
     arg("--max-pending", type=int, default=1024,
         help="bounded write-queue depth; a full queue refuses RPCs with "
              "503 + Retry-After instead of buffering unboundedly"),
     arg("--time-scale", type=float, default=1.0,
         help="live-mode clock: simulated seconds per wall second "
              "(replay clients carry explicit timestamps instead)"),
     arg("--duration", type=float, metavar="SECONDS",
         help="serve for this long, then drain and exit "
              "(default: until Ctrl-C)"),
     arg("--trace", metavar="PATH",
         help="record service/server events to a JSONL trace")),
    ("loadgen", "drive a running scheduler service: deterministic campaign "
     "replay or an open-loop request storm", _cmd_loadgen,
     arg("url", help="service URL, e.g. http://127.0.0.1:8642"),
     arg("--mode", default="replay", choices=("replay", "storm"),
         help="replay: run the seeded campaign as a wire client "
              "(reconciles exactly with the in-process run); "
              "storm: open-loop throughput/overload measurement"),
     SCALE,
     PROTEINS,
     CAMPAIGN,
     HORIZON,
     FAULTS,
     arg("--reconcile", action="store_true",
         help="replay mode: also run the campaign in-process and verify "
              "the wire-driven run matches (exit 1 on divergence)"),
     arg("--hosts", type=int, default=10_000,
         help="storm mode: distinct host ids to sweep"),
     arg("--connections", type=int, default=32,
         help="storm mode: concurrent keep-alive connections"),
     arg("--requests-per-host", type=int, default=1,
         help="storm mode: sweep the host-id range this many times")),
)


def _add_commands(
    parser: argparse.ArgumentParser, dest: str, table: tuple
) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, run, *flags in table:
        p = sub.add_parser(name, help=help_text)
        for names, options in flags:
            p.add_argument(*names, **options)
        if isinstance(run, tuple):
            _add_commands(p, f"{name}_command", run)
        else:
            p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hcmd",
        description="HCMD phase I on a volunteer grid — reproduction toolkit",
    )
    parser.add_argument(
        "--seed", type=int, default=C.DEFAULT_SEED, help="calibration seed"
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    The one error exit: what the library refuses — a ``ValueError`` (a
    bad spec, flag value or file) or an ``OSError`` (a missing or
    unreadable file) — is one ``error:`` line on stderr and exit 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.run(args) or 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
