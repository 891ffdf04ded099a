"""The benchmark's contract: workloads, sizes and metric names.

``BENCHMARK.json`` at the repo root is the driver-facing copy of the
tables below; ``test_bench_e2e.py`` asserts the two agree.  Standard
library only: the harness imports this module before it knows whether
the program is even present.
"""

from __future__ import annotations

DEFAULT_SEED = 7

#: name -> why it exists, its unit of work, the workload-specific name
#: later issues cite for ``units_per_s``, and the per-tier input sizes.
#: Full sizes put one timed pass at 0.5-1 s (wire_replay: ~2 s, plus a
#: fresh served process per pass), so a run of a few seconds holds
#: several passes and reports their median; smoke sizes are ~10x smaller
#: and only prove the plumbing.
WORKLOADS: dict[str, dict] = {
    "sim_phase1": {
        "why": "planner's job: package and simulate a campaign, no observers "
               "(core, grid.des, boinc do the work; obs, service, store, maxdo idle); "
               "unit: validated workunits",
        "unit": "workunits",
        "alias": "workunits_per_s",
        "full": {"scale": 50.0, "n_proteins": 48},
        "smoke": {"scale": 160.0, "n_proteins": 24},
    },
    "sim_observed": {
        "why": "same engine with JSONL trace + health + ledger on, so obs does most "
               "of the work here and none in sim_phase1; unit: validated workunits",
        "unit": "workunits",
        "alias": "workunits_per_s",
        "full": {"scale": 100.0, "n_proteins": 32},
        "smoke": {"scale": 400.0, "n_proteins": 16},
    },
    "sim_multi": {
        "why": "three-phase prioritisation on the multi-campaign router path that "
               "sim_phase1 bypasses (multi.engine, multi.policies); unit: validated workunits",
        "unit": "workunits",
        "alias": "workunits_per_s",
        "full": {"scale": 5.0, "n_proteins": 10, "n_ligands": 10000,
                 "n_hosts_peak": 60},
        "smoke": {"scale": 12.0, "n_proteins": 8, "n_ligands": 2500,
                  "n_hosts_peak": 16},
    },
    "wire_replay": {
        "why": "operator's job: replay a campaign over HTTP against a served "
               "repro-hcmd, closed loop, one connection (service.* and sockets do "
               "~87% of it, the DES engine the rest); unit: RPCs",
        "unit": "rpcs",
        "alias": "rpc_per_s",
        "full": {"scale": 80.0, "n_proteins": 24, "horizon_weeks": 40.0},
        "smoke": {"scale": 300.0, "n_proteins": 12, "horizon_weeks": 40.0},
    },
    "results_ingest": {
        "why": "scientist's write path: MAXDo text chunks -> parse -> pack -> "
               "CRC-framed columnar store (page-cache warm: CPU, not disk); unit: rows",
        "unit": "rows",
        "alias": "rows_per_s",
        "full": {"couples": 6, "chunks": 3, "positions": 40},
        "smoke": {"couples": 3, "chunks": 2, "positions": 12},
    },
    "results_reduce": {
        "why": "scientist's read path over the same store layer: read -> check -> "
               "merge -> energy matrix, so a format change that trades reads for "
               "writes shows on one and not the other; unit: rows",
        "unit": "rows",
        "alias": "rows_per_s",
        "full": {"couples": 18, "chunks": 6, "positions": 40},
        "smoke": {"couples": 6, "chunks": 3, "positions": 20},
    },
    "docking_workunit": {
        "why": "volunteer's job: execute MAXDo workunits drawn from a seeded panel "
               "of couples (maxdo.energy/minimize/_fused do >= 95%; nothing else "
               "touches them); unit: poses",
        "unit": "poses",
        "alias": "poses_per_s",
        "full": {"beads": 32, "nsep": 1, "panel": 6},
        "smoke": {"beads": 12, "nsep": 1, "panel": 2},
    },
}

#: orientation rows per starting position (21 rotation couples x 10 gammas)
ROWS_PER_POSITION = 210

#: (name, unit, better, bound): gated, measured untraced, reported by
#: every workload.  ``units_per_s`` counts the workload's own unit of work
#: (see ``alias`` above); operations failed ride in the result line's
#: ``failed``/``attempted`` (the issue's ``failed_frac``), not here,
#: because a gated metric may never read 0.  The time bounds are the
#: widest the contract allows: the reference box (2 shared vCPUs) has
#: busy phases, minutes long, in which every timing reads 10-30% slow
#: (see README, "Steadiness").
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

_SERVICE_OPS = ("request_work", "report_result")

#: (name, unit, better): ungated, from the traced run.  Every workload
#: reports every name; a layer that is idle on a workload reads 0 there,
#: which is the prediction the workload table makes.
PER_LAYER: list[tuple[str, str, str]] = [
    # the issue's workload-specific names for units_per_s / RPC latency,
    # taken from the untraced passes of the traced run
    ("workunits_per_s", "1/s", "higher"),
    ("rpc_per_s", "1/s", "higher"),
    ("rpc_p50_us", "us", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("poses_per_s", "1/s", "higher"),
    # facade / import
    ("import.repro_s", "s", "lower"),
    ("import.modules_loaded", "count", "lower"),
    ("proteins.library_s", "s", "lower"),
    ("maxdo.cost_model_s", "s", "lower"),
    # core
    ("core.packaging_s", "s", "lower"),
    ("core.workunits", "count", "lower"),
    # grid
    ("grid.host_setup_s", "s", "lower"),
    ("grid.des_run_s", "s", "lower"),
    ("grid.events_fired", "count", "lower"),
    ("grid.des_self_s", "s", "lower"),
    ("grid.des_ns_per_event", "ns", "lower"),
    # boinc
    ("boinc.agent_cb_s", "s", "lower"),
    ("boinc.server_s", "s", "lower"),
    ("boinc.server_calls", "count", "lower"),
    ("boinc.issued", "count", "lower"),
    ("boinc.disclosed", "count", "lower"),
    ("boinc.effective", "count", "higher"),
    ("boinc.invalid", "count", "lower"),
    ("boinc.late", "count", "lower"),
    ("boinc.useful_frac", "ratio", "higher"),
    ("boinc.redundancy", "ratio", "lower"),
    # multi
    ("multi.build_s", "s", "lower"),
    ("multi.run_s", "s", "lower"),
    ("multi.campaigns", "count", "higher"),
    ("multi.share_err", "ratio", "lower"),
    ("multi.us_per_workunit", "us", "lower"),
    # obs
    ("obs.bare_wall_s", "s", "lower"),
    ("obs.tracer_s", "s", "lower"),
    ("obs.sinks_s", "s", "lower"),
    ("obs.events_emitted", "count", "lower"),
    ("obs.us_per_event", "us", "lower"),
    ("obs.trace_mb", "MB", "lower"),
    ("obs.overhead_frac", "ratio", "lower"),
    # service
    ("service.requests_total", "count", "lower"),
    *[(f"service.client_rtt_us_{q}.{op}", "us", "lower")
      for op in _SERVICE_OPS for q in ("p50", "p99")],
    *[(f"service.handle_us_{q}.{op}", "us", "lower")
      for op in _SERVICE_OPS for q in ("p50", "p99")],
    ("service.wire_overhead_us", "us", "lower"),
    ("service.codec_us", "us", "lower"),
    ("service.max_queue_depth", "count", "lower"),
    ("service.refused_total", "count", "lower"),
    ("service.inproc_wall_s", "s", "lower"),
    ("service.wire_tax_x", "ratio", "lower"),
    # store
    ("store.parse_s", "s", "lower"),
    ("store.pack_s", "s", "lower"),
    ("store.write_s", "s", "lower"),
    ("store.bytes_per_row", "B", "lower"),
    ("store.text_mb", "MB", "lower"),
    ("store.columnar_mb", "MB", "lower"),
    ("store.read_s", "s", "lower"),
    ("store.check_s", "s", "lower"),
    ("store.merge_s", "s", "lower"),
    ("store.matrix_s", "s", "lower"),
    ("store.flagged_chunks", "count", "lower"),
    ("store.export_text_s", "s", "lower"),
    # maxdo
    ("maxdo.energy_only_s", "s", "lower"),
    ("maxdo.minimize_s", "s", "lower"),
    ("maxdo.run_overhead_s", "s", "lower"),
    ("maxdo.poses", "count", "higher"),
    ("maxdo.fused_kernels", "count", "higher"),
    # harness
    ("bench.generate_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("budget.covered_frac", "ratio", "higher"),
    ("budget.other_s", "s", "lower"),
]

#: counts that must repeat exactly between two runs of the same code and
#: seed; a change that claims speed only must leave them identical
EXACT_COUNTS = (
    "core.workunits", "grid.events_fired", "boinc.server_calls",
    "boinc.issued", "boinc.disclosed", "boinc.effective", "boinc.invalid",
    "boinc.late", "obs.events_emitted", "service.requests_total",
    "store.flagged_chunks", "import.modules_loaded", "maxdo.poses",
)
