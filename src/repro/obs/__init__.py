"""Campaign observability: event tracing, metrics, profiling hooks.

The paper's evaluation is read off operational telemetry — consumed-CPU
series, daily result arrivals, redundancy, per-workunit run times — and
this subpackage is the shared substrate every layer records it through:

* :mod:`repro.obs.tracer` — structured, typed trace events with both
  simulation time and wall time, streamed to a ring buffer or a JSONL
  file, emitted by the DES kernel, the grid server, the volunteer agents
  and the docking engine (~zero cost when disabled); and the observer
  protocol, :class:`~repro.obs.tracer.Fold` — a handler table fed live
  through the ``FoldSink`` tee or offline by ``fold(events)`` over a
  recorded trace;
* :mod:`repro.obs.lifecycle` — the one fold: the lifecycle table of
  workunit, attempt and host rows.  The health monitor, the host ledger
  and the span reconstructor below are views over it, so a trace refolds
  into exactly their live reports;
* :mod:`repro.obs.metrics` — a registry of counters, gauges, histograms
  and daily series; campaign telemetry is built on it, so every recorded
  quantity is uniformly exportable;
* :mod:`repro.obs.profile` — opt-in per-subsystem wall-time aggregation;
* :mod:`repro.obs.replay` — trace summaries and timelines behind the
  ``repro-hcmd trace`` subcommand;
* :mod:`repro.obs.events` — the versioned event taxonomy, enforced at
  emit time and kept consistent with docs/observability.md by a test;
* :mod:`repro.obs.spans` — causal span reconstruction: the flat trace
  folded into one lifecycle tree per workunit, with critical-path
  extraction and straggler analysis;
* :mod:`repro.obs.health` — a streaming health monitor (P² latency
  sketches + SLO rules with breach/clear hysteresis) riding the trace
  stream during a simulation;
* :mod:`repro.obs.quantiles` — the P² (Jain–Chlamtac) streaming
  quantile estimator behind the health sketches;
* :mod:`repro.obs.ledger` — a per-host behavioral ledger folding the
  same stream into availability, validity, trust-trajectory and credit
  records per volunteer, rendered as a fleet post-mortem
  (``repro-hcmd hosts``);
* :mod:`repro.obs.postmortem` — campaign report rendering and
  ``trace diff`` run alignment behind the CLI.

Enable tracing on a campaign::

    from repro.boinc import scaled_phase1
    from repro.obs import Tracer

    tracer = Tracer.to_jsonl("campaign.jsonl")
    result = scaled_phase1(scale=400, n_proteins=8, tracer=tracer).run()
    tracer.close()          # then: repro-hcmd trace campaign.jsonl

See docs/observability.md for the taxonomy, the trace schema and worked
examples.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".events": [
        "CHANNELS", "EVENT_TYPES", "TRACE_SCHEMA_VERSION", "channel_of",
    ],
    ".health": ["HealthMonitor", "SLOConfig", "SLOReport"],
    ".ledger": ["FleetReport", "HostLedger"],
    ".lifecycle": ["HostRecord", "Lifecycle"],
    ".metrics": [
        "Counter", "DailySeries", "Gauge", "Histogram",
        "MetricsRegistry", "QuantileSketch",
    ],
    ".profile": ["Profiler"],
    ".quantiles": ["P2Quantile"],
    ".replay": ["TraceSummary", "format_timeline", "summarize_trace"],
    ".spans": [
        "SpanCampaign", "SpanReconstructor", "reconstruct",
        "reconstruct_file",
    ],
    ".tracer": [
        "Fold", "FoldSink", "JsonlSink", "NullSink", "RingSink", "TraceEvent",
        "Tracer", "global_tracer", "iter_trace", "read_trace",
        "set_global_tracer", "tracing",
    ],
})
