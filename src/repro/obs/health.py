"""Streaming campaign health: quantile sketches and SLO rules.

A :class:`HealthMonitor` is a view over the lifecycle table
(:mod:`repro.obs.lifecycle`): it rides the trace stream *during* a
simulation — the run's one :class:`~repro.obs.tracer.FoldSink` tee feeds
the table, with zero extra emit sites — or refolds a recorded trace into
the same report, and maintains:

- **P² quantile sketches** (:mod:`repro.obs.quantiles`) over the span
  latencies the offline reconstructor measures exactly: workunit makespan
  (release → validate), result latency (issue → result), report delay and
  device active hours.  O(1) memory per sketch; within ~2 % of the exact
  offline percentiles (pinned by ``tests/test_obs_spans.py``).
- **SLO rules** with breach/clear hysteresis, each emitting
  ``health.slo_breach`` / ``health.slo_clear`` trace events on transition:

  ========================  ==============================================
  rule                      breach condition (defaults in :class:`SLOConfig`)
  ========================  ==============================================
  ``queue-starvation``      idle agent polls in a sliding day exceed a cap
  ``deadline-storm``        deadline reissues in a sliding week exceed a cap
  ``reissue-burn``          cumulative reissues burn the campaign budget
  ``validation-backlog``    workunits stuck awaiting a quorum partner
  ========================  ==============================================

The monitor owns a private :class:`MetricsRegistry` so campaign telemetry
exports stay byte-identical with the monitor attached, and it never
touches simulation state or RNG streams — a health-monitored campaign is
bit-identical in outcome to an unmonitored one (golden-digest pinned).

:meth:`HealthMonitor.finalize` closes open breaches and renders the
final :class:`SLOReport` attached to ``CampaignResult.health``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.report import Report
from .metrics import MetricsRegistry
from .lifecycle import SAMPLES, Lifecycle, View
from .tracer import Tracer

__all__ = [
    "SLOConfig",
    "SLORule",
    "SLOReport",
    "HealthMonitor",
]

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


@dataclass(frozen=True)
class SLOConfig:
    """Thresholds and windows for the built-in SLO rules."""

    #: ``queue-starvation``: breach when this many ``agent.idle`` polls
    #: land inside the sliding window (hosts outnumber available work)
    starvation_window_s: float = SECONDS_PER_DAY
    starvation_idle_polls: int = 200
    #: ``deadline-storm``: breach when this many deadline reissues land
    #: inside the sliding window (straggler hosts shedding copies)
    deadline_window_s: float = SECONDS_PER_WEEK
    deadline_reissues: int = 25
    #: ``reissue-burn``: breach when cumulative reissues exceed this
    #: fraction of the campaign budget (``max_reissues`` x workunits;
    #: an unbounded server falls back to ``fallback_reissues_per_wu``)
    burn_fraction: float = 0.75
    fallback_reissues_per_wu: float = 2.0
    #: ``validation-backlog``: breach when this many workunits hold a
    #: valid result but are still waiting on a quorum partner
    backlog_workunits: int = 50
    #: hysteresis: a breached rule clears once its level drops to this
    #: fraction of the breach threshold
    clear_fraction: float = 0.5


class SLORule:
    """One rule's breach/clear state machine with time accounting.

    ``update(t, level)`` compares the instantaneous level against the
    thresholds: breach at ``level >= threshold``, clear at
    ``level <= threshold * clear_fraction`` (hysteresis keeps a rule from
    flapping around the boundary).  Transitions are emitted as
    ``health.slo_breach`` / ``health.slo_clear`` trace events through the
    monitor's bound tracer (if any); the rule accumulates breach count
    and breached seconds for the final report.
    """

    def __init__(self, name: str, threshold: float, clear_fraction: float) -> None:
        self.name = name
        self.threshold = threshold
        self.clear_level = threshold * clear_fraction
        self.breached = False
        self.t_breach: float | None = None
        self.n_breaches = 0
        self.breached_s = 0.0
        self.peak_level = 0.0

    def update(self, t: float, level: float, monitor: "HealthMonitor") -> None:
        self.peak_level = max(self.peak_level, level)
        if not self.breached and level >= self.threshold:
            self.breached = True
            self.t_breach = t
            self.n_breaches += 1
            if monitor.tracer is not None:
                monitor.tracer.emit(
                    "health.slo_breach", t_sim=t,
                    rule=self.name, level=level, threshold=self.threshold,
                )
        elif self.breached and level <= self.clear_level:
            self.breached = False
            duration = max(0.0, t - (self.t_breach or t))
            self.breached_s += duration
            self.t_breach = None
            if monitor.tracer is not None:
                monitor.tracer.emit(
                    "health.slo_clear", t_sim=t, rule=self.name, breached_s=duration,
                )

    def close(self, t_end: float) -> None:
        """Account a still-open breach up to the campaign horizon.

        The accounted span moves ``t_breach`` up to ``t_end``, so closing
        again (a caller-supplied monitor finalized twice) adds only the
        time since.
        """
        if self.breached and self.t_breach is not None:
            self.breached_s += max(0.0, t_end - self.t_breach)
            self.t_breach = max(self.t_breach, t_end)

    def as_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "breaches": self.n_breaches,
            "breached_s": self.breached_s,
            "breached_at_end": self.breached,
            "peak_level": self.peak_level,
        }


class HealthMonitor(View):
    """Live health state (sketches + SLO rules) over a lifecycle table:
    its own, or ``table`` when a run shares one with its ledger.

    While the monitor watches it, the table's handlers keep what the
    rules read — the idle-poll and deadline-reissue instants, the
    workunits awaiting a quorum partner, the latency samples — and the
    table sweeps the rules once per
    :attr:`~repro.obs.tracer.Fold.STRIDE` events of :attr:`EVENTS`, at
    that event's time: the simulation time of a real event, and at this
    stride well under the sliding-window resolution of every rule.
    """

    EVENTS = frozenset({
        "server.release", "server.issue", "server.result", "server.validate",
        "server.workunit_failed", "server.reissue", "agent.complete",
        "agent.idle",
    })

    #: sample lists hand over to the sketches in chunks of this many
    #: samples (and at finalize) — memory stays bounded while the
    #: per-sample fold cost drops to a list append
    SKETCH_CHUNK = 4096

    #: sketch-tracked latencies: registry metric name -> help string
    SKETCHES = {
        "health.makespan_s": "workunit makespan (release -> validate), seconds",
        "health.result_latency_s": "issue -> result latency per attempt, seconds",
        "health.report_delay_s": "compute-complete -> server receipt, seconds",
        "health.active_hours": "device-side active compute per result, hours",
    }

    #: report counters: registry name -> the event type counted
    COUNTERS = {
        "health.results": "server.result",
        "health.validated": "server.validate",
        "health.workunits_failed": "server.workunit_failed",
        "health.reissues": "server.reissue",
        "health.idle_polls": "agent.idle",
    }

    def __init__(
        self,
        config: SLOConfig | None = None,
        registry: MetricsRegistry | None = None,
        table: Lifecycle | None = None,
    ) -> None:
        self.config = config if config is not None else SLOConfig()
        #: private registry: campaign telemetry exports must stay
        #: byte-identical with the monitor attached
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer: Tracer | None = None
        self.sketches = {
            name: self.registry.quantiles(name, help=text)
            for name, text in self.SKETCHES.items()
        }
        cfg = self.config
        self.rules = {
            name: SLORule(name, threshold, cfg.clear_fraction)
            for name, threshold in (
                ("queue-starvation", cfg.starvation_idle_polls),
                ("deadline-storm", cfg.deadline_reissues),
                ("reissue-burn", cfg.burn_fraction),
                ("validation-backlog", cfg.backlog_workunits),
            )
        }
        self._reissue_budget: float | None = None
        super().__init__(table)
        self.table.bind_monitor(self)
        self._sample_sketches = tuple(
            (self.table.samples[name], self.sketches[f"health.{name}"])
            for name in SAMPLES
        )

    def bind(self, tracer: Tracer) -> None:
        """Attach the tracer used to emit ``health.*`` transition events."""
        self.tracer = tracer

    def configure_campaign(
        self, n_workunits: int, max_reissues: int | None
    ) -> None:
        """Size the reissue-burn budget from the campaign shape."""
        per_wu = (
            float(max_reissues)
            if max_reissues is not None
            else self.config.fallback_reissues_per_wu
        )
        self._reissue_budget = max(1.0, per_wu * n_workunits)

    def sweep(self, t: float) -> None:
        """Sweep all four rules against the table at time ``t`` and hand
        full sample lists to the sketches.

        Sliding windows are pruned here (not in the handlers): window
        membership is read at the sweep's time.
        """
        table, cfg = self.table, self.config
        for rule, window, width in (
            ("queue-starvation", table.idle_times, cfg.starvation_window_s),
            ("deadline-storm", table.deadline_times, cfg.deadline_window_s),
        ):
            edge = t - width
            while window and window[0] < edge:
                window.popleft()
            self.rules[rule].update(t, len(window), self)
        self.rules["validation-backlog"].update(t, len(table.pending_quorum), self)
        budget = self._reissue_budget
        if budget is not None:
            self.rules["reissue-burn"].update(
                t, table.count("server.reissue") / budget, self
            )
        self._drain_sketches(self.SKETCH_CHUNK)

    def _drain_sketches(self, chunk: int) -> None:
        """Hand every sample list holding at least ``chunk`` samples to
        its sketch (arrival order)."""
        for samples, sketch in self._sample_sketches:
            if len(samples) >= chunk:
                sketch.observe_many(samples)
                samples.clear()

    # -- finalization --------------------------------------------------------

    def finalize(self, t_end: float | None = None) -> "SLOReport":
        self.table.drain()
        self._drain_sketches(1)
        # Counters are created lazily (a zero count never materializes a
        # metric) and track the table's totals, so finalizing twice
        # cannot double-count.
        for name, etype in self.COUNTERS.items():
            count = self.table.count(etype)
            if count:
                counter = self.registry.counter(name)
                counter.inc(count - counter.value)
        n_observed, t_last = self.table.observed(self.EVENTS)
        horizon = t_end if t_end is not None else t_last
        for rule in self.rules.values():
            rule.close(horizon)
        return SLOReport(
            t_end=horizon,
            n_observed=n_observed,
            rules={name: rule.as_dict() for name, rule in self.rules.items()},
            latencies={
                name: sketch.as_dict() for name, sketch in self.sketches.items()
            },
            counters={
                name: self.registry.get(name).value
                for name in self.registry.names()
                if getattr(self.registry.get(name), "kind", None) == "counter"
            },
        )


@dataclass
class SLOReport(Report):
    """The final health verdict of one campaign (JSON-safe)."""

    t_end: float
    n_observed: int
    rules: dict[str, dict[str, Any]] = field(default_factory=dict)
    latencies: dict[str, dict[str, Any]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def breached_rules(self) -> list[str]:
        """Rules that breached at least once, sorted by time in breach."""
        hit = [(r["breached_s"], name) for name, r in self.rules.items()
               if r["breaches"] > 0]
        return [name for _, name in sorted(hit, reverse=True)]

    @property
    def healthy(self) -> bool:
        return not self.breached_rules

    def as_dict(self) -> dict[str, Any]:
        return {
            "t_end": self.t_end,
            "n_observed": self.n_observed,
            "healthy": self.healthy,
            "rules": self.rules,
            "latencies": self.latencies,
            "counters": self.counters,
        }

    def _text(self, fmt: str) -> str:
        """A compact terminal SLO summary (fenced as a code block in
        markdown: its columns are aligned for a fixed-width font)."""
        lines = [
            "SLO report: "
            + ("healthy" if self.healthy
               else "breached (" + ", ".join(self.breached_rules) + ")")
        ]
        lines.append(
            f"  {'rule':<20} {'breaches':>8} {'in-breach':>12} {'peak':>10} "
            f"{'threshold':>10}"
        )
        for name, r in sorted(self.rules.items()):
            in_breach = r["breached_s"]
            lines.append(
                f"  {name:<20} {r['breaches']:>8d} {in_breach / 3600.0:>10.1f} h "
                f"{r['peak_level']:>10.2f} {r['threshold']:>10.2f}"
            )
        lines.append("  latency percentiles (streaming P2):")
        for name, sk in sorted(self.latencies.items()):
            if not sk.get("count"):
                continue
            est = sk.get("estimates", {})
            rendered = "  ".join(
                f"{q}={est[q]:,.1f}" for q in sorted(est)
            )
            lines.append(f"    {name:<26} n={sk['count']:<7d} {rendered}")
        text = "\n".join(lines)
        return f"```\n{text}\n```" if fmt == "md" else text
