"""Streaming campaign health: quantile sketches and SLO rules.

A :class:`HealthMonitor` is a :class:`~repro.obs.tracer.Fold`: it rides
the trace stream *during* a simulation — fed by a
:class:`~repro.obs.tracer.FoldSink` wrapped around the tracer's sink, so
it sees every ``server.*`` / ``agent.*`` event with zero extra emit
sites — or refolds a recorded trace into the same report, and maintains:

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

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..analysis.report import Report
from .metrics import MetricsRegistry
from .tracer import Fold, Tracer

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


class HealthMonitor(Fold):
    """Fold trace events into live health state (sketches + SLO rules).

    Handlers mutate correlation state only; the SLO rules are swept once
    per drained batch, at its last timestamp, so breach/clear transitions
    carry the drain-point ``t_sim`` — still the simulation time of a real
    event, and at the fold's stride well under the sliding-window
    resolution of every rule.
    """

    #: sketch sample lists hand over to the sketches in chunks of this
    #: many samples (and at finalize) — memory stays bounded while the
    #: per-sample fold cost drops to a list append
    SKETCH_CHUNK = 4096

    #: sketch-tracked latencies: registry metric name -> help string
    SKETCHES = {
        "health.makespan_s": "workunit makespan (release -> validate), seconds",
        "health.result_latency_s": "issue -> result latency per attempt, seconds",
        "health.report_delay_s": "compute-complete -> server receipt, seconds",
        "health.active_hours": "device-side active compute per result, hours",
    }

    def __init__(
        self,
        config: SLOConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__()
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
            "queue-starvation": SLORule(
                "queue-starvation", cfg.starvation_idle_polls, cfg.clear_fraction
            ),
            "deadline-storm": SLORule(
                "deadline-storm", cfg.deadline_reissues, cfg.clear_fraction
            ),
            "reissue-burn": SLORule(
                "reissue-burn", cfg.burn_fraction, cfg.clear_fraction
            ),
            "validation-backlog": SLORule(
                "validation-backlog", cfg.backlog_workunits, cfg.clear_fraction
            ),
        }
        # correlation state (bounded by in-flight work, not trace length).
        # ``_t_issue`` keys pack ``(wu, copy)`` into one int — copy
        # ordinals are tiny (reissue budgets are single digits), so
        # ``wu * 2**20 + copy`` is collision-free and hashes ~2x faster
        # than a tuple on the fold hot path.
        self._t_release: dict[int, float] = {}
        self._t_issue: dict[int, float] = {}
        self._pending_quorum: set[int] = set()
        self._idle_window: deque[float] = deque()
        self._deadline_window: deque[float] = deque()
        self._reissues_total = 0
        self._reissue_budget: float | None = None
        # -- hot-path caches -------------------------------------------------
        # The fold runs once per lifecycle event; counters are plain ints
        # synced into the registry at finalize() (lazily, like the live
        # registry counters: a zero count never materializes a metric)
        # and sketches and rules are bound to locals-friendly attributes.
        self._n_results = 0
        self._n_validated = 0
        self._n_wu_failed = 0
        self._n_reissues = 0
        self._n_idle = 0
        # sketch samples buffer in plain lists (a 60 ns append on the
        # fold path) and feed the sketches chunk-wise through
        # ``QuantileSketch.observe_many`` — state-identical to per-event
        # feeding, several times cheaper (see that method's docstring)
        self._lat_samples: list[float] = []
        self._mk_samples: list[float] = []
        self._rep_samples: list[float] = []
        self._act_samples: list[float] = []
        self._sample_sketches = (
            (self._lat_samples, self.sketches["health.result_latency_s"]),
            (self._mk_samples, self.sketches["health.makespan_s"]),
            (self._rep_samples, self.sketches["health.report_delay_s"]),
            (self._act_samples, self.sketches["health.active_hours"]),
        )
        self._rule_starvation = self.rules["queue-starvation"]
        self._rule_deadline = self.rules["deadline-storm"]
        self._rule_burn = self.rules["reissue-burn"]
        self._rule_backlog = self.rules["validation-backlog"]

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

    # -- event fold: one handler per lifecycle event type (``HANDLERS``) ----

    def _on_release(self, t: float, f: dict) -> None:
        self._t_release[f["wu"]] = t

    def _on_issue(self, t: float, f: dict) -> None:
        self._t_issue[f["wu"] * 1_048_576 + f.get("copy", 0)] = t

    def _on_result(self, t: float, f: dict) -> None:
        issued = self._t_issue.pop(f["wu"] * 1_048_576 + f.get("copy", 0), None)
        if issued is not None:
            self._lat_samples.append(t - issued)
        self._n_results += 1
        if f.get("valid") and not f.get("late"):
            self._pending_quorum.add(f["wu"])

    def _on_validate(self, t: float, f: dict) -> None:
        released = self._t_release.pop(f["wu"], None)
        if released is not None:
            self._mk_samples.append(t - released)
        self._n_validated += 1
        self._pending_quorum.discard(f["wu"])

    def _on_workunit_failed(self, t: float, f: dict) -> None:
        self._n_wu_failed += 1
        self._t_release.pop(f["wu"], None)
        self._pending_quorum.discard(f["wu"])

    def _on_reissue(self, t: float, f: dict) -> None:
        self._reissues_total += 1
        self._n_reissues += 1
        if f.get("reason") == "deadline":
            self._deadline_window.append(t)

    def _on_complete(self, t: float, f: dict) -> None:
        delay = f.get("report_delay_s")
        if delay is not None:
            self._rep_samples.append(delay)
        active = f.get("active_s")
        if active is not None:
            self._act_samples.append(active / 3600.0)

    def _on_idle(self, t: float, f: dict) -> None:
        self._n_idle += 1
        self._idle_window.append(t)

    HANDLERS = {
        "server.release": _on_release,
        "server.issue": _on_issue,
        "server.result": _on_result,
        "server.validate": _on_validate,
        "server.workunit_failed": _on_workunit_failed,
        "server.reissue": _on_reissue,
        "agent.complete": _on_complete,
        "agent.idle": _on_idle,
    }

    def _drained(self, t_last: float) -> None:
        """Sweep the rules and hand full sample lists to the sketches."""
        self._evaluate_rules(t_last)
        self._drain_sketches(self.SKETCH_CHUNK)

    def _evaluate_rules(self, t: float) -> None:
        """Sweep all four rules against the current state at time ``t``.

        Sliding windows are pruned here (not in the handlers): window
        membership is read at the sweep's time, once per drained batch.
        """
        window = self._idle_window
        edge = t - self.config.starvation_window_s
        while window and window[0] < edge:
            window.popleft()
        self._rule_starvation.update(t, len(window), self)
        window = self._deadline_window
        edge = t - self.config.deadline_window_s
        while window and window[0] < edge:
            window.popleft()
        self._rule_deadline.update(t, len(window), self)
        self._rule_backlog.update(t, len(self._pending_quorum), self)
        budget = self._reissue_budget
        if budget is not None:
            self._rule_burn.update(t, self._reissues_total / budget, self)

    def _drain_sketches(self, chunk: int) -> None:
        """Hand every sample list holding at least ``chunk`` samples to
        its sketch (arrival order)."""
        for samples, sketch in self._sample_sketches:
            if len(samples) >= chunk:
                sketch.observe_many(samples)
                samples.clear()

    # -- finalization --------------------------------------------------------

    def _sync_counters(self) -> None:
        """Fold the hot-path int accumulators into the registry.

        Counters are created lazily (a zero count never materializes a
        metric, matching the per-event ``registry.counter(...).inc()``
        behaviour this replaces); the accumulators reset so a second
        finalize cannot double-count.
        """
        for name, count in (
            ("health.results", self._n_results),
            ("health.validated", self._n_validated),
            ("health.workunits_failed", self._n_wu_failed),
            ("health.reissues", self._n_reissues),
            ("health.idle_polls", self._n_idle),
        ):
            if count:
                self.registry.counter(name).inc(count)
        self._n_results = self._n_validated = self._n_wu_failed = 0
        self._n_reissues = self._n_idle = 0

    def finalize(self, t_end: float | None = None) -> "SLOReport":
        self.drain()
        self._drain_sketches(1)
        self._sync_counters()
        horizon = t_end if t_end is not None else self.t_last
        for rule in self.rules.values():
            rule.close(horizon)
        return SLOReport(
            t_end=horizon,
            n_observed=self.n_observed,
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
