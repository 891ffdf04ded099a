"""Post-mortem surfaces: campaign reports and trace diffing.

Two CLI-facing views over reconstructed span campaigns
(:mod:`repro.obs.spans`):

* :class:`CampaignReport` — a phase-by-phase campaign post-mortem
  (throughput per paper phase, redundancy, fault error budget, latency
  percentile tables, top critical-path couples) rendered as a fixed-width
  terminal report or GitHub-flavoured markdown.  Build it from a recorded
  trace (``repro-hcmd report --trace campaign.jsonl``) or from a live
  run's events; both paths go through the same reconstruction, so a
  post-mortem read off a file and one read off the in-memory ring agree.
* :func:`diff_traces` — align two runs workunit by workunit and report
  every divergence in lifecycle shape (attempt counts, outcomes, hosts,
  makespans) plus global event-count drift.  Two identically-seeded runs
  diff clean (pinned by ``tests/test_obs_spans.py``); a nonzero diff
  localizes *where* two campaigns parted ways, not just that they did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..analysis.report import render_table
from ..grid.population import hcmd_share_schedule
from ..units import SECONDS_PER_DAY
from .spans import SpanCampaign, reconstruct_file

__all__ = ["CampaignReport", "TraceDiff", "diff_traces"]


def _fmt_days(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    return f"{seconds / SECONDS_PER_DAY:.1f} d"


@dataclass
class CampaignReport:
    """A rendered-on-demand campaign post-mortem over one span campaign."""

    campaign: SpanCampaign
    #: the live run's SLO report, when a health monitor rode the campaign
    health: Any = None
    #: optional fault error-budget rows from ``FaultReport.rows()``
    fault_rows: list | None = None
    #: optional :class:`repro.validation.DatasetVolume` — the campaign's
    #: merged result dataset, priced in both result formats
    volume: Any = None
    source: str = "trace"

    @classmethod
    def from_trace(cls, path: Path | str) -> "CampaignReport":
        """Reconstruct a report from a recorded JSONL trace (streaming)."""
        return cls(campaign=reconstruct_file(path), source=str(path))

    # -- section builders (data rows; rendering picks the table style) ------

    def phase_rows(self) -> list[list[Any]]:
        """Throughput per paper phase (control / prioritization / full power)."""
        schedule = hcmd_share_schedule()
        weekly = self.campaign.weekly_throughput()
        phases: dict[str, dict[str, int]] = {}
        order: list[str] = []
        for week in sorted(weekly):
            label = schedule.phase_of_week(float(week))
            if label not in phases:
                phases[label] = {"weeks": 0, "released": 0, "validated": 0,
                                 "attempts": 0, "failed": 0}
                order.append(label)
            agg = phases[label]
            agg["weeks"] += 1
            for key in ("released", "validated", "attempts", "failed"):
                agg[key] += weekly[week][key]
        rows = []
        for label in order:
            agg = phases[label]
            rows.append([
                label, agg["weeks"], agg["released"], agg["attempts"],
                agg["validated"],
                f"{agg['validated'] / agg['weeks']:.1f}" if agg["weeks"] else "-",
            ])
        return rows

    def summary_rows(self) -> list[list[Any]]:
        c = self.campaign.counts()
        redundancy = c["results"] / c["validated"] if c["validated"] else float("nan")
        rows = [
            ["workunits traced", c["workunits"]],
            ["validated / failed / open",
             f"{c['validated']} / {c['failed']} / {c['open']}"],
            ["attempts issued", c["attempts"]],
            ["results reported", c["results"]],
            ["redundancy (results / validated)", f"{redundancy:.3f}"],
            ["late / invalid / timed-out / abandoned",
             f"{c['late']} / {c['invalid']} / {c['timed_out']} / "
             f"{c['abandoned']}"],
            ["trace span", _fmt_days(self.campaign.t_end)],
        ]
        return rows

    def error_budget_rows(self) -> list[list[Any]]:
        """Fault error budget: the live ``FaultReport`` rows when given,
        else the trace-derived counts."""
        if self.fault_rows is not None:
            return [list(row) for row in self.fault_rows]
        c = self.campaign.counts()
        return [
            ["injected crashes (traced)", c["crashes"]],
            ["lost result reports (traced)", c["report_retries"]],
            ["invalid results rejected", c["invalid"]],
            ["workunits terminally failed", c["failed"]],
            ["tainted validations", c["tainted"]],
        ]

    def dataset_rows(self) -> list[list[Any]]:
        """Merged result-dataset size, text vs columnar (when a
        :class:`~repro.validation.DatasetVolume` was attached)."""
        v = self.volume
        if v is None:
            return []
        from ..units import format_bytes

        return [
            ["merged result files", f"{v.n_files:,}"],
            ["result rows", f"{v.total_lines:,}"],
            ["text format",
             f"{format_bytes(v.raw_bytes)} "
             f"({format_bytes(v.compressed_bytes)} compressed)"],
            ["columnar store", format_bytes(v.columnar_bytes)],
            ["text / columnar ratio", f"{v.columnar_ratio:.2f}x"],
        ]

    def latency_rows(self) -> list[list[Any]]:
        """Exact offline percentiles of the reconstructed span latencies."""
        rows = []
        for name, samples in sorted(self.campaign.latency_samples().items()):
            if not samples:
                continue
            arr = np.asarray(samples)
            unit = 1.0 if name == "active_hours" else 3600.0
            rows.append([
                name, len(samples),
                *(f"{float(np.quantile(arr, q)) / unit:,.1f}"
                  for q in (0.5, 0.9, 0.99)),
                f"{float(arr.max()) / unit:,.1f}",
            ])
        return rows

    def straggler_rows(self, n: int = 10) -> list[list[Any]]:
        """Top-``n`` critical-path couples: who gated the campaign and why."""
        rows = []
        for r in self.campaign.critical_couples(n):
            receptor, ligand = r["couple"]
            rows.append([
                f"{receptor}x{ligand}", r["n_workunits"], r["attempts"],
                _fmt_days(r["worst_makespan_s"]), _fmt_days(r["mean_makespan_s"]),
                f"{r['dominant']} ({_fmt_days(r['dominant_s'])})",
            ])
        return rows

    # -- rendering -----------------------------------------------------------

    def render(self, fmt: str = "table") -> str:
        """The full post-mortem, terminal fixed-width (``"table"``) or
        markdown (``"md"``); a section without rows is left out."""
        quantity = ["quantity", "value"]
        tables = [
            ("Summary", quantity, self.summary_rows(), ""),
            ("Throughput by paper phase",
             ["phase", "weeks", "released", "attempts", "validated",
              "validated/week"], self.phase_rows(), ""),
            ("Span latencies (exact offline percentiles)",
             ["span", "n", "p50", "p90", "p99", "max"], self.latency_rows(),
             "\n(makespan/latency/report columns in hours; "
             "active_hours in hours of device compute)"),
            ("Result dataset (both formats)", quantity, self.dataset_rows(), ""),
            ("Fault error budget", quantity, self.error_budget_rows(), ""),
            ("Top critical-path couples",
             ["couple", "wus", "attempts", "worst makespan", "mean makespan",
              "dominant critical-path cost"], self.straggler_rows(), ""),
        ]
        sections = [
            (title, render_table(headers, rows, fmt) + note)
            for title, headers, rows, note in tables if rows
        ]
        if self.health is not None:
            sections.append(("Live SLO report", self.health.render(fmt)))
        if fmt == "md":
            head = f"# Campaign post-mortem\nsource: {self.source}"
            return "\n\n".join(
                [head] + [f"## {title}\n{body}" for title, body in sections]
            )
        head = f"CAMPAIGN POST-MORTEM\nsource: {self.source}"
        return "\n\n".join([head] + [
            f"{title}\n{'-' * len(title)}\n{body}" for title, body in sections
        ])


# -- trace diff -------------------------------------------------------------


@dataclass
class TraceDiff:
    """Workunit-aligned divergence between two traces."""

    label_a: str
    label_b: str
    #: per-workunit divergences: (wu, field, value_a, value_b)
    divergences: list[tuple[int, str, Any, Any]] = field(default_factory=list)
    #: event-type count drift: etype -> (count_a, count_b)
    count_drift: dict[str, tuple[int, int]] = field(default_factory=dict)
    only_in_a: list[int] = field(default_factory=list)
    only_in_b: list[int] = field(default_factory=list)
    n_workunits: int = 0

    @property
    def identical(self) -> bool:
        return not (
            self.divergences or self.count_drift
            or self.only_in_a or self.only_in_b
        )

    def render(self) -> str:
        if self.identical:
            return (
                f"traces agree: {self.n_workunits} workunits aligned, "
                "0 divergences"
            )
        lines = [
            f"traces diverge ({self.label_a} vs {self.label_b}): "
            f"{len(self.divergences)} workunit-level, "
            f"{len(self.count_drift)} event-count, "
            f"{len(self.only_in_a) + len(self.only_in_b)} membership"
        ]
        if self.only_in_a:
            lines.append(f"  workunits only in A: {self.only_in_a[:20]}")
        if self.only_in_b:
            lines.append(f"  workunits only in B: {self.only_in_b[:20]}")
        if self.count_drift:
            rows = [
                [etype, a, b, b - a]
                for etype, (a, b) in sorted(self.count_drift.items())
            ]
            lines.append(render_table(["event type", "A", "B", "delta"], rows))
        if self.divergences:
            rows = [
                [wu, fieldname, str(va), str(vb)]
                for wu, fieldname, va, vb in self.divergences[:50]
            ]
            lines.append(render_table(["wu", "field", "A", "B"], rows))
            if len(self.divergences) > 50:
                lines.append(
                    f"  ... {len(self.divergences) - 50} more divergences"
                )
        return "\n".join(lines)


def _wu_signature(tree) -> dict[str, Any]:
    """The comparable lifecycle shape of one workunit tree."""
    return {
        "outcome": tree.outcome,
        "attempts": len(tree.attempts),
        "results": tree.n_results,
        "hosts": tuple(a.host for a in tree.attempts),
        "outcomes": tuple(a.outcome for a in tree.attempts),
        "t_release": tree.t_release,
        "makespan_s": tree.makespan_s,
    }


def diff_traces(
    a: SpanCampaign | Path | str, b: SpanCampaign | Path | str,
    label_a: str = "A", label_b: str = "B",
) -> TraceDiff:
    """Align two runs by workunit id and report every divergence.

    Accepts reconstructed campaigns or trace file paths.  Two runs of the
    same seed and configuration must diff clean; any nonzero diff names
    the first workunits whose lifecycles parted ways.
    """
    if not isinstance(a, SpanCampaign):
        label_a = str(a)
        a = reconstruct_file(a)
    if not isinstance(b, SpanCampaign):
        label_b = str(b)
        b = reconstruct_file(b)
    diff = TraceDiff(label_a=label_a, label_b=label_b)
    keys_a, keys_b = set(a.trees), set(b.trees)
    diff.only_in_a = sorted(keys_a - keys_b)
    diff.only_in_b = sorted(keys_b - keys_a)
    shared = sorted(keys_a & keys_b)
    diff.n_workunits = len(shared)
    for wu in shared:
        sig_a = _wu_signature(a.trees[wu])
        sig_b = _wu_signature(b.trees[wu])
        for key in sig_a:
            if sig_a[key] != sig_b[key]:
                diff.divergences.append((wu, key, sig_a[key], sig_b[key]))
    # Global drift: per-event-type counts over the lifecycle channels the
    # reconstruction consumed (cheap, already folded into the trees).
    counts_a, counts_b = a.counts(), b.counts()
    for key in counts_a:
        if counts_a[key] != counts_b[key]:
            diff.count_drift[key] = (counts_a[key], counts_b[key])
    return diff
