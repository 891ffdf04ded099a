"""Causal span reconstruction: workunit lifecycles out of a flat trace.

The flat JSONL event stream (docs/observability.md) answers "what
happened" but not "where did this workunit's 10 days go?".  The lifecycle
table folds the stream — no new emit sites required; the server's correlation
fields (`copy` on issue/result, `receptor`/`ligand` on release, `host` on
validate) disambiguate the lifecycle edges — into one causal **span
tree** per workunit:

.. code-block:: text

    workunit 17 (couple 3x9, batch 0) ..... release -> validated
    ├── attempt copy=0 host=12 [fresh] .... issue -> reported valid
    │   ├── compute ....................... fetch -> complete
    │   │   ├── segment (suspended) ....... fetch -> checkpoint
    │   │   └── segment (killed, -1.2h) ... checkpoint -> complete
    │   └── report ........................ complete -> result
    └── attempt copy=1 host=40 [replica] .. issue -> timed out

plus **critical-path extraction** — the single causal chain of intervals
(queue wait, compute, deadline losses, reissue hops, report delays) whose
durations sum exactly to the workunit's makespan — and campaign-level
straggler/tail analysis over every tree.

Reconstruction is *total and lossless*: every traced workunit yields
exactly one tree, and span-derived aggregates reconcile with
:class:`~repro.core.metrics.CampaignMetrics` and the fault error budget
(pinned by ``tests/test_obs_spans.py``).  The trees are the workunit rows
of the :class:`~repro.obs.lifecycle.Lifecycle` table, read by a
:class:`SpanReconstructor` view, so they come equally from a recorded
file (:func:`reconstruct_file`) and from a live campaign's ring.

Spans require the ``server`` and ``agent`` channels (``fault`` adds
crash segments and lost reports); a trace recorded with those channels
filtered out reconstructs what it can and reports the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..units import SECONDS_PER_WEEK
from .lifecycle import AttemptSpan, Lifecycle, Span, View, WorkunitSpanTree
from .tracer import TraceEvent, iter_trace

__all__ = [
    "Span",
    "AttemptSpan",
    "WorkunitSpanTree",
    "SpanCampaign",
    "SpanReconstructor",
    "reconstruct",
    "reconstruct_file",
]


class SpanReconstructor(View):
    """The span view of a lifecycle table: one tree per workunit.

    Feed events in trace order (:meth:`fold` a whole stream); call
    :meth:`finalize` once to close still-open spans at the trace horizon.
    The span table keeps one tree per workunit and nothing per event, so
    arbitrarily long traces reconstruct in bounded extra memory beyond
    the trees themselves.
    """

    #: every type the table handles but those no span reads
    EVENTS = frozenset(Lifecycle.HANDLERS) - {
        "server.refuse", "agent.idle", "agent.retry", "host.trusted",
        "host.demoted", "host.spot_check", "host.credit",
    }
    SPANS = True

    def finalize(self, t_end: float | None = None) -> "SpanCampaign":
        """Close still-open spans at the horizon and return the campaign."""
        table = self.table
        table.drain()
        n_events, t_last = table.observed(self.EVENTS)
        horizon = t_end if t_end is not None else t_last
        for tree in table.trees.values():
            for attempt in tree.attempts:
                if attempt.t_end is None and attempt.deadline_missed_at is not None:
                    # Timed-out copies that never reported stay terminated
                    # at their deadline; truly in-flight copies end at the
                    # trace horizon.
                    attempt.t_end = attempt.deadline_missed_at
                if attempt.t_stop is None:
                    attempt.t_stop = horizon
        return SpanCampaign(
            trees=table.trees,
            n_events=n_events,
            orphans=table.orphans,
            t_end=horizon,
        )


@dataclass
class SpanCampaign:
    """Every reconstructed workunit tree of one campaign, plus analysis."""

    trees: dict[int, WorkunitSpanTree]
    n_events: int = 0
    orphans: int = 0
    t_end: float = 0.0

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[WorkunitSpanTree]:
        return iter(self.trees.values())

    # -- reconciliation (span counts vs campaign accounting) ----------------

    def counts(self) -> dict[str, int]:
        """Aggregates reconcilable against ``CampaignMetrics`` and the
        fault report: results == disclosed, validated == effective, ..."""
        c = dict.fromkeys((
            "workunits", "validated", "failed", "open", "attempts", "results",
            "late", "invalid", "timed_out", "abandoned", "tainted", "crashes",
            "report_retries",
        ), 0)
        c["workunits"] = len(self.trees)
        for tree in self:
            c[tree.outcome if tree.outcome in ("validated", "failed") else "open"] += 1
            c["tainted"] += int(tree.tainted)
            for a in tree.attempts:
                c["attempts"] += 1
                c["crashes"] += a.crashes
                c["report_retries"] += a.report_retries
                if a.outcome in ("valid", "invalid", "late"):
                    c["results"] += 1
                outcome = a.outcome.replace("-", "_")
                if outcome in ("late", "invalid", "timed_out", "abandoned"):
                    c[outcome] += 1
        return c

    # -- latency samples (exact, offline) -----------------------------------

    def latency_samples(self) -> dict[str, list[float]]:
        """Exact span-latency samples, the offline ground truth the P²
        health sketches are tested against.

        Keys: ``makespan_s`` (release -> validate), ``result_latency_s``
        (issue -> result, per reported attempt), ``active_hours``
        (device-side compute time per completed copy) and
        ``report_delay_s`` (complete -> server receipt).
        """
        makespan: list[float] = []
        result_latency: list[float] = []
        active_hours: list[float] = []
        report_delay: list[float] = []
        for tree in self:
            if tree.outcome == "validated" and tree.makespan_s is not None:
                makespan.append(tree.makespan_s)
            for a in tree.attempts:
                reported = a.outcome in ("valid", "invalid", "late")
                if reported and a.t_end is not None:
                    result_latency.append(a.t_end - a.t_issue)
                if a.t_fetch is not None and a.active_s:
                    active_hours.append(a.active_s / 3600.0)
                if reported and a.t_complete is not None:
                    report_delay.append(a.t_end - a.t_complete)
        return {
            "makespan_s": makespan,
            "result_latency_s": result_latency,
            "active_hours": active_hours,
            "report_delay_s": report_delay,
        }

    # -- straggler / tail analysis ------------------------------------------

    def stragglers(self, n: int = 10) -> list[WorkunitSpanTree]:
        """The ``n`` longest-makespan workunits (the campaign tail)."""
        closed = [t for t in self if t.makespan_s is not None]
        closed.sort(key=lambda t: t.makespan_s, reverse=True)
        return closed[:n]

    def critical_couples(self, n: int = 10) -> list[dict[str, Any]]:
        """Couples ranked by their longest workunit critical path.

        The couple whose slowest workunit closed last gates its receptor
        batch (and ultimately the campaign); rows carry the dominant
        critical-path category so the report can say *why* it was slow.
        """
        by_couple: dict[tuple[int, int], list[WorkunitSpanTree]] = {}
        for tree in self:
            if tree.couple is not None and tree.makespan_s is not None:
                by_couple.setdefault(tree.couple, []).append(tree)
        rows = []
        for couple, trees in by_couple.items():
            worst = max(trees, key=lambda t: t.makespan_s)
            categories = worst.time_by_category()
            dominant = max(categories, key=categories.get) if categories else "-"
            rows.append({
                "couple": couple,
                "n_workunits": len(trees),
                "worst_wu": worst.wu,
                "worst_makespan_s": worst.makespan_s,
                "mean_makespan_s": (
                    sum(t.makespan_s for t in trees) / len(trees)
                ),
                "attempts": sum(len(t.attempts) for t in trees),
                "dominant": dominant,
                "dominant_s": categories.get(dominant, 0.0),
            })
        rows.sort(key=lambda r: r["worst_makespan_s"], reverse=True)
        return rows[:n]

    def weekly_throughput(self) -> dict[int, dict[str, int]]:
        """Per-project-week counts: released / validated / attempts."""
        weeks: dict[int, dict[str, int]] = {}

        def bucket(t: float) -> dict[str, int]:
            w = int(t / SECONDS_PER_WEEK)
            return weeks.setdefault(
                w, {"released": 0, "validated": 0, "attempts": 0, "failed": 0}
            )

        for tree in self:
            if tree.t_release is not None:
                bucket(tree.t_release)["released"] += 1
            if tree.t_close is not None:
                bucket(tree.t_close)[
                    "validated" if tree.outcome == "validated" else "failed"
                ] += 1
            for a in tree.attempts:
                bucket(a.t_issue)["attempts"] += 1
        return weeks


def reconstruct(events: Iterable[TraceEvent]) -> SpanCampaign:
    """Fold an event iterable into a :class:`SpanCampaign`."""
    return SpanReconstructor().fold(events).finalize()


def reconstruct_file(path: Path | str) -> SpanCampaign:
    """Stream a JSONL trace file into a :class:`SpanCampaign` without
    loading the whole trace into memory."""
    return reconstruct(iter_trace(path))
