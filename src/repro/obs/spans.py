"""Causal span reconstruction: workunit lifecycles out of a flat trace.

The flat JSONL event stream (docs/observability.md) answers "what
happened" but not "where did this workunit's 10 days go?".  This module
folds the stream — no new emit sites required; the server's correlation
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
(pinned by ``tests/test_obs_spans.py``).  The fold is a streaming
:class:`~repro.obs.tracer.Fold` — events arrive in trace order — so it
applies equally to a recorded file (:func:`reconstruct_file`) and to a
live campaign's ring.

Spans require the ``server`` and ``agent`` channels (``fault`` enriches
crash/corruption attribution); a trace recorded with those channels
filtered out reconstructs what it can and reports the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..units import SECONDS_PER_WEEK
from .tracer import Fold, TraceEvent, iter_trace

__all__ = [
    "Span",
    "AttemptSpan",
    "WorkunitSpanTree",
    "SpanCampaign",
    "SpanReconstructor",
    "reconstruct",
    "reconstruct_file",
]


@dataclass
class Span:
    """One timed interval of a workunit's life (a tree node leaf)."""

    kind: str  #: ``dispatch`` | ``compute`` | ``segment`` | ``report`` | ``retry``
    t_start: float
    t_end: float | None = None  #: None while the span is still open
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float | None:
        if self.t_end is None:
            return None
        return self.t_end - self.t_start


@dataclass
class AttemptSpan:
    """One issued copy of a workunit on one host (a mid-level tree node)."""

    copy: int
    host: int
    t_issue: float
    #: why this copy went out: ``fresh`` | ``replica`` | ``deadline`` |
    #: ``invalid`` | ``quorum-stall``
    reason: str = "fresh"
    t_end: float | None = None
    #: ``valid`` | ``invalid`` | ``late`` | ``timed-out`` | ``abandoned`` |
    #: ``in-flight``
    outcome: str = "in-flight"
    #: the server's deadline reclaimed this copy at this time (it may still
    #: report late afterwards)
    deadline_missed_at: float | None = None
    spans: list[Span] = field(default_factory=list)
    #: report attempts that never reached the server (lost / refused)
    report_retries: int = 0
    #: injected crashes suffered while computing this copy
    crashes: int = 0
    #: the result carried detectable corruption / sabotage ground truth
    fault_kinds: list[str] = field(default_factory=list)

    @property
    def duration_s(self) -> float | None:
        if self.t_end is None:
            return None
        return self.t_end - self.t_issue

    def open_span(self, kind: str) -> Span | None:
        for span in reversed(self.spans):
            if span.kind == kind and span.t_end is None:
                return span
        return None


@dataclass
class WorkunitSpanTree:
    """The complete causal lifecycle of one workunit."""

    wu: int
    batch: int | None = None
    receptor: int | None = None
    ligand: int | None = None
    replication: int | None = None
    t_release: float | None = None
    t_close: float | None = None
    #: ``validated`` | ``failed`` | ``open``
    outcome: str = "open"
    regime: str | None = None  #: validation regime at close
    tainted: bool = False  #: validated on sabotaged (plausible-wrong) results
    attempts: list[AttemptSpan] = field(default_factory=list)
    #: pending reissue causes not yet consumed by a new issue:
    #: ``(t, reason, triggering attempt index | None)``
    _pending: list[tuple[float, str, int | None]] = field(default_factory=list)

    @property
    def couple(self) -> tuple[int, int] | None:
        if self.receptor is None or self.ligand is None:
            return None
        return (self.receptor, self.ligand)

    @property
    def makespan_s(self) -> float | None:
        """Release-to-close duration (the workunit's wall-clock cost)."""
        if self.t_release is None or self.t_close is None:
            return None
        return self.t_close - self.t_release

    @property
    def n_results(self) -> int:
        return sum(
            1 for a in self.attempts if a.outcome in ("valid", "invalid", "late")
        )

    # -- critical path ------------------------------------------------------

    def critical_path(self) -> list[tuple[str, float, float, dict[str, Any]]]:
        """The causal chain release -> close as ``(category, t0, t1, attrs)``.

        Walks backwards from the closing attempt through the reissue hops
        that gated it; the returned intervals are contiguous and their
        durations sum exactly to :attr:`makespan_s`.  Categories:
        ``queue-wait`` (release to issue of the chain's first copy),
        ``reissue-hop`` (a prior copy's failure to the next issue — the
        deadline/invalid/quorum-stall cost), ``dispatch``, ``compute``,
        ``report`` and ``validation-wait`` (a result arrived but the
        quorum was still open).
        """
        if self.t_release is None or self.t_close is None:
            return []
        closing = self._closing_attempt()
        if closing is None:
            return [("queue-wait", self.t_release, self.t_close, {})]
        # Chase reissue causality backwards: attempt -> the reissue that
        # spawned it -> the attempt whose failure triggered that reissue.
        chain: list[AttemptSpan] = [closing]
        seen = {id(closing)}
        current = closing
        while current.reason not in ("fresh", "replica"):
            trigger = self._trigger_of(current)
            if trigger is None or id(trigger) in seen:
                break
            chain.append(trigger)
            seen.add(id(trigger))
            current = trigger
        chain.reverse()

        path: list[tuple[str, float, float, dict[str, Any]]] = []
        cursor = self.t_release
        for attempt in chain:
            if attempt.t_issue > cursor:
                category = (
                    "queue-wait"
                    if attempt.reason in ("fresh", "replica")
                    else "reissue-hop"
                )
                path.append((
                    category, cursor, attempt.t_issue,
                    {"reason": attempt.reason},
                ))
            cursor = max(cursor, attempt.t_issue)
            stop = attempt.t_end if attempt.t_end is not None else self.t_close
            stop = min(stop, self.t_close)
            for span in attempt.spans:
                if span.t_end is None or span.t_end > stop or span.t_start < cursor:
                    continue
                if span.t_start > cursor:
                    path.append(("dispatch", cursor, span.t_start, {}))
                path.append((
                    span.kind, span.t_start, span.t_end,
                    {"host": attempt.host, "copy": attempt.copy, **span.attrs},
                ))
                cursor = span.t_end
            if stop > cursor:
                label = (
                    "deadline-wait"
                    if attempt.outcome in ("timed-out", "abandoned")
                    else "compute"
                )
                path.append((label, cursor, stop,
                             {"host": attempt.host, "copy": attempt.copy}))
                cursor = stop
        if self.t_close > cursor:
            path.append(("validation-wait", cursor, self.t_close, {}))
        return path

    def time_by_category(self) -> dict[str, float]:
        """Critical-path seconds aggregated per category."""
        totals: dict[str, float] = {}
        for category, t0, t1, _ in self.critical_path():
            totals[category] = totals.get(category, 0.0) + (t1 - t0)
        return totals

    def _closing_attempt(self) -> AttemptSpan | None:
        """The attempt whose result closed (or would close) the workunit."""
        best: AttemptSpan | None = None
        for attempt in self.attempts:
            if attempt.outcome != "valid":
                continue
            if best is None or (attempt.t_end or 0.0) > (best.t_end or 0.0):
                best = attempt
        if best is not None:
            return best
        # Failed / open workunits: fall back to the last terminated attempt.
        for attempt in reversed(self.attempts):
            if attempt.t_end is not None:
                return attempt
        return self.attempts[-1] if self.attempts else None

    def _trigger_of(self, attempt: AttemptSpan) -> AttemptSpan | None:
        """The earlier attempt whose failure caused ``attempt``'s reissue."""
        candidates = [
            a for a in self.attempts
            if a is not attempt and a.t_issue < attempt.t_issue and (
                (a.deadline_missed_at is not None
                 and a.deadline_missed_at <= attempt.t_issue)
                or (a.outcome == "invalid" and a.t_end is not None
                    and a.t_end <= attempt.t_issue)
            )
        ]
        if not candidates:
            return None
        # The most recent failure before this issue is the causal trigger
        # (the server reissues FIFO, so ties resolve to the oldest copy).
        def fail_time(a: AttemptSpan) -> float:
            if a.deadline_missed_at is not None:
                return a.deadline_missed_at
            return a.t_end if a.t_end is not None else 0.0

        return max(candidates, key=lambda a: (fail_time(a), -a.copy))


class SpanReconstructor(Fold):
    """Streaming fold of trace events into per-workunit span trees.

    Feed events in trace order (:meth:`feed`, or :meth:`fold` a whole
    stream); call :meth:`finalize` once to close still-open spans at the
    trace horizon.  The fold keeps one tree per workunit plus an O(hosts)
    index of in-flight attempts — beyond one drain batch it never buffers
    raw events, so arbitrarily long traces reconstruct in bounded extra
    memory beyond the trees themselves.
    """

    def __init__(self) -> None:
        super().__init__()
        self.trees: dict[int, WorkunitSpanTree] = {}
        #: (host, wu) -> the attempt currently bound to that host
        self._active: dict[tuple[int, int], AttemptSpan] = {}
        #: events that carried a wu the fold could not attach (diagnostics)
        self.orphans = 0

    # -- event fold: one handler per event type (``HANDLERS``) ---------------

    def _tree(self, wu: int) -> WorkunitSpanTree:
        tree = self.trees.get(wu)
        if tree is None:
            tree = WorkunitSpanTree(wu=wu)
            self.trees[wu] = tree
        return tree

    def _on_release(self, t: float, f: dict) -> None:
        tree = self._tree(f["wu"])
        tree.t_release = t
        tree.batch = f.get("batch")
        tree.replication = f.get("replication")
        tree.receptor = f.get("receptor")
        tree.ligand = f.get("ligand")

    def _on_issue(self, t: float, f: dict) -> None:
        tree = self._tree(f["wu"])
        if tree.t_release is None:
            tree.t_release = t  # release event filtered out: best effort
        reason = "fresh" if not tree.attempts else "replica"
        if tree._pending:
            _, reason, _ = tree._pending.pop(0)
        attempt = AttemptSpan(
            copy=f.get("copy", len(tree.attempts)),
            host=f["host"],
            t_issue=t,
            reason=reason,
        )
        tree.attempts.append(attempt)
        self._active[(attempt.host, tree.wu)] = attempt

    def _match(self, f: dict) -> AttemptSpan | None:
        """Resolve an event to its attempt: the ``copy`` ordinal wins (it
        disambiguates a host holding a re-issued copy of a workunit it
        already computed), falling back to the (host, wu) active index."""
        copy = f.get("copy")
        if copy is not None:
            tree = self.trees.get(f.get("wu"))
            if tree is not None:
                for attempt in tree.attempts:
                    if attempt.copy == copy:
                        return attempt
        return self._active.get((f.get("host"), f.get("wu")))

    def _on_fetch(self, t: float, f: dict) -> None:
        attempt = self._match(f)
        if attempt is None:
            self.orphans += 1
            return
        attempt.spans.append(Span("dispatch", attempt.t_issue, t))
        attempt.spans.append(Span("compute", t))

    def _on_abandon(self, t: float, f: dict) -> None:
        attempt = self._active.pop((f["host"], f["wu"]), None)
        if attempt is None:
            self.orphans += 1
            return
        attempt.outcome = "abandoned"
        attempt.t_end = t
        self._close_spans(attempt, t)

    def _bound(self, f: dict) -> AttemptSpan | None:
        """The attempt bound to the event's (host, wu); an event naming a
        workunit no attempt of that host holds is an orphan."""
        wu = f.get("wu")
        if wu is None:
            return None
        attempt = self._active.get((f["host"], wu))
        if attempt is None:
            self.orphans += 1
        return attempt

    @staticmethod
    def _end_segment(attempt: AttemptSpan, t: float, attrs: dict) -> None:
        """Close the current segment of the attempt's open compute span."""
        compute = attempt.open_span("compute")
        if compute is not None:
            start = compute.children[-1].t_end if compute.children else compute.t_start
            compute.children.append(Span("segment", start, t, attrs=attrs))

    def _on_checkpoint(self, t: float, f: dict) -> None:
        attempt = self._bound(f)
        if attempt is not None:
            self._end_segment(attempt, t, {
                "killed": f.get("killed", False),
                "lost_reference_s": f.get("lost_reference_s", 0.0),
            })

    def _on_crash(self, t: float, f: dict) -> None:
        attempt = self._bound(f)
        if attempt is not None:
            attempt.crashes += 1
            self._end_segment(attempt, t, {
                "crash": True,
                "lost_reference_s": f.get("lost_reference_s", 0.0),
            })

    def _on_complete(self, t: float, f: dict) -> None:
        attempt = self._bound(f)
        if attempt is None:
            return
        compute = attempt.open_span("compute")
        if compute is not None:
            compute.t_end = t
            compute.attrs["active_s"] = f.get("active_s")
            if compute.children:
                start = compute.children[-1].t_end
                if start is not None and t > start:
                    compute.children.append(Span("segment", start, t))
        attempt.spans.append(Span(
            "report", t, attrs={"report_delay_s": f.get("report_delay_s")},
        ))

    def _on_report_lost(self, t: float, f: dict) -> None:
        attempt = self._bound(f)
        if attempt is None:
            return
        attempt.report_retries += 1
        report = attempt.open_span("report")
        if report is not None:
            report.children.append(Span("retry", t, t, attrs={"reason": "lost"}))

    def _on_result_fault(self, t: float, f: dict, kind: str) -> None:
        attempt = self._active.get((f.get("host"), f.get("wu")))
        if attempt is not None:
            attempt.fault_kinds.append(kind)

    def _on_result(self, t: float, f: dict) -> None:
        attempt = self._match(f)
        if attempt is None:
            self.orphans += 1
            return
        active = self._active.get((f["host"], f["wu"]))
        if active is attempt:
            del self._active[(f["host"], f["wu"])]
        report = attempt.open_span("report")
        if report is not None:
            report.t_end = t
        attempt.t_end = t
        if f.get("late"):
            attempt.outcome = "late"
        elif f.get("valid", True):
            attempt.outcome = "valid"
        else:
            attempt.outcome = "invalid"
        self._close_spans(attempt, t)

    def _on_reissue(self, t: float, f: dict) -> None:
        tree = self._tree(f["wu"])
        reason = f.get("reason", "deadline")
        trigger_idx: int | None = None
        if reason == "deadline":
            # The deadline reclaimed the triggering host's copy: mark it so
            # late reports and the critical path can tell reclaimed copies
            # from live ones.
            attempt = self._active.get((f.get("host"), f["wu"]))
            if attempt is not None and attempt.deadline_missed_at is None:
                attempt.deadline_missed_at = t
                if attempt.outcome == "in-flight":
                    attempt.outcome = "timed-out"
                trigger_idx = tree.attempts.index(attempt)
        tree._pending.append((t, reason, trigger_idx))

    def _on_validate(self, t: float, f: dict) -> None:
        tree = self._tree(f["wu"])
        tree.outcome = "validated"
        tree.t_close = t
        tree.regime = f.get("regime")
        tree.tainted = bool(f.get("tainted", False))

    def _on_failed(self, t: float, f: dict) -> None:
        tree = self._tree(f["wu"])
        tree.outcome = "failed"
        tree.t_close = t

    @staticmethod
    def _close_spans(attempt: AttemptSpan, t: float) -> None:
        for span in attempt.spans:
            if span.t_end is None:
                span.t_end = t

    HANDLERS = {
        "server.release": _on_release,
        "server.issue": _on_issue,
        "agent.fetch": _on_fetch,
        "agent.abandon": _on_abandon,
        "agent.checkpoint": _on_checkpoint,
        "fault.crash": _on_crash,
        "agent.complete": _on_complete,
        "fault.report_lost": _on_report_lost,
        "fault.corrupt": lambda self, t, f: self._on_result_fault(t, f, "corrupt"),
        "fault.sabotage": lambda self, t, f: self._on_result_fault(t, f, "sabotage"),
        "server.result": _on_result,
        "server.reissue": _on_reissue,
        "server.validate": _on_validate,
        "server.workunit_failed": _on_failed,
    }

    # -- finalization --------------------------------------------------------

    def finalize(self, t_end: float | None = None) -> "SpanCampaign":
        """Close still-open spans at the horizon and return the campaign."""
        self.drain()
        horizon = t_end if t_end is not None else self.t_last
        for tree in self.trees.values():
            for attempt in tree.attempts:
                if attempt.t_end is None:
                    # Timed-out copies that never reported stay terminated
                    # at their deadline; truly in-flight copies end at the
                    # trace horizon.
                    if attempt.deadline_missed_at is not None:
                        attempt.t_end = attempt.deadline_missed_at
                stop = attempt.t_end if attempt.t_end is not None else horizon
                for span in attempt.spans:
                    if span.t_end is None:
                        span.t_end = stop
        return SpanCampaign(
            trees=self.trees,
            n_events=self.n_observed,
            orphans=self.orphans,
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
        c = {
            "workunits": len(self.trees),
            "validated": 0,
            "failed": 0,
            "open": 0,
            "attempts": 0,
            "results": 0,
            "late": 0,
            "invalid": 0,
            "timed_out": 0,
            "abandoned": 0,
            "tainted": 0,
            "crashes": 0,
            "report_retries": 0,
        }
        for tree in self:
            c[tree.outcome if tree.outcome in ("validated", "failed") else "open"] += 1
            c["tainted"] += int(tree.tainted)
            for a in tree.attempts:
                c["attempts"] += 1
                c["crashes"] += a.crashes
                c["report_retries"] += a.report_retries
                if a.outcome in ("valid", "invalid", "late"):
                    c["results"] += 1
                if a.outcome == "late":
                    c["late"] += 1
                elif a.outcome == "invalid":
                    c["invalid"] += 1
                elif a.outcome == "timed-out":
                    c["timed_out"] += 1
                elif a.outcome == "abandoned":
                    c["abandoned"] += 1
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
                if a.outcome in ("valid", "invalid", "late") and a.t_end is not None:
                    result_latency.append(a.t_end - a.t_issue)
                for span in a.spans:
                    if span.kind == "compute" and span.attrs.get("active_s"):
                        active_hours.append(span.attrs["active_s"] / 3600.0)
                    if (
                        span.kind == "report"
                        and span.duration_s is not None
                        and a.outcome in ("valid", "invalid", "late")
                    ):
                        report_delay.append(span.duration_s)
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

    def tail_summary(self) -> dict[str, float]:
        """Straggler shape of the validated-workunit makespans."""
        import numpy as np

        spans = np.asarray([
            t.makespan_s for t in self
            if t.outcome == "validated" and t.makespan_s is not None
        ])
        if spans.size == 0:
            return {}
        p50, p90, p99 = (float(np.quantile(spans, q)) for q in (0.5, 0.9, 0.99))
        return {
            "n": int(spans.size),
            "p50_s": p50,
            "p90_s": p90,
            "p99_s": p99,
            "max_s": float(spans.max()),
            "tail_ratio_p99_p50": p99 / p50 if p50 > 0 else float("nan"),
        }

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
