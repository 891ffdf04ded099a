"""The lifecycle table: one fold over the event stream, three views.

A workunit's life — release, issue, fetch, checkpoints, complete, report,
result, reissue, validate — is one stream of trace events.  The
:class:`Lifecycle` fold applies it once, with one handler per event type,
into rows:

* a :class:`HostRecord` per volunteer (counters, seen span, trust
  trajectory, turnaround sketch) and per-campaign result tallies, always;
* a :class:`WorkunitSpanTree` per workunit (release and close instants,
  outcome, regime, the pending reissue causes) holding an
  :class:`AttemptSpan` per issued copy (host, issue / fetch / complete /
  result instants, checkpoint segments, outcome, lost report attempts),
  in a span table only (``Lifecycle(spans=True)``);
* the sliding windows, quorum backlog and latency samples the health
  rules read, while a monitor watches the table.

Each observer is a :class:`View` over a table: the host ledger
(:mod:`repro.obs.ledger`) reads the host rows, the span reconstructor
(:mod:`repro.obs.spans`) the workunit rows and the health monitor
(:mod:`repro.obs.health`) the windows and samples.  A run that builds
both a monitor and a ledger of its own tees the stream into one table
through one :class:`~repro.obs.tracer.FoldSink`; a recorded trace refolds
into the same rows, so every view's report is identical live and
offline.  A sharded run's views fold the merged stream of its shards in
the parent; workunit ids are campaign-global and shard host ids come
from disjoint blocks, so the rows of two shards or two campaigns never
collide.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .quantiles import QuantileSketch
from .tracer import Fold, TraceEvent

__all__ = [
    "Span",
    "AttemptSpan",
    "WorkunitSpanTree",
    "HostRecord",
    "Lifecycle",
    "View",
]

#: packs ``(wu, copy)`` into one int key (``wu * 2**20 + copy``): copy
#: ordinals are tiny (reissue budgets are single digits), and an int key
#: hashes ~2x faster than a tuple on the fold's hot path
_COPY = 1_048_576

#: the latency samples the table collects for the health monitor's
#: sketches, in arrival order
SAMPLES = ("result_latency_s", "makespan_s", "report_delay_s", "active_hours")


@dataclass
class Span:
    """One timed interval of a workunit's life (a tree node leaf)."""

    kind: str  #: ``dispatch`` | ``compute`` | ``segment`` | ``report`` | ``retry``
    t_start: float
    t_end: float | None = None  #: None while the span is still open
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)


@dataclass(slots=True)
class AttemptSpan:
    """One issued copy of a workunit on one host: a row of the attempt
    table, and a mid-level node of its workunit's span tree."""

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
    #: report attempts that never reached the server (lost / refused)
    report_retries: int = 0
    #: injected crashes suffered while computing this copy
    crashes: int = 0
    t_fetch: float | None = None
    #: compute segment ends (checkpoint or crash) with their attributes
    segments: tuple[tuple[float, dict], ...] = ()
    t_complete: float | None = None
    active_s: float | None = None
    report_delay_s: float | None = None
    #: instants of the lost report attempts while the report was open
    lost_at: tuple[float, ...] = ()
    #: where still-open spans end: the attempt's end, else the horizon
    t_stop: float | None = None

    @property
    def spans(self) -> list[Span]:
        """The attempt's span children, built from its instants:
        ``dispatch`` (issue -> fetch), ``compute`` (fetch -> complete, its
        ``segment`` children split at checkpoints and crashes) and
        ``report`` (complete -> result, a ``retry`` child per lost report)."""
        stop = self.t_end if self.t_end is not None else self.t_stop
        out: list[Span] = []
        if self.t_fetch is not None:
            compute = Span("compute", self.t_fetch)
            start = self.t_fetch
            for t, attrs in self.segments:
                compute.children.append(Span("segment", start, t, attrs=attrs))
                start = t
            if self.t_complete is None:
                compute.t_end = stop
            else:
                compute.t_end = self.t_complete
                compute.attrs["active_s"] = self.active_s
                if self.segments and self.t_complete > start:
                    compute.children.append(
                        Span("segment", start, self.t_complete)
                    )
            out += [Span("dispatch", self.t_issue, self.t_fetch), compute]
        if self.t_complete is not None:
            out.append(Span(
                "report", self.t_complete, stop,
                attrs={"report_delay_s": self.report_delay_s},
                children=[
                    Span("retry", t, t, attrs={"reason": "lost"})
                    for t in self.lost_at
                ],
            ))
        return out

    @property
    def computing(self) -> bool:
        """Fetched and not yet complete: the compute span is open."""
        return self.t_fetch is not None and self.t_complete is None


@dataclass(slots=True)
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
    _pending: tuple[tuple[float, str, int | None], ...] = ()

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
        valid = [a for a in self.attempts if a.outcome == "valid"]
        if valid:
            return max(valid, key=lambda a: a.t_end or 0.0)
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


class HostRecord:
    """Everything the table knows about one volunteer host."""

    #: per-host turnaround quantiles tracked by the sketch
    TURNAROUND_QUANTILES = (0.5, 0.9, 0.99)

    #: the additive counters
    COUNTERS = (
        "issued", "results", "validated", "invalid", "late", "timed_out",
        "refused", "abandoned", "checkpoints", "kills", "completes",
        "retries", "crashes", "corrupted", "sabotaged", "sabotage_caught",
        "bad_validated", "report_lost", "demotions", "spot_checks",
    )
    #: the rest of a host's report, after its counters
    FIELDS = (
        "first_seen", "last_seen", "sessions", "uptime_fraction", "active_s",
        "cpu_s", "credit", "streak", "peak_streak", "trusted",
    )

    def __init__(self, host: int) -> None:
        self.host = host
        self.first_seen: float | None = None
        self.last_seen: float | None = None
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.active_s = 0.0
        self.cpu_s = 0.0
        self.credit = 0.0
        #: adaptive-replication trust trajectory (replayed from events)
        self.streak = 0
        self.peak_streak = 0
        self.trusted = False
        self.turnaround = QuantileSketch(
            f"host.turnaround_s.{host}",
            quantiles=self.TURNAROUND_QUANTILES,
            help="issue -> result turnaround, seconds",
        )

    # -- derived views -----------------------------------------------------

    @property
    def sessions(self) -> int:
        """Availability sessions (event-derived: checkpoints + 1)."""
        if self.first_seen is None:
            return 0
        return self.checkpoints + 1

    @property
    def uptime_fraction(self) -> float:
        """Active compute time over the host's observed lifespan."""
        if self.first_seen is None or self.last_seen is None:
            return 0.0
        span = self.last_seen - self.first_seen
        if span <= 0.0:
            return 1.0 if self.active_s > 0.0 else 0.0
        return min(1.0, self.active_s / span)

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"host": self.host}
        doc.update(
            {name: getattr(self, name) for name in self.COUNTERS + self.FIELDS}
        )
        doc["turnaround"] = self.turnaround.as_dict()
        return doc


class Lifecycle(Fold):
    """Fold the lifecycle/fault/host event stream into the table's rows.

    Events are applied as they arrive.  Host rows are always kept.  The
    workunit and attempt rows are kept only with ``spans`` (the span view
    reads them, closed rows included), and the health state only while a
    monitor watches (:meth:`bind_monitor`), so a live run's table holds
    O(hosts + work in flight) and does no span work.  The monitor's rule
    sweep is the fold's stride hook: after every :attr:`STRIDE` events of
    its types, and once more at :meth:`drain` if any arrived since.
    """

    def __init__(self, spans: bool = False) -> None:
        super().__init__()
        self.spans = spans
        self.trees: dict[int, WorkunitSpanTree] = {}
        self.hosts: dict[int, HostRecord] = {}
        self.by_campaign: dict[str, dict[str, int]] = {}
        #: span events that named an attempt the table does not hold
        self.orphans = 0
        #: issue instants of the attempts out, by packed ``(wu, copy)``
        self._t_issue: dict[int, float] = {}
        #: sabotaged results awaiting their server.result: (wu, host) -> n
        self._sab_pending: dict[tuple[int, int], int] = {}
        #: per-workunit hosts whose sabotage entered the quorum unexposed
        self._pending_bad: dict[int, list[int]] = {}
        # -- what the health rules read, kept while a monitor watches --------
        self.watched = False
        self._monitor: Callable[[], Any] | None = None
        #: release instants of the workunits not yet closed
        self._t_release: dict[int, float] = {}
        #: workunits holding a valid result, still awaiting a quorum partner
        self.pending_quorum: set[int] = set()
        #: idle-poll and deadline-reissue instants (the sweep prunes them)
        self.idle_times: deque[float] = deque()
        self.deadline_times: deque[float] = deque()
        #: latency samples, handed to the monitor's sketches chunk-wise
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLES}

    def bind_monitor(self, monitor) -> None:
        """Keep the health state from now on, and sweep ``monitor`` (a
        :class:`~repro.obs.health.HealthMonitor`) every :attr:`STRIDE`
        events of its types.

        The table holds the monitor weakly: the monitor holds the table,
        and a cycle would keep a finished run's rows alive until the next
        full garbage collection."""
        self.watched = True
        self._monitor = weakref.ref(monitor)
        self.hook_types(monitor.EVENTS)

    def _hook(self, t: float) -> None:
        monitor = self._monitor()
        if monitor is not None:  # else the monitor is gone; its table lives on
            monitor.sweep(t)

    # -- rows ----------------------------------------------------------------

    def _tree(self, wu: int) -> WorkunitSpanTree:
        tree = self.trees.get(wu)
        if tree is None:
            tree = self.trees[wu] = WorkunitSpanTree(wu=wu)
        return tree

    def _host(self, host: int, t: float) -> HostRecord:
        rec = self.hosts.get(host)
        if rec is None:
            rec = self.hosts[host] = HostRecord(host)
        if rec.first_seen is None:
            rec.first_seen = t
        rec.last_seen = t  # the stream is non-decreasing in t_sim
        return rec

    def campaign(self, name: str) -> dict[str, int]:
        agg = self.by_campaign.get(name)
        if agg is None:
            agg = self.by_campaign[name] = dict.fromkeys(
                ("results", "validated", "invalid", "late"), 0
            )
        return agg

    def _held(self, host: int | None, wu: int | None) -> AttemptSpan | None:
        """The attempt ``host`` holds of ``wu``: the last copy issued to
        it, unless that copy has reported or been abandoned."""
        tree = self.trees.get(wu)
        if tree is not None:
            for attempt in reversed(tree.attempts):
                if attempt.host == host:
                    return attempt if attempt.t_end is None else None
        return None

    def _attempt(self, f: dict) -> AttemptSpan | None:
        """Resolve an event naming a workunit to its attempt: the ``copy``
        ordinal wins (it disambiguates a host holding a re-issued copy of
        a workunit it already computed), else the attempt the host holds.
        An event resolving to no attempt is an orphan."""
        wu = f.get("wu")
        if wu is None:
            return None
        copy = f.get("copy")
        tree = self.trees.get(wu)
        if copy is not None and tree is not None:
            for attempt in tree.attempts:
                if attempt.copy == copy:
                    return attempt
        attempt = self._held(f.get("host"), wu)
        if attempt is None:
            self.orphans += 1
        return attempt

    # -- event fold: one handler per event type (``HANDLERS``) ---------------

    def _on_release(self, t: float, f: dict) -> None:
        if self.watched:
            self._t_release[f["wu"]] = t
        if self.spans:
            tree = self._tree(f["wu"])
            tree.t_release = t
            tree.batch = f.get("batch")
            tree.replication = f.get("replication")
            tree.receptor = f.get("receptor")
            tree.ligand = f.get("ligand")

    def _on_issue(self, t: float, f: dict) -> None:
        wu, host = f["wu"], f["host"]
        self._t_issue[wu * _COPY + f.get("copy", 0)] = t
        self._host(host, t).issued += 1
        if self.spans:
            tree = self._tree(wu)
            if tree.t_release is None:
                tree.t_release = t  # release event filtered out: best effort
            reason = "fresh" if not tree.attempts else "replica"
            if tree._pending:
                (_, reason, _), *rest = tree._pending
                tree._pending = tuple(rest)
            tree.attempts.append(
                AttemptSpan(f.get("copy", len(tree.attempts)), host, t, reason)
            )

    def _on_fetch(self, t: float, f: dict) -> None:
        self._host(f["host"], t)
        if self.spans:
            attempt = self._attempt(f)
            if attempt is not None:
                attempt.t_fetch = t

    def _on_abandon(self, t: float, f: dict) -> None:
        self._host(f["host"], t).abandoned += 1
        if self.spans:
            attempt = self._attempt(f)
            if attempt is not None:
                attempt.outcome = "abandoned"
                attempt.t_end = t

    def _on_checkpoint(self, t: float, f: dict) -> None:
        rec = self._host(f["host"], t)
        rec.checkpoints += 1
        killed = f.get("killed", False)
        if killed:
            rec.kills += 1
        if self.spans:
            attempt = self._attempt(f)
            if attempt is not None and attempt.computing:
                attempt.segments += ((t, {
                    "killed": killed,
                    "lost_reference_s": f.get("lost_reference_s", 0.0),
                }),)

    def _on_crash(self, t: float, f: dict) -> None:
        self._host(f["host"], t).crashes += 1
        if self.spans:
            attempt = self._attempt(f)
            if attempt is not None:
                attempt.crashes += 1
                if attempt.computing:
                    attempt.segments += ((t, {
                        "crash": True,
                        "lost_reference_s": f.get("lost_reference_s", 0.0),
                    }),)

    def _on_complete(self, t: float, f: dict) -> None:
        rec = self._host(f["host"], t)
        rec.completes += 1
        active = f.get("active_s")
        delay = f.get("report_delay_s")
        if active is not None:
            rec.active_s += active
        if self.watched:
            if delay is not None:
                self.samples["report_delay_s"].append(delay)
            if active is not None:
                self.samples["active_hours"].append(active / 3600.0)
        if self.spans:
            attempt = self._attempt(f)
            if attempt is not None and attempt.t_complete is None:
                attempt.t_complete = t
                attempt.active_s = active
                attempt.report_delay_s = delay

    def _on_report_lost(self, t: float, f: dict) -> None:
        self._host(f["host"], t).report_lost += 1
        if self.spans:
            attempt = self._attempt(f)
            if attempt is not None:
                attempt.report_retries += 1
                if attempt.t_complete is not None:
                    attempt.lost_at += (t,)

    def _on_corrupt(self, t: float, f: dict) -> None:
        self._host(f["host"], t).corrupted += 1

    def _on_sabotage(self, t: float, f: dict) -> None:
        host = f["host"]
        self._host(host, t).sabotaged += 1
        key = (f["wu"], host)
        self._sab_pending[key] = self._sab_pending.get(key, 0) + 1

    def _on_result(self, t: float, f: dict) -> None:
        wu, host = f["wu"], f["host"]
        valid, late = f.get("valid"), f.get("late")
        rec = self._host(host, t)
        rec.results += 1
        rec.cpu_s += f.get("accounted_cpu_s", 0.0)
        issued = self._t_issue.pop(wu * _COPY + f.get("copy", 0), None)
        if issued is not None:
            rec.turnaround.observe(t - issued)
        if self.watched:
            if issued is not None:
                self.samples["result_latency_s"].append(t - issued)
            if valid and not late:
                self.pending_quorum.add(wu)
        # -- the host's validity record and trust streak
        key = (wu, host)
        pending = self._sab_pending.get(key, 0)
        campaign = f.get("campaign")
        agg = self.campaign(campaign) if campaign is not None else None
        if agg is not None:
            agg["results"] += 1
        if late:
            rec.late += 1
            if agg is not None:
                agg["late"] += 1
            if pending:
                # A late sabotaged result never entered the quorum: it can
                # be neither caught nor validated.
                self._sab_pending[key] = pending - 1
        elif not valid:
            rec.invalid += 1
            rec.streak = 0  # mirrors AdaptiveReplication.record_invalid
            if agg is not None:
                agg["invalid"] += 1
        else:
            rec.streak += 1  # mirrors AdaptiveReplication.record_valid
            if rec.streak > rec.peak_streak:
                rec.peak_streak = rec.streak
            if pending:
                # The sabotage passed the range check and now sits in the
                # quorum; server.validate decides caught vs validated.
                self._sab_pending[key] = pending - 1
                self._pending_bad.setdefault(wu, []).append(host)
        if self.spans:  # the attempt's outcome (the copy ordinal names it)
            attempt = self._attempt(f)
            if attempt is not None:
                attempt.t_end = t
                if late:
                    attempt.outcome = "late"
                elif f.get("valid", True):
                    attempt.outcome = "valid"
                else:
                    attempt.outcome = "invalid"

    def _on_reissue(self, t: float, f: dict) -> None:
        wu, host = f["wu"], f.get("host")
        if f.get("reason") == "deadline":
            if self.watched:
                self.deadline_times.append(t)
            if host is not None:
                self._host(host, t).timed_out += 1
        if self.spans:
            tree = self._tree(wu)
            reason = f.get("reason", "deadline")
            trigger_idx: int | None = None
            if reason == "deadline":
                # The deadline reclaimed the triggering host's copy: mark it
                # so late reports and the critical path can tell reclaimed
                # copies from live ones.
                attempt = self._held(host, wu)
                if attempt is not None and attempt.deadline_missed_at is None:
                    attempt.deadline_missed_at = t
                    if attempt.outcome == "in-flight":
                        attempt.outcome = "timed-out"
                    trigger_idx = tree.attempts.index(attempt)
            tree._pending += ((t, reason, trigger_idx),)

    def _on_validate(self, t: float, f: dict) -> None:
        wu, host = f["wu"], f.get("host")
        if self.watched:
            released = self._t_release.pop(wu, None)
            if released is not None:
                self.samples["makespan_s"].append(t - released)
            self.pending_quorum.discard(wu)
        tainted = bool(f.get("tainted", False))
        rec = self._host(host, t) if host is not None else None
        if rec is not None:
            rec.validated += 1
        if tainted:
            # Wrong-but-agreeing results closed the workunit: the event's
            # host is the saboteur whose copy tipped the quorum; the other
            # contributors' sabotage is moot once the workunit closes.
            if rec is not None:
                rec.bad_validated += 1
            self._pending_bad.pop(wu, None)
        else:
            # An untainted close exposes every unexposed sabotaged copy
            # of this workunit (stats.sabotage_caught += n_valid_bad).
            for bad_host in self._pending_bad.pop(wu, ()):
                self._host(bad_host, t).sabotage_caught += 1
        campaign = f.get("campaign")
        if campaign is not None:
            self.campaign(campaign)["validated"] += 1
        if self.spans:
            tree = self._tree(wu)
            tree.outcome = "validated"
            tree.t_close = t
            tree.regime = f.get("regime")
            tree.tainted = tainted

    def _on_failed(self, t: float, f: dict) -> None:
        wu = f["wu"]
        if self.watched:
            self._t_release.pop(wu, None)
            self.pending_quorum.discard(wu)
        # Terminal failure: pending sabotage on this workunit was neither
        # caught nor validated.
        self._pending_bad.pop(wu, None)
        if self.spans:
            tree = self._tree(wu)
            tree.outcome = "failed"
            tree.t_close = t

    def _on_idle(self, t: float, f: dict) -> None:
        if self.watched:
            self.idle_times.append(t)

    def _on_refuse(self, t: float, f: dict) -> None:
        self._host(f["host"], t).refused += 1

    def _on_retry(self, t: float, f: dict) -> None:
        self._host(f["host"], t).retries += 1

    def _on_trusted(self, t: float, f: dict) -> None:
        self._host(f["host"], t).trusted = True

    def _on_demoted(self, t: float, f: dict) -> None:
        rec = self._host(f["host"], t)
        rec.demotions += 1
        rec.trusted = False

    def _on_spot_check(self, t: float, f: dict) -> None:
        self._host(f["host"], t).spot_checks += 1

    def _on_credit(self, t: float, f: dict) -> None:
        self._host(f["host"], t).credit += f.get("points", 0.0)

    HANDLERS = {
        "server.release": _on_release,
        "server.issue": _on_issue,
        "server.result": _on_result,
        "server.validate": _on_validate,
        "server.reissue": _on_reissue,
        "server.refuse": _on_refuse,
        "server.workunit_failed": _on_failed,
        "agent.fetch": _on_fetch,
        "agent.idle": _on_idle,
        "agent.abandon": _on_abandon,
        "agent.checkpoint": _on_checkpoint,
        "agent.complete": _on_complete,
        "agent.retry": _on_retry,
        "fault.crash": _on_crash,
        "fault.corrupt": _on_corrupt,
        "fault.sabotage": _on_sabotage,
        "fault.report_lost": _on_report_lost,
        "host.trusted": _on_trusted,
        "host.demoted": _on_demoted,
        "host.spot_check": _on_spot_check,
        "host.credit": _on_credit,
    }


class View:
    """A report over a :class:`Lifecycle` table: its own, unless it was
    handed one to share with the other views of the same run (see
    :func:`repro.boinc.fleet.run_fleet`).

    :attr:`EVENTS` names the event types the view's report reads: they
    fix the channels an observer-only tracer records and what the report
    counts as observed.
    """

    EVENTS: frozenset[str] = frozenset()
    #: whether the view reads the workunit and attempt rows
    SPANS = False

    def __init__(self, table: Lifecycle | None = None) -> None:
        self.table = table if table is not None else Lifecycle(self.SPANS)

    def fold(self, events: Iterable[TraceEvent]) -> "View":
        """Fold a whole stream into the table and return ``self``."""
        self.table.fold(events)
        return self

    @property
    def n_observed(self) -> int:
        """Events of the view's types folded so far."""
        return self.table.observed(self.EVENTS)[0]
