"""Fleet forensics: a streaming per-host behavioral ledger.

The paper's campaign paid a fixed 1.37x redundancy because the server was
blind to which of its ~100k volunteer hosts were reliable.  The ROADMAP's
trust-based adaptive replication needs per-host behavioral history — and
today corrupted/sabotaged/timed-out results, availability sessions and
the :class:`~repro.boinc.validator.AdaptiveReplication` trust trajectory
all vanish into aggregate counters.  This module keeps them.

A :class:`HostLedger` is a :class:`~repro.obs.tracer.Fold`, like the
health monitor: it rides the trace stream during a simulation — fed by a
:class:`~repro.obs.tracer.FoldSink` tee around the tracer's sink,
near-zero cost when disabled — or refolds a recorded trace
(``repro-hcmd hosts``) into the same report, folding the
lifecycle/fault events into one :class:`HostRecord` per host:

* issue/result/validate/invalid/late counters, deadline timeouts,
  refused RPCs, reported CPU seconds and claimed credit;
* injected-fault exposure (crashes, corruption, sabotage, lost reports,
  retries) plus the *observable* consequences — ``sabotage_caught``
  (a quorum partner exposed the host's plausible-but-wrong result) and
  ``bad_validated`` (the host's sabotage validated a workunit);
* the adaptive-replication trust trajectory replayed from the
  ``host.*`` events: current/peak streaks, promotions, demotions and
  deterministic spot checks;
* availability: first/last seen, active compute seconds, checkpoint
  sessions and the derived uptime fraction (event-derived estimates);
* a per-host issue→result turnaround :class:`QuantileSketch` (exact
  below the warm-up bound, streaming P² beyond).

:meth:`HostLedger.finalize` derives per-host **behavioral classes** —
``suspect-saboteur`` > ``flaky`` > ``straggler`` > ``reliable`` in
precedence order — and renders a :class:`FleetReport` with class
histograms, top-N offender/straggler tables, a per-campaign breakdown
(from the ``campaign=`` stamps a multi-campaign grid adds) and fleet
totals that reconcile **exactly** against :class:`ValidationStats`,
campaign telemetry and the fault report (pinned by
``tests/test_ledger.py``).

Like the health monitor, the ledger never touches simulation state or
RNG streams: a ledger-enabled campaign is bit-identical in outcome to an
unobserved one (golden-digest pinned).  Records are **shard-mergeable**:
shards number their hosts from disjoint id blocks, so
:func:`repro.boinc.sharding.run_sharded` recombines per-shard records
into one fleet view identical for every worker count.

Caveat: a ledger teed onto a *user-supplied* tracer only hears the
channels that tracer records — include ``"host"`` (and the lifecycle
channels) in its channel filter, or pass no tracer and let the
simulation build its internal ledger-only tracer, to get credit and
trust-trajectory data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.report import Report, render_table
from ..units import format_duration
from .quantiles import QuantileSketch
from .tracer import Fold, iter_trace

__all__ = ["HostRecord", "HostLedger", "FleetReport", "HostReport"]

#: behavioral classes, in classification precedence order
HOST_CLASSES = ("suspect-saboteur", "flaky", "straggler", "reliable")


class HostRecord:
    """Everything the ledger knows about one volunteer host."""

    #: per-host turnaround quantiles tracked by the sketch
    TURNAROUND_QUANTILES = (0.5, 0.9, 0.99)

    #: the additive counters (merged by summation across shards)
    COUNTERS = (
        "issued", "results", "validated", "invalid", "late", "timed_out",
        "refused", "abandoned", "checkpoints", "kills", "completes",
        "retries", "crashes", "corrupted", "sabotaged", "sabotage_caught",
        "bad_validated", "report_lost", "demotions", "spot_checks",
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

    @property
    def invalid_fraction(self) -> float:
        return self.invalid / self.results if self.results else 0.0

    def merge(self, other: "HostRecord") -> None:
        """Fold another shard's record for the same host into this one.

        Counters add, seen-spans union and the turnaround sketches merge
        exactly (warm-up replay).  The trust trajectory is stream-order
        state; merging two streams of one host takes the later shard's
        streak and the max peak — shards number hosts from disjoint id
        blocks, so this path only matters for hand-built ledgers.
        """
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.first_seen is not None:
            if self.first_seen is None or other.first_seen < self.first_seen:
                self.first_seen = other.first_seen
        if other.last_seen is not None:
            if self.last_seen is None or other.last_seen > self.last_seen:
                self.last_seen = other.last_seen
        self.active_s += other.active_s
        self.cpu_s += other.cpu_s
        self.credit += other.credit
        self.streak = other.streak
        self.peak_streak = max(self.peak_streak, other.peak_streak)
        self.trusted = other.trusted
        self.turnaround.merge(other.turnaround)

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"host": self.host}
        doc.update({name: getattr(self, name) for name in self.COUNTERS})
        doc.update(
            first_seen=self.first_seen,
            last_seen=self.last_seen,
            sessions=self.sessions,
            uptime_fraction=self.uptime_fraction,
            active_s=self.active_s,
            cpu_s=self.cpu_s,
            credit=self.credit,
            streak=self.streak,
            peak_streak=self.peak_streak,
            trusted=self.trusted,
            turnaround=self.turnaround.as_dict(),
        )
        return doc


class HostLedger(Fold):
    """Fold the lifecycle/fault event stream into per-host records."""

    #: ``flaky``: invalid results exceed this fraction of all results
    FLAKY_INVALID_FRACTION = 0.1
    #: ``straggler``: deadline timeouts exceed this fraction of issues
    STRAGGLER_TIMEOUT_FRACTION = 0.25
    #: ``straggler``: median turnaround exceeds this multiple of the
    #: fleet median
    STRAGGLER_TURNAROUND_FACTOR = 3.0
    #: rows kept in the offender/straggler tables
    TOP_N = 10

    def __init__(self) -> None:
        super().__init__()
        self.records: dict[int, HostRecord] = {}
        self.by_campaign: dict[str, dict[str, int]] = {}
        # correlation state, bounded by in-flight work (packed issue keys
        # like the health monitor: ``wu * 2**20 + copy``)
        self._t_issue: dict[int, float] = {}
        #: sabotaged results awaiting their server.result: (wu, host) -> n
        self._sab_pending: dict[tuple[int, int], int] = {}
        #: per-workunit hosts whose sabotage entered the quorum unexposed
        self._pending_bad: dict[int, list[int]] = {}

    def _rec(self, host: int, t: float) -> HostRecord:
        rec = self.records.get(host)
        if rec is None:
            rec = self.records[host] = HostRecord(host)
        if rec.first_seen is None:
            rec.first_seen = t
        rec.last_seen = t  # the stream is non-decreasing in t_sim
        return rec

    def _campaign(self, name: str) -> dict[str, int]:
        agg = self.by_campaign.get(name)
        if agg is None:
            agg = self.by_campaign[name] = {
                "results": 0, "validated": 0, "invalid": 0, "late": 0,
            }
        return agg

    # -- event fold: one handler per event type (``HANDLERS``) --------------

    def _on_issue(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).issued += 1
        self._t_issue[f["wu"] * 1_048_576 + f.get("copy", 0)] = t

    def _on_result(self, t: float, f: dict) -> None:
        host = f["host"]
        rec = self._rec(host, t)
        rec.results += 1
        rec.cpu_s += f.get("accounted_cpu_s", 0.0)
        issued = self._t_issue.pop(f["wu"] * 1_048_576 + f.get("copy", 0), None)
        if issued is not None:
            rec.turnaround.observe(t - issued)
        wu = f["wu"]
        key = (wu, host)
        pending = self._sab_pending.get(key, 0)
        campaign = f.get("campaign")
        agg = self._campaign(campaign) if campaign is not None else None
        if agg is not None:
            agg["results"] += 1
        if f.get("late"):
            rec.late += 1
            if agg is not None:
                agg["late"] += 1
            if pending:
                # A late sabotaged result never entered the quorum: it can
                # be neither caught nor validated.
                self._drop_pending(key, pending)
        elif not f.get("valid"):
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
                self._drop_pending(key, pending)
                self._pending_bad.setdefault(wu, []).append(host)

    def _drop_pending(self, key: tuple[int, int], pending: int) -> None:
        if pending <= 1:
            del self._sab_pending[key]
        else:
            self._sab_pending[key] = pending - 1

    def _on_validate(self, t: float, f: dict) -> None:
        host = f.get("host")
        rec = self._rec(host, t) if host is not None else None
        if rec is not None:
            rec.validated += 1
        wu = f["wu"]
        if f.get("tainted"):
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
                self._rec(bad_host, t).sabotage_caught += 1
        campaign = f.get("campaign")
        if campaign is not None:
            self._campaign(campaign)["validated"] += 1

    def _on_reissue(self, t: float, f: dict) -> None:
        if f.get("reason") == "deadline":
            self._rec(f["host"], t).timed_out += 1

    def _on_refuse(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).refused += 1

    def _on_workunit_failed(self, t: float, f: dict) -> None:
        # Terminal failure: pending sabotage on this workunit was neither
        # caught nor validated.
        self._pending_bad.pop(f["wu"], None)

    def _on_fetch(self, t: float, f: dict) -> None:
        self._rec(f["host"], t)

    def _on_abandon(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).abandoned += 1

    def _on_checkpoint(self, t: float, f: dict) -> None:
        rec = self._rec(f["host"], t)
        rec.checkpoints += 1
        if f.get("killed"):
            rec.kills += 1

    def _on_complete(self, t: float, f: dict) -> None:
        rec = self._rec(f["host"], t)
        rec.completes += 1
        rec.active_s += f.get("active_s", 0.0)

    def _on_retry(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).retries += 1

    def _on_crash(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).crashes += 1

    def _on_corrupt(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).corrupted += 1

    def _on_sabotage(self, t: float, f: dict) -> None:
        rec = self._rec(f["host"], t)
        rec.sabotaged += 1
        key = (f["wu"], f["host"])
        self._sab_pending[key] = self._sab_pending.get(key, 0) + 1

    def _on_report_lost(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).report_lost += 1

    def _on_trusted(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).trusted = True

    def _on_demoted(self, t: float, f: dict) -> None:
        rec = self._rec(f["host"], t)
        rec.demotions += 1
        rec.trusted = False

    def _on_spot_check(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).spot_checks += 1

    def _on_credit(self, t: float, f: dict) -> None:
        self._rec(f["host"], t).credit += f.get("points", 0.0)

    HANDLERS = {
        "server.issue": _on_issue,
        "server.result": _on_result,
        "server.validate": _on_validate,
        "server.reissue": _on_reissue,
        "server.refuse": _on_refuse,
        "server.workunit_failed": _on_workunit_failed,
        "agent.fetch": _on_fetch,
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

    # -- shard merge ---------------------------------------------------------

    def absorb(
        self,
        records: dict[int, HostRecord],
        by_campaign: dict[str, dict[str, int]] | None = None,
    ) -> None:
        """Fold one shard's records into this ledger (shard order).

        Hosts from different shards come from disjoint id blocks
        (:data:`repro.boinc.sharding.HOST_ID_STRIDE`), so this is a pure
        union; a colliding host id falls back to
        :meth:`HostRecord.merge`.
        """
        for host, rec in records.items():
            mine = self.records.get(host)
            if mine is None:
                self.records[host] = rec
            else:
                mine.merge(rec)
        if by_campaign:
            for name, agg in by_campaign.items():
                dst = self._campaign(name)
                for key, value in agg.items():
                    dst[key] = dst.get(key, 0) + value

    # -- classification and the fleet report --------------------------------

    def fleet_median_turnaround(self) -> float | None:
        """The median of the per-host median turnarounds (the straggler
        baseline), or None before any turnaround sample exists."""
        medians = sorted(
            rec.turnaround.estimate(0.5)
            for rec in self.records.values()
            if rec.turnaround.count > 0
        )
        if not medians:
            return None
        return medians[len(medians) // 2]

    def classify(
        self, rec: HostRecord, fleet_median: float | None = None
    ) -> str:
        """The host's behavioral class (precedence: suspect-saboteur >
        flaky > straggler > reliable; thresholds are class attributes)."""
        if rec.sabotage_caught + rec.bad_validated > 0:
            return "suspect-saboteur"
        if rec.crashes > 0 or (
            rec.results > 0
            and rec.invalid_fraction > self.FLAKY_INVALID_FRACTION
        ):
            return "flaky"
        if rec.issued > 0 and rec.results == 0:
            return "straggler"
        if (
            rec.issued > 0
            and rec.timed_out >= self.STRAGGLER_TIMEOUT_FRACTION * rec.issued
            and rec.timed_out > 0
        ):
            return "straggler"
        if (
            fleet_median is not None
            and fleet_median > 0.0
            and rec.turnaround.count > 0
            and rec.turnaround.estimate(0.5)
            > self.STRAGGLER_TURNAROUND_FACTOR * fleet_median
        ):
            return "straggler"
        return "reliable"

    def finalize(self, t_end: float | None = None) -> "FleetReport":
        """Drain the last batch and render the final :class:`FleetReport`."""
        self.drain()
        fleet_median = self.fleet_median_turnaround()
        classes = {name: 0 for name in HOST_CLASSES}
        hosts: list[dict[str, Any]] = []
        totals: dict[str, float] = {name: 0 for name in HostRecord.COUNTERS}
        totals.update(active_s=0.0, cpu_s=0.0, credit=0.0)
        last_seen = 0.0
        for host in sorted(self.records):
            rec = self.records[host]
            cls = self.classify(rec, fleet_median)
            classes[cls] += 1
            doc = rec.as_dict()
            doc["class"] = cls
            hosts.append(doc)
            for name in totals:
                totals[name] += getattr(rec, name)
            if rec.last_seen is not None and rec.last_seen > last_seen:
                last_seen = rec.last_seen

        def _offense(doc: dict[str, Any]) -> float:
            return (
                doc["sabotage_caught"] + doc["bad_validated"]
                + doc["invalid"] + doc["crashes"] + doc["corrupted"]
            )

        offenders = [
            dict(doc) for doc in sorted(
                (d for d in hosts if _offense(d) > 0),
                key=lambda d: (-_offense(d), d["host"]),
            )[: self.TOP_N]
        ]
        stragglers = [
            dict(doc) for doc in sorted(
                (
                    d for d in hosts
                    if d["timed_out"] > 0 or d["class"] == "straggler"
                ),
                key=lambda d: (-d["timed_out"], d["host"]),
            )[: self.TOP_N]
        ]
        return FleetReport(
            t_end=t_end if t_end is not None else last_seen,
            n_hosts=len(self.records),
            n_observed=self.n_observed,
            fleet_median_turnaround_s=fleet_median,
            classes=classes,
            totals=totals,
            hosts=hosts,
            offenders=offenders,
            stragglers=stragglers,
            by_campaign={
                name: dict(self.by_campaign[name])
                for name in sorted(self.by_campaign)
            },
        )


@dataclass
class FleetReport(Report):
    """The final per-host forensics of one campaign (JSON-safe)."""

    t_end: float
    n_hosts: int
    n_observed: int
    fleet_median_turnaround_s: float | None
    classes: dict[str, int] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    hosts: list[dict[str, Any]] = field(default_factory=list)
    offenders: list[dict[str, Any]] = field(default_factory=list)
    stragglers: list[dict[str, Any]] = field(default_factory=list)
    by_campaign: dict[str, dict[str, int]] = field(default_factory=dict)

    #: the per-host table, declared once for both text layouts: (header,
    #: record key, terminal width, cell format); a negative width
    #: left-aligns the column
    COLUMNS = (
        ("host", "host", 10, ""),
        ("class", "class", -16, ""),
        ("issued", "issued", 6, ""),
        ("valid", "validated", 6, ""),
        ("inval", "invalid", 6, ""),
        ("t/out", "timed_out", 6, ""),
        ("caught", "sabotage_caught", 6, ""),
        ("uptime", "uptime_fraction", 7, ".1%"),
        ("streak", "streak", 6, ""),
        ("credit", "credit", 10, ",.0f"),
    )

    @classmethod
    def from_trace(cls, path) -> "FleetReport":
        """Refold a recorded JSONL trace (``repro-hcmd hosts``); the
        horizon is the trace's last timestamp, folded or not."""
        ledger, t_end = HostLedger(), 0.0
        for event in iter_trace(path):
            ledger.feed(event)
            if event.t_sim is not None:
                t_end = event.t_sim
        return ledger.finalize(t_end)

    def host(self, host_id: int) -> "HostReport":
        """One host's record (ValueError when the ledger never saw it)."""
        for doc in self.hosts:
            if doc["host"] == host_id:
                return HostReport(doc)
        raise ValueError(f"host {host_id} does not appear in the ledger")

    def as_dict(self) -> dict[str, Any]:
        return {
            "t_end": self.t_end,
            "n_hosts": self.n_hosts,
            "n_observed": self.n_observed,
            "fleet_median_turnaround_s": self.fleet_median_turnaround_s,
            "classes": self.classes,
            "totals": self.totals,
            "hosts": self.hosts,
            "offenders": self.offenders,
            "stragglers": self.stragglers,
            "by_campaign": self.by_campaign,
        }

    def _host_table(self, fmt: str, top: int) -> list[str]:
        """The first ``top`` hosts as :attr:`COLUMNS`, one line per row."""
        rows = [[header for header, *_ in self.COLUMNS]] + [
            [format(doc[key], spec) for _, key, _, spec in self.COLUMNS]
            for doc in self.hosts[:top]
        ]
        if fmt == "md":
            rows.insert(1, [
                ":---" if width < 0 else "---:" for *_, width, _ in self.COLUMNS
            ])
            return ["| " + " | ".join(row) + " |" for row in rows]
        return [
            "  " + " ".join(
                f"{cell:<{-width}}" if width < 0 else f"{cell:>{width}}"
                for cell, (*_, width, _) in zip(row, self.COLUMNS)
            )
            for row in rows
        ]

    def _text(self, fmt: str, top: int = 10) -> str:
        """A compact terminal fleet summary, or a markdown section."""
        classes = ", ".join(
            f"{n} {name}" for name, n in self.classes.items() if n
        )
        more = len(self.hosts) - top
        if fmt == "md":
            lines = [
                "## Fleet forensics",
                "",
                f"**{self.n_hosts} hosts** ({classes or 'no hosts observed'}); "
                f"{self.n_observed:,} events folded.",
                "",
                *self._host_table(fmt, top),
            ]
            if more > 0:
                lines += ["", f"... {more} more hosts"]
            if self.by_campaign:
                lines += [
                    "",
                    "| campaign | results | validated | invalid |",
                    "| :--- | ---: | ---: | ---: |",
                ]
                for name, agg in self.by_campaign.items():
                    lines.append(
                        f"| {name} | {agg['results']} | {agg['validated']} "
                        f"| {agg['invalid']} |"
                    )
            return "\n".join(lines)
        t = self.totals
        lines = [
            f"fleet: {self.n_hosts} hosts, " + classes,
            f"  issued={t['issued']:.0f} results={t['results']:.0f} "
            f"validated={t['validated']:.0f} invalid={t['invalid']:.0f} "
            f"late={t['late']:.0f} timed_out={t['timed_out']:.0f} "
            f"credit={t['credit']:,.0f}",
        ]
        if self.fleet_median_turnaround_s is not None:
            lines.append(
                "  fleet median turnaround: "
                f"{self.fleet_median_turnaround_s / 3600.0:,.1f} h"
            )
        lines += self._host_table(fmt, top)
        if more > 0:
            lines.append(f"  ... {more} more hosts")
        if self.by_campaign:
            lines.append("  per-campaign:")
            for name, agg in self.by_campaign.items():
                lines.append(
                    f"    {name:<20} results={agg['results']} "
                    f"validated={agg['validated']} invalid={agg['invalid']}"
                )
        return "\n".join(lines)


class HostReport(dict, Report):
    """One host's ledger record (``repro-hcmd hosts --host N``): the
    record dict itself, rendered as a two-column table."""

    def as_dict(self) -> dict[str, Any]:
        return self

    def _text(self, fmt: str) -> str:
        doc = self
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
        estimates = doc["turnaround"].get("estimates")
        if estimates:
            rows.append([
                "turnaround p50 / p90 / p99",
                " / ".join(
                    format_duration(estimates[k]) for k in ("p50", "p90", "p99")
                ),
            ])
        return render_table([f"host {doc['host']}", "value"], rows, fmt)
