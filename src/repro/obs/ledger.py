"""Fleet forensics: the per-host view of the lifecycle table.

The paper's campaign paid a fixed 1.37x redundancy because the server was
blind to which of its ~100k volunteer hosts were reliable.  A
:class:`HostLedger` reads the :class:`~repro.obs.lifecycle.HostRecord`
rows the lifecycle table keeps — live, through the run's one
:class:`~repro.obs.tracer.FoldSink` tee, or refolded from a recorded trace
(``repro-hcmd hosts``) — and :meth:`HostLedger.finalize` derives
per-host **behavioral classes** (``suspect-saboteur`` > ``flaky`` >
``straggler`` > ``reliable``, in precedence order) and renders a
:class:`FleetReport`: class histograms, top-N offender/straggler tables, a
per-campaign breakdown (from the ``campaign=`` stamps a multi-campaign
grid adds) and fleet totals that reconcile **exactly** against
:class:`ValidationStats`, campaign telemetry and the fault report (pinned
by ``tests/test_ledger.py``).

The ledger never touches simulation state or RNG streams: a
ledger-enabled campaign is bit-identical in outcome to an unobserved one
(golden-digest pinned).  A sharded campaign's ledger folds the merged
stream in the parent (:func:`repro.boinc.sharding.run_sharded`), so its
fleet view is the refold of the merged trace, identical for every worker
count.

Caveat: a ledger teed onto a *user-supplied* tracer only hears the
channels that tracer records — include ``"host"`` (and the lifecycle
channels) in its channel filter, or pass no tracer and let the
simulation build its internal observer-only tracer, to get credit and
trust-trajectory data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.report import Report, render_table
from ..units import format_duration
from .lifecycle import HostRecord, Lifecycle, View
from .tracer import iter_trace

__all__ = ["HostRecord", "HostLedger", "FleetReport", "HostReport"]

#: behavioral classes, in classification precedence order
HOST_CLASSES = ("suspect-saboteur", "flaky", "straggler", "reliable")


class HostLedger(View):
    """The fleet view of a lifecycle table: its host rows."""

    #: every type the table handles but the monitor's release and idle poll
    EVENTS = frozenset(Lifecycle.HANDLERS) - {"server.release", "agent.idle"}

    #: ``flaky``: invalid results exceed this fraction of all results
    FLAKY_INVALID_FRACTION = 0.1
    #: ``straggler``: deadline timeouts exceed this fraction of issues
    STRAGGLER_TIMEOUT_FRACTION = 0.25
    #: ``straggler``: median turnaround exceeds this multiple of the
    #: fleet median
    STRAGGLER_TURNAROUND_FACTOR = 3.0
    #: rows kept in the offender/straggler tables
    TOP_N = 10

    @property
    def records(self) -> dict[int, HostRecord]:
        return self.table.hosts

    @property
    def by_campaign(self) -> dict[str, dict[str, int]]:
        return self.table.by_campaign

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
            and rec.invalid / rec.results > self.FLAKY_INVALID_FRACTION
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
        """Render the final :class:`FleetReport`."""
        self.table.drain()
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
            ledger.table.feed(event)
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
