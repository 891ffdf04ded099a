"""Trace replay: turn a JSONL trace back into human-readable views.

Backs the ``repro-hcmd trace`` subcommand: :func:`summarize_trace`
aggregates a trace into per-type/per-channel counts and time spans;
:func:`format_timeline` renders events as one-line timeline entries with
simulation timestamps; :func:`filter_events` restricts a stream to one
channel / workunit / host.  Every entry point takes an event *iterable*
and consumes it in one streaming pass with bounded memory (a
``--limit``-ed timeline keeps only its head and a tail ring), so replay
scales to traces far larger than RAM — feed them straight from
:func:`repro.obs.tracer.iter_trace`.  See docs/observability.md for a
worked example.
"""

from __future__ import annotations

from collections import Counter as _Counter
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..analysis.report import render_table
from ..units import SECONDS_PER_DAY
from .events import channel_of
from .tracer import TraceEvent

__all__ = ["TraceSummary", "summarize_trace", "format_timeline", "filter_events"]


@dataclass
class TraceSummary:
    """Aggregate view of one trace."""

    n_events: int = 0
    by_type: _Counter = field(default_factory=_Counter)
    by_channel: _Counter = field(default_factory=_Counter)
    t_sim_min: float | None = None
    t_sim_max: float | None = None

    @property
    def sim_span_days(self) -> float | None:
        """Simulated span covered by the trace, in days (None if untimed)."""
        if self.t_sim_min is None or self.t_sim_max is None:
            return None
        return (self.t_sim_max - self.t_sim_min) / SECONDS_PER_DAY

    def rows(self) -> list[tuple[str, str, int]]:
        """(event type, channel, count) rows sorted by channel then type."""
        return [
            (etype, channel_of(etype), self.by_type[etype])
            for etype in sorted(self.by_type, key=lambda e: (channel_of(e), e))
        ]

    def render(self, selection: dict[str, Any] | None = None) -> str:
        """The ``repro-hcmd trace`` summary: the totals (led by the
        filter ``selection`` the events went through), then the
        per-type counts."""
        span = self.sim_span_days
        rows = [
            ["events", self.n_events],
            ["event types", len(self.by_type)],
            ["channels", ", ".join(sorted(self.by_channel)) or "-"],
            ["simulated span", f"{span:.1f} days" if span is not None else "-"],
        ]
        if selection:
            rows.insert(0, [
                "selection", ", ".join(f"{k}={v}" for k, v in selection.items())
            ])
        text = render_table(["quantity", "value"], rows)
        if self.by_type:
            text += "\n\n" + render_table(
                ["event type", "channel", "count"], [list(r) for r in self.rows()]
            )
        return text


def summarize_trace(events: Iterable[TraceEvent]) -> TraceSummary:
    """Aggregate an event stream into counts and time spans (one pass)."""
    summary = TraceSummary()
    for event in events:
        summary.n_events += 1
        summary.by_type[event.etype] += 1
        summary.by_channel[event.channel] += 1
        if event.t_sim is not None:
            if summary.t_sim_min is None or event.t_sim < summary.t_sim_min:
                summary.t_sim_min = event.t_sim
            if summary.t_sim_max is None or event.t_sim > summary.t_sim_max:
                summary.t_sim_max = event.t_sim
    return summary


def filter_events(
    events: Iterable[TraceEvent],
    channel: str | None = None,
    workunit: int | None = None,
    host: int | None = None,
    campaign: str | None = None,
) -> Iterator[TraceEvent]:
    """Restrict an event stream (lazily) to a channel / workunit / host /
    campaign.

    The workunit, host and campaign filters match on the ``wu`` /
    ``host`` / ``campaign`` correlation fields; events that do not carry
    the field (e.g. DES kernel events under a ``workunit`` filter, or
    single-campaign traces under a ``campaign`` filter) are dropped.
    The ``campaign`` stamp is added by the multi-campaign grid
    (:mod:`repro.multi`).
    """
    for event in events:
        if channel is not None and event.channel != channel:
            continue
        if workunit is not None and event.fields.get("wu") != workunit:
            continue
        if host is not None and event.fields.get("host") != host:
            continue
        if campaign is not None and event.fields.get("campaign") != campaign:
            continue
        yield event


def _format_sim_time(t_sim: float | None) -> str:
    """``day 12 06:41:02``-style simulation timestamps (``-`` if untimed)."""
    if t_sim is None:
        return "           -"
    day, rem = divmod(t_sim, SECONDS_PER_DAY)
    hours, rem = divmod(rem, 3600.0)
    minutes, seconds = divmod(rem, 60.0)
    return f"day {int(day):3d} {int(hours):02d}:{int(minutes):02d}:{int(seconds):02d}"


def format_event(event: TraceEvent) -> str:
    """One timeline line: ``[day ...] type key=value ...``."""
    parts = [f"[{_format_sim_time(event.t_sim)}]", event.etype.ljust(22)]
    for key in sorted(event.fields):
        value = event.fields[key]
        if isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def format_timeline(
    events: Iterable[TraceEvent],
    limit: int | None = None,
    channel: str | None = None,
) -> list[str]:
    """Render events as timeline lines, optionally filtered and truncated.

    With ``limit``, the head and tail of the (filtered) stream are kept
    and an ellipsis line reports how many events were elided; only
    ``limit`` formatted lines are ever resident, regardless of trace size.
    """
    if channel is not None:
        events = filter_events(events, channel=channel)
    if limit is None:
        return [format_event(e) for e in events]
    head_n = (limit + 1) // 2
    tail_n = limit - head_n
    head: list[str] = []
    tail: deque[TraceEvent] = deque(maxlen=max(tail_n, 1))
    total = 0
    for event in events:
        total += 1
        if len(head) < head_n:
            head.append(format_event(event))
        else:
            tail.append(event)
    if total <= limit:
        return head + [format_event(e) for e in tail]
    lines = head
    kept_tail = min(tail_n, len(tail))
    lines.append(f"... {total - len(head) - kept_tail} events elided ...")
    if tail_n > 0:
        lines.extend(format_event(e) for e in tail)
    return lines
