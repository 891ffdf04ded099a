"""Structured event tracing.

A :class:`Tracer` turns instrumentation points scattered through the DES
kernel, the grid server, the volunteer agents and the docking engine into
typed :class:`TraceEvent` records carrying both simulation time and wall
time.  Records flow into a pluggable sink — an in-memory ring buffer
(:class:`RingSink`) or a streaming JSONL file (:class:`JsonlSink`) — and
per-event-type counts are kept regardless of sink capacity, so aggregate
reconciliation (e.g. trace counts vs :class:`~repro.core.metrics.
CampaignMetrics`) never depends on buffer size.

Cost contract: instrumented hot paths hold a tracer reference that is
``None`` when tracing is off, so the disabled cost is one identity check;
a constructed-but-disabled tracer short-circuits in :meth:`Tracer.emit`
before touching the sink, the counts or the clock.

See docs/observability.md for the trace schema and the event taxonomy.
"""

from __future__ import annotations

import json
import time
from collections import Counter as _Counter
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .events import EVENT_TYPES, TRACE_SCHEMA_VERSION, channel_of

__all__ = [
    "TraceEvent",
    "RingSink",
    "JsonlSink",
    "NullSink",
    "Fold",
    "FoldSink",
    "Tracer",
    "read_trace",
    "iter_trace",
    "global_tracer",
    "set_global_tracer",
    "tracing",
]

#: JSONL keys owned by the schema; event fields must not collide with them.
RESERVED_KEYS = frozenset({"v", "type", "ch", "t_sim", "t_wall"})


@dataclass
class TraceEvent:
    """One structured trace record."""

    etype: str  #: taxonomy event type, e.g. ``"server.issue"``
    channel: str  #: subsystem channel (the dotted prefix of ``etype``)
    t_sim: float | None  #: simulation time (seconds), None outside a DES
    t_wall: float  #: wall-clock time (``time.time()`` epoch seconds)
    fields: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Render as one JSONL line (schema version stamped)."""
        doc: dict[str, Any] = {
            "v": TRACE_SCHEMA_VERSION,
            "type": self.etype,
            "ch": self.channel,
            "t_sim": self.t_sim,
            "t_wall": self.t_wall,
        }
        doc.update(self.fields)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        doc = json.loads(line)
        version = doc.pop("v", None)
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported trace schema version {version!r} "
                f"(this reader understands {TRACE_SCHEMA_VERSION})"
            )
        etype = doc.pop("type")
        return cls(
            etype=etype,
            channel=doc.pop("ch", channel_of(etype)),
            t_sim=doc.pop("t_sim", None),
            t_wall=doc.pop("t_wall", 0.0),
            fields=doc,
        )


class RingSink:
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)

    def append(self, event: TraceEvent) -> None:
        self._events.append(event)

    def close(self) -> None:  # symmetry with JsonlSink
        pass

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class JsonlSink:
    """Stream events to a JSONL file, one record per line."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="ascii")
        self.n_written = 0

    def append(self, event: TraceEvent) -> None:
        self._fh.write(event.to_json() + "\n")
        self.n_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


class NullSink:
    """Discard every event (observer-only tracing keeps no trace buffer)."""

    def append(self, event: TraceEvent) -> None:
        pass

    def close(self) -> None:
        pass


class Fold:
    """A streaming observer: one handler table, applied in batches.

    The health monitor, the host ledger and the span reconstructor are
    all this.  A subclass gives a class-level :attr:`HANDLERS` table —
    event type -> ``handler(self, t_sim, fields)`` — and reads nothing
    else of the stream.  :meth:`feed` buffers an event only if the table
    names its type and it carries a ``t_sim``; every :attr:`STRIDE`
    buffered events :meth:`drain` applies the batch in arrival order and
    then calls the one per-batch hook, :meth:`_drained`.  The same
    batching runs live (a :class:`FoldSink` tee feeds the observer) and
    offline (:meth:`fold` over a recorded trace), so a trace refolds into
    exactly the report the live run produced.  ``finalize()`` — each
    subclass renders its own report — starts with :meth:`drain`.
    """

    #: drain stride: small enough that whatever a hook emits (the health
    #: monitor's breach events) stays timely, large enough to amortize
    #: the per-batch work
    STRIDE = 64
    #: event type -> ``handler(self, t_sim, fields)``; set by each subclass
    HANDLERS: dict[str, Callable[..., None]] = {}

    def __init__(self) -> None:
        self._batch: list[TraceEvent] = []
        #: events applied so far
        self.n_observed = 0
        #: ``t_sim`` of the last applied event
        self.t_last = 0.0

    def feed(self, event: TraceEvent) -> None:
        """Buffer one event if this observer folds it; drain when full."""
        if event.etype in self.HANDLERS and event.t_sim is not None:
            batch = self._batch
            batch.append(event)
            if len(batch) >= self.STRIDE:
                self.drain()

    def drain(self) -> None:
        """Apply the buffered batch, then run the per-batch hook."""
        batch = self._batch
        if batch:
            # Swap before applying: a hook may emit through the tracer
            # and re-enter feed() mid-batch.
            self._batch = []
            handlers = self.HANDLERS
            for event in batch:
                handlers[event.etype](self, event.t_sim, event.fields)
            self.n_observed += len(batch)
            self.t_last = batch[-1].t_sim
            self._drained(self.t_last)

    def _drained(self, t_last: float) -> None:
        """Per-batch hook, at the batch's last timestamp (none here)."""

    def fold(self, events: Iterable[TraceEvent]) -> "Fold":
        """Feed a whole stream, drain the tail and return ``self``."""
        for event in events:
            self.feed(event)
        self.drain()
        return self


class FoldSink:
    """Tee a tracer's event stream into a :class:`Fold`.

    Wraps the tracer's real sink.  Every event is forwarded to the inner
    sink **immediately**, so the trace/ring order is exactly the arrival
    order — the observer's batching never reorders or delays the real
    stream — and then fed to the observer.  Only event types in the
    observer's handler table pay for that call; everything else —
    ``agent.report``, the health monitor's own ``health.*`` emissions —
    costs one frozenset probe and is done.

    Consequently whatever an observer emits while draining (the health
    monitor's ``health.slo_breach``/``health.slo_clear``) is appended at
    drain boundaries: its ``t_sim`` is the simulation time of the last
    event in the drained batch.
    """

    def __init__(self, observer: Fold, inner) -> None:
        self.observer = observer
        self.inner = inner
        self._inner_append = inner.append
        self._relevant = frozenset(observer.HANDLERS)
        self._feed = observer.feed

    def append(self, event: TraceEvent) -> None:
        self._inner_append(event)
        if event.etype in self._relevant:
            self._feed(event)

    def close(self) -> None:
        self.observer.drain()
        self.inner.close()


class Tracer:
    """Typed event emitter with per-type counts and a pluggable sink.

    >>> tracer = Tracer()
    >>> tracer.emit("server.issue", t_sim=12.0, wu=3, host=7)
    >>> tracer.counts["server.issue"]
    1
    """

    def __init__(
        self,
        sink: RingSink | JsonlSink | None = None,
        enabled: bool = True,
        channels: Iterable[str] | None = None,
    ) -> None:
        self.sink = sink if sink is not None else RingSink()
        self.enabled = enabled
        #: restrict recording to these channels (None = all)
        self.channels = frozenset(channels) if channels is not None else None
        #: per-event-type record counts (kept even when the ring overflows)
        self.counts: _Counter[str] = _Counter()

    @classmethod
    def to_jsonl(
        cls, path: Path | str, channels: Iterable[str] | None = None
    ) -> "Tracer":
        """A tracer streaming to a JSONL file at ``path``."""
        return cls(sink=JsonlSink(path), channels=channels)

    @classmethod
    def disabled(cls) -> "Tracer":
        """A tracer that records nothing (the ~zero-cost null object)."""
        return cls(enabled=False)

    def emit(self, etype: str, t_sim: float | None = None, **fields: Any) -> None:
        """Record one event; a no-op when the tracer is disabled."""
        if not self.enabled:
            return
        description = EVENT_TYPES.get(etype)
        if description is None:
            raise ValueError(
                f"unknown event type {etype!r}; declare it in "
                "repro.obs.events.EVENT_TYPES (and docs/observability.md)"
            )
        channel = channel_of(etype)
        if self.channels is not None and channel not in self.channels:
            return
        if not RESERVED_KEYS.isdisjoint(fields):
            clash = sorted(RESERVED_KEYS.intersection(fields))
            raise ValueError(f"event fields collide with reserved keys: {clash}")
        self.counts[etype] += 1
        self.sink.append(
            TraceEvent(
                etype=etype,
                channel=channel,
                t_sim=t_sim,
                t_wall=time.time(),
                fields=fields,
            )
        )

    @property
    def n_events(self) -> int:
        """Total events recorded (sum over all types)."""
        return sum(self.counts.values())

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_trace(path: Path | str) -> Iterator[TraceEvent]:
    """Stream a JSONL trace one :class:`TraceEvent` at a time.

    The memory-bounded counterpart of :func:`read_trace`: the whole file
    is never resident, so replay filters and span reconstruction scale to
    multi-gigabyte campaign traces.
    """
    with Path(path).open("r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield TraceEvent.from_json(line)


def read_trace(path: Path | str) -> list[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records."""
    return list(iter_trace(path))


# -- process-global tracer -------------------------------------------------
#
# The DES layers thread an explicit tracer (one per simulation); the
# docking engine's module-level functions consult this process-global slot
# instead, so `dock_couple` / `MaxDoRun` pick up tracing without signature
# churn.  Process-pool workers (`dock_couple(n_workers=...)`) do not
# inherit it; the fan-out itself is traced in the parent.

_global_tracer: Tracer | None = None


def global_tracer() -> Tracer | None:
    """The process-global tracer used by the docking engine (or None)."""
    return _global_tracer


def set_global_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-global tracer; returns the old one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as the process-global tracer.

    >>> with tracing(Tracer()) as tr:
    ...     assert global_tracer() is tr
    >>> global_tracer() is None
    True
    """
    previous = set_global_tracer(tracer)
    try:
        yield tracer
    finally:
        set_global_tracer(previous)
