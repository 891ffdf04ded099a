"""Structured event tracing.

A :class:`Tracer` turns instrumentation points scattered through the DES
kernel, the grid server, the volunteer agents and the docking engine into
typed :class:`TraceEvent` records carrying both simulation time and wall
time.  Records flow into a pluggable sink — an in-memory ring buffer
(:class:`RingSink`) or a JSONL file written by a writer process
(:class:`JsonlSink`) — and per-event-type counts are kept regardless of
sink capacity, so aggregate reconciliation (e.g. trace counts vs
:class:`~repro.core.metrics.CampaignMetrics`) never depends on buffer
size.

Cost contract: instrumented hot paths hold a tracer reference that is
``None`` when tracing is off, so the disabled cost is one identity check;
a constructed-but-disabled tracer short-circuits in :meth:`Tracer.emit`
before touching the sink, the counts or the clock.

See docs/observability.md for the trace schema and the event taxonomy.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
import weakref
from collections import Counter as _Counter
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .events import EVENT_TYPES, TRACE_SCHEMA_VERSION, channel_of

__all__ = [
    "TraceEvent",
    "RingSink",
    "FrameSink",
    "JsonlSink",
    "NullSink",
    "Fold",
    "FoldSink",
    "Tracer",
    "read_trace",
    "iter_trace",
    "iter_frames",
    "global_tracer",
    "set_global_tracer",
    "tracing",
]

#: JSONL keys owned by the schema; event fields must not collide with them.
RESERVED_KEYS = frozenset({"v", "type", "ch", "t_sim", "t_wall"})


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record (its JSONL line is ``_jsonl_writer``'s)."""

    etype: str  #: taxonomy event type, e.g. ``"server.issue"``
    channel: str  #: subsystem channel (the dotted prefix of ``etype``)
    t_sim: float | None  #: simulation time (seconds), None outside a DES
    t_wall: float  #: wall-clock time (``time.time()`` epoch seconds)
    fields: dict[str, Any] = field(default_factory=dict)

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


#: the writer process's script, run by file path (it imports the stdlib only)
_WRITER = str(Path(__file__).with_name("_jsonl_writer.py"))


def _send(stream, batch: list[tuple]) -> None:
    """Write ``batch`` to ``stream`` as one length-prefixed frame, emptied."""
    if batch:
        payload = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
        batch.clear()
        stream.write(len(payload).to_bytes(4, "little") + payload)
        # Nothing stays buffered: a forked copy of this process must have
        # no half-sent bytes of its own to flush into the stream.
        stream.flush()


def _finish(proc: subprocess.Popen, batch: list[tuple], path: Path, pid: int) -> None:
    """Send the tail and the end frame, reap the writer, raise if it failed.

    Runs once per sink — from ``close()``, at garbage collection or at
    interpreter exit — and never in a forked copy of the process that
    started the writer.
    """
    if os.getpid() != pid:
        return
    try:
        _send(proc.stdin, batch)
        # A zero-length end frame: forked processes may still hold the
        # pipe, so EOF alone cannot end the stream.
        proc.stdin.write(bytes(4))
    except BrokenPipeError:
        pass  # the writer is gone; its exit status says why
    _, stderr = proc.communicate()
    if proc.returncode:
        lines = stderr.decode(errors="replace").strip().splitlines()
        raise OSError(
            f"trace writer for {path} failed (exit status {proc.returncode}): "
            f"{lines[-1] if lines else 'no message'}"
        )


def _close_frames(stream, batch: list[tuple]) -> None:
    with stream:
        _send(stream, batch)


class FrameSink:
    """Record events as the trace writer's frames, to a file of their own.

    A frame is a 4-byte little-endian length, then a pickled list of
    ``(etype, channel, t_sim, t_wall, fields)`` tuples: ``append`` only
    buffers, and every :attr:`Fold.STRIDE` events one frame is written.
    Nothing is encoded; :func:`iter_frames` reads the events back in
    order.  A sharded campaign's shards record their streams this way for
    the parent to merge.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._stream = self.path.open("wb")
        self._batch: list[tuple] = []
        self._finalizer = weakref.finalize(
            self, _close_frames, self._stream, self._batch
        )

    def append(self, event: TraceEvent) -> None:
        batch = self._batch
        batch.append(
            (event.etype, event.channel, event.t_sim, event.t_wall, event.fields)
        )
        if len(batch) >= Fold.STRIDE:
            try:
                _send(self._stream, batch)
            except BrokenPipeError:
                self._finalizer()  # a writer's: reaps it, raises naming the path
                raise

    def close(self) -> None:
        self._finalizer()


class JsonlSink(FrameSink):
    """Stream events to a JSONL file, one record per line.

    The lines are encoded and written by a writer process
    (``_jsonl_writer.py``) while the campaign keeps running: the frames
    :class:`FrameSink` batches go down a pipe to it.  ``close()`` flushes
    the tail, waits for the writer and raises :class:`OSError` naming the
    path if it failed; an unclosed sink gets the same flush at garbage
    collection or interpreter exit.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("wb") as fh:  # truncates; a bad path raises here
            # Isolated and site-free (-I -S): the stdlib only, whatever is
            # on sys.path here, and a quicker start.  Its own session: a
            # terminal's Ctrl-C, which can land before the writer's
            # start-up ignores SIGINT, never reaches it.
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", _WRITER, str(TRACE_SCHEMA_VERSION)],
                stdin=subprocess.PIPE, stdout=fh, stderr=subprocess.PIPE,
                start_new_session=True,
            )
        self._stream = self._proc.stdin
        # A 1 MiB pipe where Linux allows it (~18 k events): the writer's
        # start-up and stalls are absorbed instead of blocking the campaign.
        with suppress(ImportError, AttributeError, OSError):
            import fcntl

            fcntl.fcntl(self._stream.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
        self._batch: list[tuple] = []
        self._finalizer = weakref.finalize(
            self, _finish, self._proc, self._batch, self.path, os.getpid()
        )


class NullSink:
    """Discard every event (observer-only tracing keeps no trace buffer)."""

    def append(self, event: TraceEvent) -> None:
        pass

    def close(self) -> None:
        pass


class Fold:
    """A streaming observer: one handler table, applied event by event.

    A subclass (:class:`~repro.obs.lifecycle.Lifecycle` in the product)
    gives a class-level :attr:`HANDLERS` table — event type ->
    ``handler(self, t_sim, fields)``.  :meth:`feed` applies and counts an
    event if the table names its type and it carries a ``t_sim``; every
    :attr:`STRIDE` events of the :meth:`hook_types` it runs :meth:`_hook`
    at that event's ``t_sim`` (and :meth:`drain` once more for the tail).
    The same fold runs live (a :class:`FoldSink` tee feeds it) and offline
    (:meth:`fold` over a recorded trace), so a trace refolds into exactly
    the state — hook times included — the live run reached.
    """

    #: hook stride (and the JSONL writer's frame size): small enough that
    #: whatever a hook emits (the health monitor's breach events) stays
    #: timely, large enough to amortize the hook's work
    STRIDE = 64
    #: event type -> ``handler(self, t_sim, fields)``; set by each subclass
    HANDLERS: dict[str, Callable[..., None]] = {}

    def __init__(self) -> None:
        #: event type -> [handler, events applied, t_sim of the last, hooked]
        #: (one lookup per event)
        self._routes: dict[str, list] = {
            etype: [handler, 0, 0.0, False]
            for etype, handler in self.HANDLERS.items()
        }
        self._unhooked = 0  # hooked events applied since the last hook
        self._t_unhooked = 0.0

    def hook_types(self, etypes: Iterable[str]) -> None:
        """Run :meth:`_hook` every :attr:`STRIDE` events of ``etypes``."""
        for etype in etypes:
            self._routes[etype][3] = True

    def feed(self, event: TraceEvent) -> None:
        """Apply one event if this fold handles it."""
        route = self._routes.get(event.etype)
        t = event.t_sim
        if route is None or t is None:
            return
        route[0](self, t, event.fields)
        route[1] += 1
        route[2] = t
        if route[3]:
            self._t_unhooked = t
            self._unhooked += 1
            if self._unhooked == self.STRIDE:
                self._unhooked = 0
                self._hook(t)

    def drain(self) -> None:
        """Run the hook for the hooked events applied since the last."""
        if self._unhooked:
            self._unhooked = 0
            self._hook(self._t_unhooked)

    def _hook(self, t: float) -> None:
        """Per-stride hook (none here)."""

    def fold(self, events: Iterable[TraceEvent]) -> "Fold":
        """Feed a whole stream, drain and return ``self``."""
        for event in events:
            self.feed(event)
        self.drain()
        return self

    def count(self, etype: str) -> int:
        """Events of type ``etype`` applied so far."""
        return self._routes[etype][1]

    def observed(self, etypes: Iterable[str]) -> tuple[int, float]:
        """How many events of ``etypes`` were applied, and the ``t_sim``
        of the last of them (0.0 before any)."""
        routes = [self._routes[etype] for etype in etypes]
        return (
            sum(route[1] for route in routes),
            max((route[2] for route in routes if route[1]), default=0.0),
        )


class FoldSink:
    """Tee a tracer's event stream into a :class:`Fold`.

    Wraps the tracer's real sink.  Every event is forwarded to the inner
    sink first, so the trace/ring order is exactly the arrival order, and
    then fed to the observer.  Only event types in the observer's handler
    table pay for that call; everything else — ``agent.report``, the
    health monitor's own ``health.*`` emissions — costs one frozenset
    probe and is done.

    Consequently whatever an observer's hook emits (the health monitor's
    ``health.slo_breach``/``health.slo_clear``) lands right after the
    event that triggered the hook, carrying that event's ``t_sim``.
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
        #: event type -> channel, or "" when ``channels`` filters it out;
        #: filled on a type's first emit (unknown types are never cached)
        self._routes: dict[str, str] = {}

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
        channel = self._routes.get(etype)
        if channel is None:  # first sight of this type: validate, filter, cache
            if etype not in EVENT_TYPES:
                raise ValueError(
                    f"unknown event type {etype!r}; declare it in "
                    "repro.obs.events.EVENT_TYPES (and docs/observability.md)"
                )
            channel = channel_of(etype)
            if self.channels is not None and channel not in self.channels:
                channel = ""
            self._routes[etype] = channel
        if not channel:
            return
        if not RESERVED_KEYS.isdisjoint(fields):
            clash = sorted(RESERVED_KEYS.intersection(fields))
            raise ValueError(f"event fields collide with reserved keys: {clash}")
        self.counts[etype] += 1
        self.sink.append(TraceEvent(etype, channel, t_sim, time.time(), fields))

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


def iter_frames(path: Path | str) -> Iterator[TraceEvent]:
    """Stream the events a :class:`FrameSink` recorded, in order."""
    with Path(path).open("rb") as fh:
        while size := int.from_bytes(fh.read(4), "little"):
            for etype, channel, t_sim, t_wall, fields in pickle.loads(fh.read(size)):
                yield TraceEvent(etype, channel, t_sim, t_wall, fields)


# -- process-global tracer -------------------------------------------------
#
# The DES layers thread an explicit tracer (one per simulation); the
# docking engine's module-level functions consult this process-global slot
# instead, so `dock_couple` / `MaxDoRun` pick up tracing without signature
# churn.  Process-pool workers (`dock_couple(n_workers=...)`) clear it on
# start-up, so they do not trace; the fan-out itself is traced in the parent.

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
