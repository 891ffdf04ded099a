"""A minimal deterministic discrete-event simulation kernel — fast path.

Design goals, in order: determinism (same inputs, same trajectory — events
at equal times fire in scheduling order), speed (the volunteer campaign
schedules millions of events near paper scale), and simplicity (callbacks,
no coroutine machinery).

Entities (servers, agents, clusters) hold their own state and schedule
callbacks; the kernel only owns the clock and the queue.

Internals (the public ``schedule`` / ``schedule_at`` / ``cancel`` /
``peek`` / ``step`` / ``run`` API is unchanged from the original kernel,
kept as the test oracle ``tests/oracles/des.py``):

* The queue is a heap of plain ``(time, seq, callback, args, handle)``
  tuples.  Ties on ``time`` break on ``seq`` (allocation order), so tuple
  comparison never reaches the callback and runs entirely in C — the old
  rich-comparing ``Event`` dataclass paid a Python ``__lt__`` (plus two
  tuple allocations) per heap comparison.
* ``Event`` is now a one-slot cancellation handle; the callback and its
  firing time live in the heap entry.  Cancellation stays a tombstone:
  the entry is discarded when it reaches the head of the queue, exactly
  as the reference kernel does, so trace sequences are identical.
* **Timer lanes** (``schedule_timer``): deadline timers — same fixed
  delay, almost always cancelled before firing — would churn the main
  heap as tombstones.  Because the clock is monotone, all timers of one
  delay fire in FIFO order, so each distinct delay gets a plain deque
  ("lane"): O(1) append, O(1) discard, and the main heap stays small.
  The dispatch loop merges lane fronts with the heap head by global
  ``(time, seq)`` order, so fire order — and tombstone-discard order —
  is indistinguishable from a single heap.
* ``schedule_batch_at`` bulk-loads a time-sorted batch (host arrivals)
  without per-event sift-up; an unsorted batch degrades to one heapify.

Determinism contract: a seeded campaign driven by this kernel is
bit-identical — same ``CampaignResult``, same event trace — to one driven
by that oracle.  ``tests/test_grid_des.py`` (property-based
interleavings) and ``tests/test_des_determinism.py`` (full campaign)
enforce this.

Observability: pass ``tracer=`` to record ``des.schedule`` / ``des.fire``
/ ``des.cancel`` events, and ``profiler=`` to attribute wall time to each
fired callback by qualified name.  Both default to None; the fully
uninstrumented run() uses a tight drain loop with zero per-event
instrumentation cost — see docs/observability.md.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import Profiler, Tracer

__all__ = ["Event", "Simulator"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_object_new = object.__new__
_INFINITY = float("inf")

#: heap/lane entry layout: (time, seq, callback, args, Event)
_TIME, _SEQ, _CALLBACK, _ARGS, _HANDLE = range(5)


def _callback_name(callback: Callable[..., None]) -> str:
    """A stable human-readable label for a scheduled callback."""
    name = getattr(callback, "__qualname__", None)
    return name if name is not None else repr(callback)


class Event:
    """Cancellation handle for a scheduled callback.

    Cancellation is a tombstone flag: the kernel discards the entry when
    it reaches the head of the queue.  The handle intentionally carries
    nothing else — the firing time, callback and arguments live in the
    kernel's queue entry, so scheduling allocates one small object with a
    single slot to fill.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Event queue + clock.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, order.append, "b")
    >>> _ = sim.schedule(1.0, order.append, "a")
    >>> sim.run()
    >>> order
    ['a', 'b']
    """

    def __init__(
        self,
        tracer: "Tracer | None" = None,
        profiler: "Profiler | None" = None,
    ) -> None:
        self.now = 0.0
        self._queue: list[tuple] = []
        #: per-delay FIFO lanes for schedule_timer (delay -> deque of entries)
        self._lanes: dict[float, deque] = {}
        self._counter = count()
        self.events_processed = 0
        self.tracer = tracer
        self.profiler = profiler

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        at = self.now + delay
        event = _object_new(Event)
        event.cancelled = False
        _heappush(self._queue, (at, next(self._counter), callback, args, event))
        if self.tracer is not None:
            self.tracer.emit(
                "des.schedule", t_sim=self.now, at=at,
                callback=_callback_name(callback),
            )
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        event = _object_new(Event)
        event.cancelled = False
        _heappush(self._queue, (time, next(self._counter), callback, args, event))
        if self.tracer is not None:
            self.tracer.emit(
                "des.schedule", t_sim=self.now, at=time,
                callback=_callback_name(callback),
            )
        return event

    def schedule_timer(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule a deadline timer ``delay`` seconds out.

        Semantically identical to :meth:`schedule` — same fire order, same
        tombstone cancellation — but entries go to a per-delay FIFO lane
        instead of the heap.  Use it for high-volume timers that share a
        fixed delay and are usually cancelled (the server's per-instance
        deadline): append, cancel and discard are all O(1), and the
        tombstones never churn the main heap.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        at = self.now + delay
        event = _object_new(Event)
        event.cancelled = False
        entry = (at, next(self._counter), callback, args, event)
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = deque()
        if lane and lane[-1][_TIME] > at:  # pragma: no cover - monotone clock
            _heappush(self._queue, entry)  # defensive: never break fire order
        else:
            lane.append(entry)
        if self.tracer is not None:
            self.tracer.emit(
                "des.schedule", t_sim=self.now, at=at,
                callback=_callback_name(callback),
            )
        return event

    def schedule_batch_at(
        self, items: Iterable[tuple[float, Callable[[], None]]]
    ) -> list[Event]:
        """Schedule a batch of ``(time, callback)`` pairs at once.

        Equivalent to ``[self.schedule_at(t, cb) for t, cb in items]``.
        When the queue is empty and the batch is time-sorted (the host
        arrival schedule), entries are appended directly — a sorted array
        is already a valid heap — skipping per-event sift-up; otherwise
        the queue is re-heapified once at the end.
        """
        queue = self._queue
        was_empty = not queue
        in_order = True
        prev = -_INFINITY
        events: list[Event] = []
        tracer = self.tracer
        for at, callback in items:
            if at < self.now:
                raise ValueError(f"cannot schedule at {at} < now {self.now}")
            event = _object_new(Event)
            event.cancelled = False
            queue.append((at, next(self._counter), callback, (), event))
            events.append(event)
            if at < prev:
                in_order = False
            prev = at
            if tracer is not None:
                tracer.emit(
                    "des.schedule", t_sim=self.now, at=at,
                    callback=_callback_name(callback),
                )
        if not (was_empty and in_order):
            heapq.heapify(queue)
        return events

    # -- queue inspection --------------------------------------------------

    def _min_entry(self) -> tuple[tuple | None, deque | None]:
        """The globally next entry (live or tombstoned) without removing it.

        Returns ``(entry, lane)`` where ``lane`` is None when the entry
        sits in the heap.  Tombstones participate in the ordering exactly
        as they would in a single heap, so discard timing matches the
        reference kernel event for event.
        """
        queue = self._queue
        best = queue[0] if queue else None
        best_lane = None
        for lane in self._lanes.values():
            if lane and (best is None or lane[0] < best):
                best = lane[0]
                best_lane = lane
        return best, best_lane

    def _pop_entry(self, lane: deque | None) -> tuple:
        return _heappop(self._queue) if lane is None else lane.popleft()

    def _discard(self, entry: tuple) -> None:
        """Drop a tombstoned entry (trace point for cancellations)."""
        if self.tracer is not None:
            self.tracer.emit(
                "des.cancel", t_sim=self.now, at=entry[_TIME],
                callback=_callback_name(entry[_CALLBACK]),
            )

    def peek(self) -> float | None:
        """Time of the next live event, or None if the queue is drained."""
        while True:
            entry, lane = self._min_entry()
            if entry is None:
                return None
            if entry[_HANDLE].cancelled:
                self._discard(self._pop_entry(lane))
                continue
            return entry[_TIME]

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        while True:
            entry, lane = self._min_entry()
            if entry is None:
                return False
            self._pop_entry(lane)
            at, _, callback, args, event = entry
            if event.cancelled:
                self._discard(entry)
                continue
            if at < self.now:
                raise RuntimeError("event queue corrupted: time went backwards")
            self.now = at
            self.events_processed += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "des.fire", t_sim=at, callback=_callback_name(callback),
                )
            if self.profiler is not None:
                start = time.perf_counter()
                callback(*args)
                self.profiler.record(
                    f"des.{_callback_name(callback)}",
                    time.perf_counter() - start,
                )
            else:
                callback(*args)
            return True

    # -- execution ---------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Run to quiescence, or up to (and including) time ``until``.

        With ``until``, the clock is left at ``until`` even if the queue
        drained earlier, so telemetry spanning the full horizon reads a
        consistent end time.
        """
        if until is not None and until < self.now:
            raise ValueError(f"cannot run to {until} < now {self.now}")
        if self.tracer is None and self.profiler is None:
            self._run_fast(until)
            return
        if until is None:
            while self.step():
                pass
            return
        while True:
            nxt = self.peek()
            if nxt is None or nxt > until:
                break
            self.step()
        self.now = until

    def _run_fast(self, until: float | None) -> None:
        """Uninstrumented drain loop: the campaign-scale hot path.

        Fires exactly the events the instrumented loop would, in the same
        order; tombstones are silently dropped (there is no tracer to
        tell).  All hot names are bound locally and the per-event work is
        one heap pop (or lane popleft), one flag check, one clock store
        and the callback itself.
        """
        queue = self._queue
        lanes = self._lanes
        pop = _heappop
        horizon = _INFINITY if until is None else until
        fired = 0
        try:
            while True:
                if lanes:
                    entry = queue[0] if queue else None
                    best_lane = None
                    for lane in lanes.values():
                        if lane and (entry is None or lane[0] < entry):
                            entry = lane[0]
                            best_lane = lane
                    if entry is None or entry[0] > horizon:
                        break
                    if best_lane is None:
                        pop(queue)
                    else:
                        best_lane.popleft()
                    at, _, callback, args, event = entry
                else:
                    if not queue or queue[0][0] > horizon:
                        break
                    at, _, callback, args, event = pop(queue)
                if event.cancelled:
                    continue
                self.now = at
                fired += 1
                # Plain CALL beats CALL_FUNCTION_EX for the no-arg
                # majority (self-scheduling ticks, polls, completions).
                if args:
                    callback(*args)
                else:
                    callback()
        finally:
            self.events_processed += fired
        if until is not None:
            self.now = until
