"""A minimal deterministic discrete-event simulation kernel.

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
* **One dispatch loop** (``_dispatch``): ``run``, ``step`` and ``peek``
  are thin calls into it.  It discards tombstones as they reach the
  head and fires live entries up to a horizon and a count limit.

Determinism contract: a seeded campaign driven by this kernel is
bit-identical — same ``CampaignResult``, same event trace — to one driven
by that oracle.  ``tests/test_grid_des.py`` (property-based
interleavings) and ``tests/test_des_determinism.py`` (full campaign)
enforce this.

Observability: pass ``tracer=`` to record ``des.schedule`` / ``des.fire``
/ ``des.cancel`` events, and ``profiler=`` to attribute wall time to each
fired callback by qualified name.  Both default to None and ride the same
loop: an uninstrumented event pays two ``is None`` checks — see
docs/observability.md.
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
        lane = self._lanes.get(delay)
        if lane is None:
            lane = self._lanes[delay] = deque()
        # now never decreases, so a lane's times (now + delay) never do
        lane.append((at, next(self._counter), callback, args, event))
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

        Equivalent to ``[self.schedule_at(t, cb) for t, cb in items]``,
        except that a batch holding a past time is refused whole: every
        time is checked before the queue is touched.  When the queue is
        empty and the batch is time-sorted (the host arrival schedule),
        entries are appended directly — a sorted array is already a valid
        heap — skipping per-event sift-up; otherwise the queue is
        re-heapified once at the end.
        """
        queue = self._queue
        in_order = not queue
        prev = -_INFINITY
        entries: list[tuple] = []
        for at, callback in items:
            if at < self.now:
                raise ValueError(f"cannot schedule at {at} < now {self.now}")
            if at < prev:
                in_order = False
            prev = at
            event = _object_new(Event)
            event.cancelled = False
            entries.append((at, next(self._counter), callback, (), event))
        queue.extend(entries)
        if not in_order:
            heapq.heapify(queue)
        if self.tracer is not None:
            for at, _, callback, _, _ in entries:
                self.tracer.emit(
                    "des.schedule", t_sim=self.now, at=at,
                    callback=_callback_name(callback),
                )
        return [event for _, _, _, _, event in entries]

    # -- dispatch ----------------------------------------------------------

    def peek(self) -> float | None:
        """Time of the next live event, or None if the queue is drained."""
        return self._dispatch(-_INFINITY, 0)

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        fired = self.events_processed
        self._dispatch(_INFINITY, 1)
        return self.events_processed > fired

    def run(self, until: float | None = None) -> None:
        """Run to quiescence, or up to (and including) time ``until``.

        With ``until``, the clock is left at ``until`` even if the queue
        drained earlier, so telemetry spanning the full horizon reads a
        consistent end time.
        """
        if until is None:
            self._dispatch(_INFINITY, _INFINITY)
            return
        if until < self.now:
            raise ValueError(f"cannot run to {until} < now {self.now}")
        self._dispatch(until, _INFINITY)
        self.now = until

    def _dispatch(self, horizon: float, limit: float) -> float | None:
        """The one dispatch loop: fire live entries due by ``horizon``.

        The next entry is the global ``(time, seq)`` minimum over the heap
        head and the lane fronts.  A tombstone is discarded whenever it is
        that minimum, whatever its time — exactly when the reference
        kernel's ``peek`` discards it.  The loop returns the time of the
        first live entry past ``horizon`` (left queued), None once the
        queue is drained, and None right after its ``limit``-th firing,
        without looking further.
        """
        queue = self._queue
        lanes = self._lanes
        tracer = self.tracer
        profiler = self.profiler
        fired = 0
        try:
            while True:
                entry = queue[0] if queue else None
                lane = None
                for candidate in lanes.values():
                    if candidate and (entry is None or candidate[0] < entry):
                        entry = candidate[0]
                        lane = candidate
                if entry is None:
                    return None
                at, _, callback, args, event = entry
                if at > horizon and not event.cancelled:
                    return at
                if lane is None:
                    _heappop(queue)
                else:
                    lane.popleft()
                if event.cancelled:
                    if tracer is not None:
                        tracer.emit(
                            "des.cancel", t_sim=self.now, at=at,
                            callback=_callback_name(callback),
                        )
                    continue
                self.now = at
                fired += 1
                if tracer is not None:
                    tracer.emit(
                        "des.fire", t_sim=at, callback=_callback_name(callback),
                    )
                if profiler is not None:
                    start = time.perf_counter()
                    callback(*args)
                    profiler.record(
                        f"des.{_callback_name(callback)}",
                        time.perf_counter() - start,
                    )
                # Plain CALL beats CALL_FUNCTION_EX for the no-arg
                # majority (self-scheduling ticks, polls, completions).
                elif args:
                    callback(*args)
                else:
                    callback()
                if fired == limit:
                    return None
        finally:
            self.events_processed += fired
