"""The reference discrete-event kernel — the fire-order oracle.

This is the pre-optimization ``repro.grid.des`` implementation, frozen
verbatim: a single ``heapq`` of rich-comparing ``Event`` dataclasses, one
object allocation per scheduled callback, tombstone cancellation through
the main heap.  It is deliberately *not* fast; it is the executable
definition of the kernel's determinism contract:

    events fire in ``(time, scheduling order)`` order, tombstoned events
    are discarded exactly when they reach the head of the queue, and a
    seeded campaign driven by this kernel is bit-identical to one driven
    by the optimized kernel.

``tests/test_grid_des.py`` drives random schedule/cancel/run
interleavings through both kernels and asserts identical fire sequences;
``tests/test_des_determinism.py`` swaps this kernel into a full scaled
campaign and asserts a bit-identical :class:`CampaignResult` and an
identical event trace.

The extended queue API added with the fast kernel (``schedule_timer``,
``schedule_batch_at``) is provided here with the *naive* semantics the
optimized kernel must reproduce: timers are ordinary heap events and a
batch is a loop of ``schedule_at`` calls, refused whole (nothing
scheduled) when any of its times is in the past.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Profiler, Tracer

__all__ = ["Event", "Simulator"]


def _callback_name(callback: Callable[..., None]) -> str:
    """A stable human-readable label for a scheduled callback."""
    name = getattr(callback, "__qualname__", None)
    return name if name is not None else repr(callback)


@dataclass(order=True)
class Event:
    """A scheduled callback.  Cancellation is a tombstone flag."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event dead; the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Event queue + clock (reference implementation).

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
        self._queue: list[Event] = []
        self._seq = 0
        self.events_processed = 0
        self.tracer = tracer
        self.profiler = profiler

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        event = Event(time=time, seq=self._seq, callback=callback, args=args)
        self._seq += 1
        heapq.heappush(self._queue, event)
        if self.tracer is not None:
            self.tracer.emit(
                "des.schedule", t_sim=self.now, at=time,
                callback=_callback_name(callback),
            )
        return event

    def schedule_timer(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Deadline timer: in the reference kernel, an ordinary heap event."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_batch_at(
        self, items: Iterable[tuple[float, Callable[[], None]]]
    ) -> list[Event]:
        """Bulk schedule: in the reference kernel, a loop of schedule_at."""
        items = list(items)
        for t, _ in items:
            if t < self.now:
                raise ValueError(f"cannot schedule at {t} < now {self.now}")
        return [self.schedule_at(t, callback) for t, callback in items]

    def _discard(self, event: Event) -> None:
        """Drop a tombstoned event (trace point for cancellations)."""
        if self.tracer is not None:
            self.tracer.emit(
                "des.cancel", t_sim=self.now, at=event.time,
                callback=_callback_name(event.callback),
            )

    def peek(self) -> float | None:
        """Time of the next live event, or None if the queue is drained."""
        while self._queue and self._queue[0].cancelled:
            self._discard(heapq.heappop(self._queue))
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                self._discard(event)
                continue
            if event.time < self.now:
                raise RuntimeError("event queue corrupted: time went backwards")
            self.now = event.time
            self.events_processed += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "des.fire", t_sim=event.time,
                    callback=_callback_name(event.callback),
                )
            if self.profiler is not None:
                start = time.perf_counter()
                event.callback(*event.args)
                self.profiler.record(
                    f"des.{_callback_name(event.callback)}",
                    time.perf_counter() - start,
                )
            else:
                event.callback(*event.args)
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run to quiescence, or up to (and including) time ``until``."""
        if until is None:
            while self.step():
                pass
            return
        if until < self.now:
            raise ValueError(f"cannot run to {until} < now {self.now}")
        while True:
            nxt = self.peek()
            if nxt is None or nxt > until:
                break
            self.step()
        self.now = until
