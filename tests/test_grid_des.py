"""Tests for repro.grid.des: the discrete-event kernel.

``tests.oracles.des`` holds the original (slow) kernel verbatim;
the property tests at the bottom drive both kernels through identical
random op interleavings and require identical trajectories — that is the
fast path's correctness oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.oracles import des as _reference_des
from repro.grid.des import Simulator
from repro.obs import Profiler, Tracer


class TestScheduling:
    def test_fifo_order_at_equal_times(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule(1.0, order.append, name)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, second)

        def second():
            seen.append(sim.now)

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]

    def test_rejects_past(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "keep")
        ev = sim.schedule(1.0, fired.append, "drop")
        ev.cancel()
        sim.run()
        assert fired == ["keep"]

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.peek() == 2.0


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(10.0, fired.append, "out")
        sim.run(until=5.0)
        assert fired == ["in"]
        assert sim.now == 5.0

    def test_inclusive_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_clock_set_even_when_drained(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_rejects_past_horizon(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["late"]


class TestClockMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    def test_callbacks_see_monotone_time(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


class TestTimerLanes:
    """schedule_timer: semantically schedule(), stored in a FIFO lane."""

    def test_timer_fires_like_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule_timer(2.0, fired.append, "timer")
        sim.schedule(1.0, fired.append, "heap")
        sim.run()
        assert fired == ["heap", "timer"]

    def test_cancelled_timer_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule_timer(1.0, fired.append, "x")
        sim.schedule(2.0, fired.append, "keep")
        ev.cancel()
        sim.run()
        assert fired == ["keep"]

    def test_equal_time_ties_break_on_scheduling_order(self):
        # A heap event, a timer, and another heap event all at t=5 must
        # fire in scheduling order — the lane merge must respect seq.
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        sim.schedule_timer(5.0, fired.append, "b")
        sim.schedule(5.0, fired.append, "c")
        sim.schedule_timer(5.0, fired.append, "d")
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_multiple_lanes_merge_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_timer(10.0, fired.append, "slow")
        sim.schedule_timer(1.0, fired.append, "fast")
        sim.schedule_timer(5.0, fired.append, "mid")
        sim.run()
        assert fired == ["fast", "mid", "slow"]

    def test_timer_rescheduled_from_callback(self):
        # Lanes stay FIFO even when refilled mid-run from callbacks.
        sim = Simulator()
        times = []

        def tick():
            times.append(sim.now)
            if len(times) < 4:
                sim.schedule_timer(3.0, tick)

        sim.schedule_timer(3.0, tick)
        sim.run()
        assert times == [3.0, 6.0, 9.0, 12.0]

    def test_timer_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule_timer(-1.0, lambda: None)

    def test_peek_sees_timers(self):
        sim = Simulator()
        sim.schedule(7.0, lambda: None)
        sim.schedule_timer(3.0, lambda: None)
        assert sim.peek() == 3.0

    def test_run_until_holds_pending_timers(self):
        sim = Simulator()
        fired = []
        sim.schedule_timer(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == []
        sim.run()
        assert fired == ["late"]


class TestBatchSchedule:
    """schedule_batch_at: bulk load equivalent to a schedule_at loop."""

    def test_sorted_batch_fires_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_batch_at(
            (float(t), lambda t=t: fired.append(t)) for t in range(5)
        )
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_unsorted_batch_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_batch_at(
            [(3.0, lambda: fired.append("c")),
             (1.0, lambda: fired.append("a")),
             (2.0, lambda: fired.append("b"))]
        )
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_batch_on_nonempty_queue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "heap")
        sim.schedule_batch_at([(1.0, lambda: fired.append("b0")),
                               (2.0, lambda: fired.append("b1"))])
        sim.run()
        assert fired == ["b0", "heap", "b1"]

    def test_batch_handles_are_cancellable(self):
        sim = Simulator()
        fired = []
        events = sim.schedule_batch_at(
            [(1.0, lambda: fired.append("a")), (2.0, lambda: fired.append("b"))]
        )
        events[0].cancel()
        sim.run()
        assert fired == ["b"]

    def test_batch_rejects_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_batch_at([(1.0, lambda: None)])

    def test_refused_batch_schedules_nothing(self):
        # A batch with one past time is refused whole: its valid entries
        # must not stay queued behind the heap's back and fire out of order.
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "a")
        sim.schedule_at(1.0, fired.append, "b")
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.schedule_batch_at(
                [(3.0, lambda: fired.append("c")),
                 (1.0, lambda: fired.append("late"))]
            )
        sim.schedule_at(4.0, fired.append, "d")
        sim.run()
        assert fired == ["b", "d", "a"]

    def test_equal_times_fire_in_batch_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_batch_at(
            [(1.0, lambda k=k: fired.append(k)) for k in range(4)]
        )
        sim.run()
        assert fired == [0, 1, 2, 3]


# -- fast kernel vs reference kernel equivalence --------------------------

#: Small delay pools force time collisions so the (time, seq) tie-break
#: is exercised constantly.
_DELAYS = [0.0, 0.5, 1.0, 1.0, 2.5, 7.0]
_TIMER_DELAYS = [5.0, 5.0, 12.0]

_op = st.tuples(
    st.integers(min_value=0, max_value=6),   # op kind
    st.integers(min_value=0, max_value=23),  # operand a
    st.integers(min_value=0, max_value=23),  # operand b
)


def _drive(sim_cls, ops, traced=False):
    """Replay an encoded op sequence on a kernel; return its trajectory.

    Ops: 0=schedule, 1=schedule_timer, 2=cancel an earlier handle,
    3=step, 4=run(until=now+dt), 5=schedule_batch_at, 6=peek.  Every
    third scheduled callback schedules a child event, so firing order
    feeds back into queue contents.  ``step`` and ``peek`` results are
    logged.  With ``traced`` the kernel holds a tracer and a profiler, and
    the trajectory also carries the ``(etype, t_sim, at)`` sequence of
    ``des.*`` events and the profiler's per-callback call counts.
    """
    tracer = Tracer() if traced else None
    profiler = Profiler() if traced else None
    sim = sim_cls(tracer=tracer, profiler=profiler)
    log = []
    handles = []
    tag = 0

    def fire(t):
        log.append((t, sim.now))
        if t % 3 == 0:
            handles.append(sim.schedule(_DELAYS[t % len(_DELAYS)], fire, -t - 1))

    for kind, a, b in ops:
        if kind == 0:
            handles.append(sim.schedule(_DELAYS[a % len(_DELAYS)], fire, tag))
            tag += 1
        elif kind == 1:
            handles.append(
                sim.schedule_timer(_TIMER_DELAYS[a % len(_TIMER_DELAYS)], fire, tag)
            )
            tag += 1
        elif kind == 2:
            if handles:
                handles[a % len(handles)].cancel()
        elif kind == 3:
            log.append(("step", sim.step()))
        elif kind == 4:
            sim.run(until=sim.now + _DELAYS[a % len(_DELAYS)])
        elif kind == 5:
            times = sorted(
                sim.now + _DELAYS[(a + k) % len(_DELAYS)] for k in range(b % 4)
            )
            batch = [(t, lambda tag=tag + k: fire(tag)) for k, t in enumerate(times)]
            handles.extend(sim.schedule_batch_at(batch))
            tag += len(batch)
        else:
            log.append(("peek", sim.peek()))
    sim.run()
    if not traced:
        return log, sim.now, sim.events_processed
    trace = [
        (e.etype, e.t_sim, e.fields.get("at"))
        for e in tracer.sink.events if e.etype.startswith("des.")
    ]
    calls = {name: n for name, (n, _) in profiler.stats().items()}
    return log, sim.now, sim.events_processed, trace, calls


class TestReferenceEquivalence:
    """The fast kernel's trajectory must match the frozen reference kernel
    for arbitrary interleavings of every scheduling primitive, traced
    (tracer and profiler attached) or not."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_op, min_size=1, max_size=40))
    # a tombstone behind a stepped event is discarded only when dispatch
    # next reaches it: after the later-scheduled, earlier-due event fires
    @example(ops=[(0, 1, 0), (2, 0, 0), (0, 0, 0), (3, 0, 0), (0, 0, 0)])
    def test_same_trajectory_as_reference(self, ops):
        for traced in (False, True):
            assert _drive(Simulator, ops, traced) == _drive(
                _reference_des.Simulator, ops, traced
            ), f"traced={traced}"

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_op, min_size=1, max_size=40))
    def test_fast_kernel_is_deterministic(self, ops):
        assert _drive(Simulator, ops) == _drive(Simulator, ops)
