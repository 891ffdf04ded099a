"""Streaming quantile estimation: the P² (Jain–Chlamtac) algorithm.

The health monitor needs span-latency percentiles *during* a campaign —
"p90 workunit makespan is drifting past the deadline" — but storing every
latency sample defeats the point of streaming sinks at campaign scale
(millions of workunits).  P² [Jain & Chlamtac, CACM 1985] tracks one
quantile with five markers whose heights are adjusted by a piecewise-
parabolic interpolation on every observation: O(1) memory, O(1) update,
no buffering beyond the first five samples.

:class:`P2Quantile` is the single-quantile estimator;
:class:`QuantileSketch` bundles several (p50/p90/p99 by default) behind a
metric-like ``observe()`` interface, plus exact count/min/max, and
registers in a :class:`~repro.obs.metrics.MetricsRegistry` through
``registry.quantiles(name)`` like any other metric kind.

P² is asymptotic: on the heavily skewed latency distributions volunteer
campaigns produce, the five-marker estimate needs a few thousand samples
to settle.  :class:`QuantileSketch` therefore runs a bounded *warm-up
hybrid*: the first ``warmup`` samples (default 4096, ~32 KiB) are kept in
a buffer and estimates read off it are **exact** (same linear
interpolation as ``numpy.quantile``); once the stream outgrows the buffer
it is dropped and the P² markers — fed every sample from the very first,
in arrival order — take over.  Memory stays O(1) either way.

Hot-path contract: while the warm-up buffer is live, ``observe()`` is an
append plus running count/sum/min/max — the buffer is sorted lazily when
an estimate is actually read, and the P² marker updates are deferred and
replayed (in arrival order, so marker state is identical to per-sample
feeding) in one batch when the stream outgrows the buffer.  This keeps
the health monitor's per-event cost flat during the warm-up phase that
dominates campaign-scale streams.

Accuracy contract: tested against exact offline percentiles of the same
campaign trace to within 2% relative error (``tests/test_obs_spans.py``);
the estimate is *exact* while fewer than five samples have arrived.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["P2Quantile", "QuantileSketch"]


class P2Quantile:
    """One streaming quantile via the P² algorithm (5 markers).

    >>> q = P2Quantile(0.5)
    >>> for v in range(1, 100):
    ...     q.observe(float(v))
    >>> abs(q.value - 50.0) < 2.0
    True
    """

    __slots__ = ("p", "_heights", "_positions", "_desired", "_increments", "n")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.n = 0
        self._heights: list[float] = []  # marker heights (sorted)
        # 1-based marker positions, per the original paper's notation
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        value = float(value)
        self.n += 1
        heights = self._heights
        if len(heights) < 5:
            # Initialization phase: collect the first five samples sorted.
            lo, hi = 0, len(heights)
            while lo < hi:
                mid = (lo + hi) // 2
                if heights[mid] < value:
                    lo = mid + 1
                else:
                    hi = mid
            heights.insert(lo, value)
            return

        positions = self._positions
        # Locate the cell and clamp the extremes.
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while value >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._increments[i]

        # Adjust the three interior markers by at most one position each.
        for i in (1, 2, 3):
            d = desired[i] - positions[i]
            if (d >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                d <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    # Parabolic prediction left the bracket: fall back to
                    # linear interpolation toward the neighbour.
                    j = i + int(step)
                    heights[i] += step * (heights[j] - heights[i]) / (
                        positions[j] - positions[i]
                    )
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        q, n = self._heights, self._positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    @property
    def value(self) -> float:
        """The current quantile estimate (exact below five samples)."""
        if self.n == 0:
            raise ValueError("no observations yet")
        heights = self._heights
        if len(heights) < 5:
            # Exact small-sample quantile (nearest-rank on the sorted buffer).
            rank = max(0, min(len(heights) - 1, round(self.p * (len(heights) - 1))))
            return heights[rank]
        return heights[2]


class QuantileSketch:
    """A bundle of P² estimators behind one metric-style ``observe()``.

    Registered in a :class:`~repro.obs.metrics.MetricsRegistry` via
    ``registry.quantiles(name, quantiles=(0.5, 0.9, 0.99))``; dumps as a
    JSON-safe document like every other metric kind.
    """

    kind = "quantiles"

    DEFAULT_QUANTILES = (0.5, 0.9, 0.99)
    #: warm-up buffer bound: estimates are exact until this many samples
    DEFAULT_WARMUP = 4096

    def __init__(
        self,
        name: str,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        help: str = "",
        warmup: int = DEFAULT_WARMUP,
    ) -> None:
        qs = tuple(float(q) for q in quantiles)
        if not qs or sorted(qs) != list(qs) or len(set(qs)) != len(qs):
            raise ValueError(
                f"sketch {name} needs strictly increasing quantiles, got {qs}"
            )
        self.name = name
        self.help = help
        self.quantiles = qs
        self.warmup = warmup
        self._estimators = [P2Quantile(q) for q in qs]
        #: exact warm-up buffer in *arrival* order (sorted lazily for
        #: estimates), dropped once the stream outgrows ``warmup``
        self._buffer: list[float] | None = [] if warmup > 0 else None
        self._sorted: list[float] | None = None  #: lazy sorted view cache
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        buffer = self._buffer
        if buffer is not None:
            if self.count <= self.warmup:
                # Warm-up fast path: estimates read the (lazily sorted)
                # buffer, so the P² marker updates are deferred until the
                # hand-over below.
                buffer.append(value)
                self._sorted = None
                return
            # Hand over to the P² markers: replay the buffered samples in
            # arrival order — the marker state is bit-identical to having
            # fed every sample as it arrived.
            self._buffer = None
            self._sorted = None
            for est in self._estimators:
                observe = est.observe
                for buffered in buffer:
                    observe(buffered)
        for est in self._estimators:
            est.observe(value)

    def observe_many(self, values: list[float]) -> None:
        """Fold a batch of numeric samples in arrival order.

        State-identical to calling :meth:`observe` per sample: count,
        sum, min and max are order-free, and the P² markers are fed (or
        replay-deferred) in the same arrival order either way.  The
        running aggregates use the C-level ``sum``/``min``/``max``
        builtins, so amortized batch feeding is several times cheaper
        than per-sample calls — the health monitor's drain path relies
        on this.
        """
        n = len(values)
        if n == 0:
            return
        if n == 1:
            self.observe(values[0])
            return
        self.count += n
        self.sum += sum(values)
        lo = min(values)
        hi = max(values)
        if lo < self.min:
            self.min = float(lo)
        if hi > self.max:
            self.max = float(hi)
        buffer = self._buffer
        if buffer is not None:
            buffer.extend(values)
            self._sorted = None
            if self.count <= self.warmup:
                return
            # Hand over to the P² markers: replay everything buffered,
            # in arrival order (the batch was already appended above).
            self._buffer = None
            self._sorted = None
            values = buffer
        for est in self._estimators:
            observe = est.observe
            for value in values:
                observe(value)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch's samples into this one.

        The other sketch's warm-up buffer is replayed in its arrival
        order, so the merged state is identical to one sketch having
        observed both streams back to back.  A sketch that already outgrew its
        warm-up buffer no longer holds its samples and cannot be merged
        exactly — that raises rather than silently degrading.
        """
        if other.count == 0:
            return
        if other._buffer is None:
            raise ValueError(
                f"cannot merge sketch {other.name!r}: it outgrew its "
                f"warm-up buffer ({other.count} > {other.warmup} samples) "
                "and no longer holds its samples"
            )
        if tuple(other.quantiles) != tuple(self.quantiles):
            raise ValueError(
                f"cannot merge sketch {other.name!r} tracking "
                f"{other.quantiles} into one tracking {self.quantiles}"
            )
        self.observe_many(list(other._buffer))

    @property
    def exact(self) -> bool:
        """True while estimates are exact (warm-up buffer still live)."""
        return self._buffer is not None and self.count > 0

    def estimate(self, p: float) -> float:
        """The estimate for quantile ``p`` (must be one of the tracked).

        Exact (``numpy.quantile``-style linear interpolation over the
        warm-up buffer) until ``warmup`` samples, streaming P² beyond.
        """
        for q, est in zip(self.quantiles, self._estimators):
            if q == p:
                if self._buffer:
                    return self._interpolate(p)
                return est.value
        raise KeyError(f"sketch {self.name} does not track quantile {p}")

    def _interpolate(self, p: float) -> float:
        buf = self._sorted
        if buf is None:
            buf = self._sorted = sorted(self._buffer)
        pos = p * (len(buf) - 1)
        lo = int(pos)
        frac = pos - lo
        if frac == 0.0 or lo + 1 >= len(buf):
            return buf[lo]
        return buf[lo] * (1.0 - frac) + buf[lo + 1] * frac

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"sketch {self.name} has no observations")
        return self.sum / self.count

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "kind": self.kind,
            "help": self.help,
            "count": self.count,
            "sum": self.sum,
        }
        if self.count:
            doc["min"] = self.min
            doc["max"] = self.max
            doc["exact"] = self.exact
            doc["estimates"] = {
                f"p{q * 100:g}": self.estimate(q) for q in self.quantiles
            }
        return doc
