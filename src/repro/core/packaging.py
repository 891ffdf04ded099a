"""Workunit packaging (Section 4.2).

The whole work of formula (1) must be sliced into pieces that last
approximately ``h`` hours on the reference processor, under two technical
constraints: a workunit covers exactly one couple ``(p1, p2)``, and only the
number of starting positions may vary (orientations are fixed at 21
couples).  The paper's slicing rule per couple is

    nsep = 1                      if floor(h / Mct(p1,p2)) <= 1
    nsep = Nsep(p1)               if floor(h / Mct(p1,p2)) >= Nsep(p1)
    nsep = floor(h / Mct(p1,p2))  otherwise

yielding ``ceil(Nsep(p1) / nsep)`` workunits for the couple.  The paper
notes there are "several methods to build workunits" with sub-goals such as
decreasing the number of small workunits or minimizing the workunit count —
those variants are implemented as strategies and compared in the ablation
benchmarks:

* ``floor`` — the paper's rule (default);
* ``round`` — rounds instead of flooring (softer ``h``, fewer workunits);
* ``merge-tail`` — the paper's rule, but a small remainder slice is merged
  into its neighbour (fewer tiny workunits);
* ``even`` — same workunit count as ``floor`` but positions spread evenly
  (narrower duration distribution).

Everything population-level (workunit counts, duration histograms — the
data behind Figure 4) is computed vectorized over the 168 x 168 couple
matrix without materializing millions of workunit records; materialization
is reserved for the (scaled) discrete-event simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Literal

import numpy as np

from ..maxdo.cost_model import CostModel
from ..units import format_duration, hours as hours_to_s, seconds_to_ydhms
from .workunit import WorkUnit

__all__ = ["PackagingPolicy", "WorkUnitPlan", "positions_per_workunit"]

Strategy = Literal["floor", "round", "merge-tail", "even"]


@dataclass(frozen=True)
class PackagingPolicy:
    """How to slice couples into workunits."""

    target_hours: float = 10.0
    strategy: Strategy = "floor"
    #: ``merge-tail``: remainders at most this fraction of a full slice are
    #: folded into a neighbouring workunit.
    merge_tail_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.target_hours <= 0:
            raise ValueError(f"target_hours must be positive, got {self.target_hours}")
        if self.strategy not in ("floor", "round", "merge-tail", "even"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 <= self.merge_tail_fraction <= 1.0:
            raise ValueError("merge_tail_fraction must be in [0, 1]")

    @property
    def target_seconds(self) -> float:
        return hours_to_s(self.target_hours)


def positions_per_workunit(
    mct: np.ndarray, nsep: np.ndarray, target_seconds: float, rounding: str = "floor"
) -> np.ndarray:
    """The paper's ``nsep`` rule, vectorized over the couple matrix.

    Returns an (n, n) integer matrix: positions per (full) workunit for each
    couple, clamped to ``[1, Nsep(p1)]``.
    """
    if target_seconds <= 0:
        raise ValueError("target duration must be positive")
    raw = target_seconds / np.asarray(mct, dtype=np.float64)
    if rounding == "floor":
        per_wu = np.floor(raw)
    elif rounding == "round":
        per_wu = np.round(raw)
    else:
        raise ValueError(f"unknown rounding {rounding!r}")
    per_wu = np.maximum(per_wu, 1.0)
    limit = np.asarray(nsep, dtype=np.float64)[:, None]
    return np.minimum(per_wu, limit).astype(np.int64)


class WorkUnitPlan:
    """A packaged campaign: per-couple slice sizes and lazy aggregates.

    The plan never materializes individual workunits for aggregate queries;
    each couple contributes at most two distinct workunit durations, so the
    full duration distribution is exact with O(n^2) memory.
    """

    def __init__(self, cost_model: CostModel, policy: PackagingPolicy) -> None:
        self.cost_model = cost_model
        self.policy = policy
        self.nsep = cost_model.nsep
        self.mct = cost_model.mct
        n = cost_model.n_proteins

        rounding = "round" if policy.strategy == "round" else "floor"
        self.per_wu = positions_per_workunit(
            self.mct, self.nsep, policy.target_seconds, rounding
        )
        nsep_col = self.nsep[:, None].astype(np.int64)
        self.counts = -(-nsep_col // self.per_wu)  # ceil division
        #: positions in the last (remainder) slice, in [1, per_wu]
        self.remainders = nsep_col - (self.counts - 1) * self.per_wu

        if policy.strategy == "merge-tail":
            mergeable = (self.counts >= 2) & (
                self.remainders <= policy.merge_tail_fraction * self.per_wu
            )
        else:
            mergeable = np.zeros((n, n), dtype=bool)
        self.merged = mergeable

    # -- aggregate queries (exact, vectorized) ---------------------------

    def total_workunits(self) -> int:
        """Number of workunits the plan generates."""
        return int(self.counts.sum() - self.merged.sum())

    def _duration_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All distinct (duration, multiplicity) pairs, flattened.

        Each couple yields at most two duration values; see the strategy
        definitions in the module docstring.
        """
        mct = self.mct
        if self.policy.strategy == "even":
            # counts preserved, sizes evened: Nsep = count*lo + hi_extra
            nsep_col = self.nsep[:, None].astype(np.int64)
            lo = nsep_col // self.counts
            hi_extra = nsep_col - lo * self.counts  # couples with size lo+1
            d1 = lo * mct
            w1 = self.counts - hi_extra
            d2 = (lo + 1) * mct
            w2 = hi_extra
        else:
            full_w = self.counts - 1
            d1 = self.per_wu * mct
            d2 = self.remainders * mct
            w1 = full_w.copy()
            w2 = np.ones_like(full_w)
            if self.policy.strategy == "merge-tail":
                # merged couples: one full slice absorbs the remainder
                m = self.merged
                w1 = np.where(m, full_w - 1, full_w)
                d2 = np.where(m, (self.per_wu + self.remainders) * mct, d2)
        durations = np.concatenate([d1.ravel(), d2.ravel()])
        weights = np.concatenate([w1.ravel(), w2.ravel()])
        keep = weights > 0
        return durations[keep], weights[keep].astype(np.float64)

    def duration_histogram(
        self, bin_edges: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Workunit-duration histogram (reference seconds) — Figure 4.

        Returns ``(bin_edges, counts)``; durations outside the edges are
        clipped into the terminal bins so the counts sum to the total.
        """
        durations, weights = self._duration_pairs()
        edges = np.asarray(bin_edges, dtype=np.float64)
        clipped = np.clip(durations, edges[0], np.nextafter(edges[-1], 0))
        counts, _ = np.histogram(clipped, bins=edges, weights=weights)
        return edges, counts

    def duration_stats(self) -> dict[str, float]:
        """Weighted stats of the workunit reference durations (seconds)."""
        durations, weights = self._duration_pairs()
        total_w = weights.sum()
        mean = float((durations * weights).sum() / total_w)
        var = float((weights * (durations - mean) ** 2).sum() / total_w)
        return {
            "count": float(total_w),
            "mean": mean,
            "std": float(np.sqrt(var)),
            "min": float(durations.min()),
            "max": float(durations.max()),
        }

    def summary_rows(self) -> list[list[Any]]:
        """(quantity, value) rows: what ``repro-hcmd package`` prints."""
        stats = self.duration_stats()
        return [
            ["target duration",
             f"{self.policy.target_hours:g} h ({self.policy.strategy})"],
            ["workunits", self.total_workunits()],
            ["mean duration", format_duration(stats["mean"])],
            ["max duration", format_duration(stats["max"])],
            ["total reference CPU", str(seconds_to_ydhms(self.total_reference_cpu()))],
        ]

    def total_reference_cpu(self) -> float:
        """Total reference CPU seconds across all workunits.

        Invariant under the packaging strategy: slicing never creates or
        destroys work (equals ``cost_model.total_reference_cpu()``).
        """
        durations, weights = self._duration_pairs()
        return float((durations * weights).sum())

    # -- materialization (for the discrete-event simulations) ------------

    def couple_sizes(self, receptor: int, ligand: int) -> list[int]:
        """Slice sizes (positions per workunit) for one couple, in isep
        order.  Sums exactly to ``Nsep(receptor)`` for every strategy."""
        count = int(self.counts[receptor, ligand])
        per = int(self.per_wu[receptor, ligand])
        rem = int(self.remainders[receptor, ligand])
        if self.policy.strategy == "even":
            total = int(self.nsep[receptor])
            lo = total // count
            hi_extra = total - lo * count
            return [lo + 1] * hi_extra + [lo] * (count - hi_extra)
        sizes = [per] * (count - 1) + [rem]
        if self.policy.strategy == "merge-tail" and self.merged[receptor, ligand]:
            sizes = [per] * (count - 2) + [per + rem]
        return sizes

    def iter_workunits(
        self,
        couples: Iterable[tuple[int, int]] | None = None,
        id_start: int = 0,
    ) -> Iterator[WorkUnit]:
        """Materialize workunits couple by couple (1-based isep slices)."""
        if couples is None:
            n = self.cost_model.n_proteins
            couples = ((i, j) for i in range(n) for j in range(n))
        wu_id = id_start
        for i, j in couples:
            mct = float(self.mct[i, j])
            isep = 1
            for size in self.couple_sizes(i, j):
                yield WorkUnit(
                    wu_id=wu_id,
                    receptor=i,
                    ligand=j,
                    isep_start=isep,
                    nsep=size,
                    cost_reference_s=size * mct,
                )
                wu_id += 1
                isep += size
