"""Campaign planning: release order and progression accounting.

"The World Community Grid team decided to launch the workunit of one protein
after an other.  They also decided to first launch the protein that required
less computing time" (Section 5.1) — easier failure detection early, and
newer/faster devices absorb the expensive proteins later.

The release unit is a *receptor batch*: all couples ``(p, *)`` of one
receptor protein ``p``.  Results ship back to the scientists "when one
protein has been docked with the 168 others" (Section 5.2).

This module orders the batches, exposes per-batch work totals, and converts
"useful work done so far" into the per-protein progression curve of
Figure 7 (where 85% of the proteins docked corresponds to only 47% of the
computation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import constants
from ..maxdo.cost_model import CostModel
from ..proteins.library import ProteinLibrary
from .workunit import WorkUnit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .packaging import WorkUnitPlan

__all__ = ["CampaignPlan", "ProgressionSnapshot"]


@dataclass(frozen=True)
class ProgressionSnapshot:
    """Per-protein completion state at one instant (Figure 7).

    ``fractions`` follows the release order: entry ``k`` is the completed
    fraction of the ``k``-th *released* protein batch.
    """

    work_fraction: float  #: fraction of total useful work done
    fractions: np.ndarray  #: per-batch completion in release order

    @property
    def proteins_complete(self) -> int:
        # Tolerate cumulative-sum rounding when the campaign is exactly done.
        return int((self.fractions >= 1.0 - 1e-9).sum())

    @property
    def protein_fraction_complete(self) -> float:
        """Fraction of proteins fully docked — the Figure 7 X-axis anchor."""
        return self.proteins_complete / len(self.fractions)


class CampaignPlan:
    """Receptor-batch release schedule over a cost model.

    The paper's deployment released the cheapest receptor first
    (``least-cost``, the default): failures surface early on fast-turnaround
    batches and the ever-growing fleet absorbs the expensive proteins
    later.  Alternative policies back the scheduling ablation:

    * ``largest-first`` — LPT-style, classically good for makespan but the
      opposite of the paper's early-feedback goal;
    * ``index`` — natural library order (no policy);
    * ``random`` — seeded shuffle.
    """

    POLICIES = ("least-cost", "largest-first", "index", "random")

    def __init__(
        self,
        library: ProteinLibrary,
        cost_model: CostModel,
        policy: str = "least-cost",
    ) -> None:
        if len(library) != cost_model.n_proteins:
            raise ValueError("library and cost model sizes differ")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown release policy {policy!r}")
        self.library = library
        self.cost_model = cost_model
        self.policy = policy
        #: reference CPU seconds of each receptor batch (all its couples)
        self.batch_work = (
            library.nsep.astype(np.float64) * cost_model.mct.sum(axis=1)
        )
        #: receptor indices in release order
        self.release_order = self._order(policy)
        self._ordered_work = self.batch_work[self.release_order]
        self._cum_work = np.concatenate([[0.0], np.cumsum(self._ordered_work)])

    def _order(self, policy: str) -> np.ndarray:
        if policy == "least-cost":
            return np.argsort(self.batch_work, kind="stable")
        if policy == "largest-first":
            return np.argsort(-self.batch_work, kind="stable")
        if policy == "index":
            return np.arange(len(self.library))
        from ..rng import stream

        rng = stream(self.library.seed, "release-order")
        return rng.permutation(len(self.library))

    @property
    def total_work(self) -> float:
        """Total reference CPU seconds (formula (1))."""
        return float(self._cum_work[-1])

    def batch_release_fraction(self, k: int) -> float:
        """Fraction of total work contained in the first ``k`` batches."""
        if not 0 <= k <= len(self.library):
            raise ValueError(f"k out of range: {k}")
        return float(self._cum_work[k] / self.total_work)

    def ordered_couples(
        self, batch_lo: int = 0, batch_hi: int | None = None
    ) -> list[tuple[int, int]]:
        """Couples in release order: batch by batch, ligands in index
        order — the order workunits become available on the server.

        ``batch_lo``/``batch_hi`` select a contiguous release-position
        range of receptor batches (a campaign shard materializes only its
        own slice instead of the full couple list); the default is the
        whole campaign.
        """
        n = len(self.library)
        if batch_hi is None:
            batch_hi = n
        if not 0 <= batch_lo <= batch_hi <= n:
            raise ValueError(
                f"batch range [{batch_lo}, {batch_hi}) outside [0, {n}]"
            )
        return [
            (int(r), j)
            for r in self.release_order[batch_lo:batch_hi]
            for j in range(n)
        ]

    def batch_rows(self) -> list[int]:
        """Result rows each receptor batch ships, by release position: one
        per (position, orientation couple) against every ligand."""
        n = len(self.library)
        return [
            int(self.library.nsep[int(r)]) * n * constants.N_ROT_COUPLES
            for r in self.release_order
        ]

    def materialize(
        self,
        plan: "WorkUnitPlan",
        batch_lo: int = 0,
        batch_hi: int | None = None,
        wu_id_base: int = 0,
    ) -> list[tuple[WorkUnit, int]]:
        """The ``(workunit, batch)`` list of a release-position range, in
        release order.

        The one materializer behind the single-campaign engine, its
        shards and the multi-campaign cross-docking workload
        (:meth:`batch_rows` prices what each batch ships).  Workunit ids
        count up from ``wu_id_base`` and batch indices are release
        positions, both campaign-global whatever the range.
        """
        n = len(self.library)
        workunits: list[tuple[WorkUnit, int]] = []
        wu_id = wu_id_base
        couples = self.ordered_couples(batch_lo, batch_hi)
        for pos, couple in enumerate(couples, start=batch_lo * n):
            batch = pos // n
            for wu in plan.iter_workunits([couple], id_start=wu_id):
                workunits.append((wu, batch))
                wu_id += 1
        return workunits

    def snapshot(self, work_done: float) -> ProgressionSnapshot:
        """Progression after ``work_done`` reference seconds of useful work.

        Work is modeled as flowing through the batches in release order
        (the server drains one receptor batch before the next), which is
        how the protein-after-protein launch behaves at fluid scale.
        """
        work_done = float(np.clip(work_done, 0.0, self.total_work))
        fractions = np.clip(
            (work_done - self._cum_work[:-1]) / self._ordered_work, 0.0, 1.0
        )
        return ProgressionSnapshot(
            work_fraction=work_done / self.total_work, fractions=fractions
        )

    def cumulative_percent_curve(
        self, work_done: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Figure 7 rendering: X = protein rank (release order),
        Y = cumulative percentage of total computation up to that protein,
        split into computed and remaining parts via the snapshot."""
        snap = self.snapshot(work_done)
        cum_pct = self._cum_work[1:] / self.total_work * 100.0
        done_pct = (
            np.cumsum(self._ordered_work * snap.fractions) / self.total_work * 100.0
        )
        return cum_pct, done_pct

    def work_at_protein_fraction(self, protein_fraction: float) -> float:
        """Useful-work fraction when ``protein_fraction`` of the proteins
        are complete — the Figure 7 anchor (85% proteins -> 47% work)."""
        if not 0.0 <= protein_fraction <= 1.0:
            raise ValueError("protein_fraction must be in [0, 1]")
        k = int(round(protein_fraction * len(self.library)))
        return self.batch_release_fraction(k)
