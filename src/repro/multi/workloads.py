"""Campaign workload models: what a campaign actually computes.

The multi-campaign grid hosts heterogeneous science.  A *workload* is the
pure, frozen description of one campaign's computation; ``build()``
materializes it into a :class:`~repro.boinc.simulator.RuntimeSpec`, the
one record of a built campaign:

* :class:`CrossDockingWorkload` — the HCMD phase-I shape: an all-pairs
  protein cross-docking matrix, released receptor batch by receptor
  batch in least-cost order.  ``build()`` hands its plans to
  :meth:`RuntimeSpec.cross_docking <repro.boinc.simulator.RuntimeSpec.cross_docking>`,
  the builder :func:`repro.boinc.simulator.scaled_phase1` uses too.
* :class:`ScreeningWorkload` — the WISDOM-style on-demand virtual
  screening shape: one target receptor docked against a ligand database,
  with per-workunit costs drawn from a lognormal ligand-difficulty model
  (docking times across a compound library are heavy-tailed; the
  lognormal is the standard fit).  Ligands ship in fixed-size batches,
  the unit the result store segments on.

Both builds are pure functions of ``(workload, seed, server_config,
wu_id_base)`` — the same arguments always yield the same workunit list,
which is what the deterministic-replay and mid-run-admission guarantees
of :mod:`repro.multi.engine` rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .. import constants
from ..boinc.server import ServerConfig
from ..boinc.simulator import RuntimeSpec
from ..core.campaign import CampaignPlan
from ..core.packaging import PackagingPolicy, WorkUnitPlan
from ..core.workunit import WorkUnit
from ..maxdo.cost_model import CostModel
from ..proteins.library import ProteinLibrary
from ..rng import substream
from ..store.format import result_bytes
from ..units import SECONDS_PER_HOUR

__all__ = [
    "CrossDockingWorkload",
    "ScreeningWorkload",
    "Workload",
]


@dataclass(frozen=True)
class CrossDockingWorkload:
    """The HCMD phase-I cross-docking matrix, shrunk by ``scale``.

    ``n_proteins`` proteins keep the phase-1 per-protein statistics; the
    per-protein position counts divide by ``scale``; packaging uses the
    deployed ~3.65 h workunits unless ``packaging`` overrides it.  The
    triple ``(workload, seed)`` fully determines the workunit list —
    identical to what ``scaled_phase1(scale, n_proteins, seed)`` has
    always produced.
    """

    scale: float = 200.0
    n_proteins: int = 24
    target_hours: float = 3.65
    #: receptor release order ("least-cost" | "largest-first" | "library")
    release_policy: str = "least-cost"
    packaging: PackagingPolicy | None = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.n_proteins < 2:
            raise ValueError("cross-docking needs at least 2 proteins")

    def library_and_costs(self, seed: int) -> tuple[ProteinLibrary, CostModel]:
        """The calibrated synthetic library + cost model for ``seed``."""
        sum_nsep = max(
            self.n_proteins,
            round(
                constants.SUM_NSEP * self.n_proteins
                / constants.N_PROTEINS / self.scale
            ),
        )
        library = ProteinLibrary.synthetic(
            n_proteins=self.n_proteins, sum_nsep=sum_nsep, seed=seed
        )
        return library, CostModel.calibrated(library, seed=seed)

    def build(
        self, seed: int, server_config: ServerConfig, wu_id_base: int = 0
    ) -> RuntimeSpec:
        """Materialize the campaign's workunits in release order."""
        library, cost_model = self.library_and_costs(seed)
        packaging = (
            self.packaging
            if self.packaging is not None
            else PackagingPolicy(target_hours=self.target_hours)
        )
        return RuntimeSpec.cross_docking(
            CampaignPlan(library, cost_model, policy=self.release_policy),
            WorkUnitPlan(cost_model, packaging), server_config, self.scale,
            id_base=wu_id_base,
        )


@dataclass(frozen=True)
class ScreeningWorkload:
    """On-demand ligand-database virtual screening (WISDOM-style).

    One target receptor, ``n_ligands`` database compounds; each workunit
    docks one ligand.  Per-ligand docking cost is lognormal around
    ``mean_hours`` with shape ``sigma`` (heavy-tailed compound-difficulty
    model), drawn from the dedicated ``screening`` substream of the grid
    seed — independent of every other random component.  Ligands ship in
    batches of ``batch_size`` (the result-store segment unit).
    """

    n_ligands: int = 2_000
    mean_hours: float = 1.5
    sigma: float = 0.6
    batch_size: int = 100
    #: poses retained per ligand in the shipped result file
    poses_per_ligand: int = 10
    #: checkpoint granularity: starting positions per screening workunit
    n_checkpoints: int = 8

    def __post_init__(self) -> None:
        if self.n_ligands < 1:
            raise ValueError("a screening campaign needs at least 1 ligand")
        if self.mean_hours <= 0:
            raise ValueError("mean_hours must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def build(
        self, seed: int, server_config: ServerConfig, wu_id_base: int = 0
    ) -> RuntimeSpec:
        """Materialize one workunit per ligand, costs from the lognormal."""
        rng = substream(seed, "screening", wu_id_base)
        mean_s = self.mean_hours * SECONDS_PER_HOUR
        # lognormal parameterized so the *mean* (not the median) is mean_s
        mu = np.log(mean_s) - 0.5 * self.sigma**2
        costs = np.exp(rng.normal(mu, self.sigma, size=self.n_ligands))
        workunits = [
            (
                WorkUnit(
                    wu_id=wu_id_base + i,
                    receptor=0,  # the single screening target
                    ligand=i,
                    isep_start=1,
                    nsep=self.n_checkpoints,
                    cost_reference_s=float(cost),
                ),
                i // self.batch_size,
            )
            for i, cost in enumerate(costs)
        ]
        n_batches = (self.n_ligands + self.batch_size - 1) // self.batch_size
        batch_rows = [
            min(self.batch_size, self.n_ligands - b * self.batch_size)
            * self.poses_per_ligand
            for b in range(n_batches)
        ]
        return RuntimeSpec(
            workunits=workunits,
            batch_bytes=[result_bytes(rows, 1) for rows in batch_rows],
            server_config=server_config,
            release_order=np.arange(n_batches),
            total_reference_s=float(costs.sum()),
            id_base=wu_id_base,
        )


#: Anything a :class:`repro.multi.Campaign` may compute.
Workload = Union[CrossDockingWorkload, ScreeningWorkload]
