"""Typed campaign configuration.

:class:`VolunteerGridSimulation` historically grew a 16-keyword
constructor — one loose argument per knob, with the relationships between
them (which defaults imply which, what a fault plan changes where)
documented nowhere the type checker could see.  :class:`CampaignConfig`
consolidates the knobs into one frozen dataclass that nests the other
policy objects (:class:`~repro.core.packaging.PackagingPolicy`,
:class:`~repro.boinc.server.ServerConfig`,
:class:`~repro.faults.FaultPlan`)::

    from repro import CampaignConfig, FaultPlan, scaled_phase1

    cfg = CampaignConfig(
        seed=7,
        horizon_weeks=30.0,
        faults=FaultPlan.from_spec("corrupt=0.1,outage=2x12"),
    )
    result = scaled_phase1(scale=300, n_proteins=10, config=cfg).run()

``None`` fields mean "use the calibrated phase-I default" (resolved by
the simulation — :meth:`repro.boinc.fleet.FleetSpec.resolve` for the
fleet fields — not here, so a config stays a pure value object).
:func:`~repro.boinc.simulator.scaled_phase1` folds extra keyword
arguments into the config by field name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from .. import constants
from ..core.packaging import PackagingPolicy
from ..faults import FaultPlan
from .credit import AccountingMode
from .server import ServerConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..grid.host import HostPopulationModel
    from ..grid.population import ShareSchedule, WCGPopulationModel
    from .sharding import ShardPlan

__all__ = ["CampaignConfig"]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that configures a volunteer-grid campaign, in one value.

    All fields default to the calibrated phase-I behaviour; ``None``
    means "let the simulation pick its default".  Instances are frozen —
    derive variants with :meth:`with_`.
    """

    #: workunit packaging (None = deployed ~3.65 h workunits)
    packaging: PackagingPolicy | None = None
    #: grid-server policy (None = quorum->bounds switch at week 16)
    server: ServerConfig | None = None
    #: fault-injection plan; the default empty plan injects nothing and
    #: keeps the campaign bit-identical to a fault-free one
    faults: FaultPlan = FaultPlan.none()
    #: volunteer host population (None = calibrated HostPopulationModel)
    host_model: "HostPopulationModel | None" = None
    #: HCMD share-of-grid schedule (None = hcmd_share_schedule())
    share_schedule: "ShareSchedule | None" = None
    #: WCG fleet growth trend (None = WCGPopulationModel.calibrated())
    population: "WCGPopulationModel | None" = None
    #: peak host count (None = auto-sized for a ~26-week campaign)
    n_hosts_peak: int | None = None
    #: simulated horizon, weeks
    horizon_weeks: float = 40.0
    #: campaign shrink factor vs real phase I
    scale: float = 1.0
    #: campaign seed (all substreams derive from it)
    seed: int = constants.DEFAULT_SEED
    #: credit accounting mode (None = phase I's UD wall-clock accounting)
    accounting: AccountingMode | None = None
    #: receptor release order ("least-cost" | "largest-first" | "library")
    release_policy: str = "least-cost"
    #: shard the campaign into K independent server+DES slices merged
    #: afterward (None or ``ShardPlan(n_shards=1)`` = one monolithic run;
    #: see :mod:`repro.boinc.sharding`)
    shards: "ShardPlan | None" = None

    def __post_init__(self) -> None:
        if self.horizon_weeks <= 0:
            raise ValueError("horizon_weeks must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def with_(self, **overrides: Any) -> "CampaignConfig":
        """A copy with fields replaced."""
        return replace(self, **overrides)
