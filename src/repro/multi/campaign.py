"""First-class campaign and grid specifications.

The paper's HCMD run never had World Community Grid to itself: the grid
hosted several projects at once and divided volunteer capacity between
them, moving HCMD through a control period, a prioritization ramp and a
full-power phase (Section 5.1).  :class:`Campaign` and
:class:`GridConfig` make that multi-project reality first-class:

* a :class:`Campaign` is one project — a name, a workload
  (:mod:`repro.multi.workloads`), scheduling inputs (weight, priority,
  quota) and a lifecycle (submit/drain weeks);
* a :class:`GridConfig` is the shared substrate — the host population,
  the horizon, the scheduling policy — plus the campaign roster.

Both are frozen value objects; :class:`repro.multi.MultiGridSimulation`
turns a :class:`GridConfig` into a running grid.  The single-campaign
classes (:class:`repro.CampaignConfig`, :func:`repro.scaled_phase1`)
are thin adapters over this layer — a grid with exactly one registered
cross-docking campaign reproduces the single-campaign engine exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from .. import constants
from ..boinc.server import ServerConfig
from ..faults import FaultPlan
from .workloads import CrossDockingWorkload, ScreeningWorkload, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..boinc.credit import AccountingMode
    from ..grid.host import HostPopulationModel
    from ..grid.population import ShareSchedule, WCGPopulationModel

__all__ = ["Campaign", "GridConfig", "POLICIES"]

#: the pluggable scheduling policies (see :mod:`repro.multi.policies`)
POLICIES = ("fair-share", "strict-priority", "weighted-lottery")


@dataclass(frozen=True)
class Campaign:
    """One project on the grid: workload + scheduling + lifecycle.

    ``weight`` is the fair-share / lottery share; ``weight_schedule``
    optionally replaces it with a step function of the project week
    (``((0, 0.07), (9, 0.45))`` = 7% until week 9, then 45%) — exactly
    how WCG moved HCMD through its three phases.  ``priority`` only
    matters under the strict-priority policy (higher wins).
    ``quota_fraction`` caps the campaign's share of all issued reference
    work; over-quota campaigns are only served when nobody under quota
    has issuable work.  ``submit_week``/``drain_week`` bound the
    campaign's lifetime on the grid: it is admitted at ``submit_week``
    and stops receiving new issues at ``drain_week`` (outstanding
    results are still accepted and validated).
    """

    name: str
    workload: Workload
    weight: float = 1.0
    priority: int = 0
    quota_fraction: float | None = None
    submit_week: float = 0.0
    drain_week: float | None = None
    #: ``((week, weight), ...)`` steps, overriding ``weight`` when set
    weight_schedule: tuple[tuple[float, float], ...] | None = None
    #: per-campaign server policy (None = the calibrated phase-I default)
    server: ServerConfig | None = None

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or "," in self.name:
            raise ValueError(
                f"campaign name must be non-empty without '/' or ',': "
                f"{self.name!r}"
            )
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.quota_fraction is not None and not 0 < self.quota_fraction <= 1:
            raise ValueError("quota_fraction must be in (0, 1]")
        if self.submit_week < 0:
            raise ValueError("submit_week must be non-negative")
        if self.drain_week is not None and self.drain_week <= self.submit_week:
            raise ValueError("drain_week must come after submit_week")
        if self.weight_schedule is not None:
            weeks_ = [w for w, _ in self.weight_schedule]
            if not self.weight_schedule or weeks_ != sorted(weeks_):
                raise ValueError(
                    "weight_schedule must be non-empty (week, weight) "
                    "steps in increasing week order"
                )
            if any(wt <= 0 for _, wt in self.weight_schedule):
                raise ValueError("scheduled weights must be positive")

    # -- constructors ------------------------------------------------------

    @classmethod
    def cross_docking(
        cls,
        name: str = "hcmd",
        *,
        scale: float = 200.0,
        n_proteins: int = 24,
        target_hours: float = 3.65,
        release_policy: str = "least-cost",
        **kwargs: Any,
    ) -> "Campaign":
        """An HCMD-style all-pairs cross-docking campaign."""
        return cls(
            name=name,
            workload=CrossDockingWorkload(
                scale=scale,
                n_proteins=n_proteins,
                target_hours=target_hours,
                release_policy=release_policy,
            ),
            **kwargs,
        )

    @classmethod
    def screening(
        cls,
        name: str = "screening",
        *,
        n_ligands: int = 2_000,
        mean_hours: float = 1.5,
        sigma: float = 0.6,
        batch_size: int = 100,
        **kwargs: Any,
    ) -> "Campaign":
        """A WISDOM-style ligand-database virtual-screening campaign."""
        return cls(
            name=name,
            workload=ScreeningWorkload(
                n_ligands=n_ligands,
                mean_hours=mean_hours,
                sigma=sigma,
                batch_size=batch_size,
            ),
            **kwargs,
        )

    # -- scheduling inputs -------------------------------------------------

    def weight_at(self, week: float) -> float:
        """The campaign's scheduling weight at project ``week``."""
        if self.weight_schedule is None:
            return self.weight
        current = self.weight_schedule[0][1]
        for step_week, step_weight in self.weight_schedule:
            if week >= step_week:
                current = step_weight
            else:
                break
        return current

    def with_(self, **overrides: Any) -> "Campaign":
        """A copy with fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class GridConfig:
    """The shared grid substrate plus its campaign roster.

    Grid-level fields mirror the single-campaign
    :class:`repro.CampaignConfig` knobs that belong to the *grid* rather
    than to any one project: the volunteer fleet, the horizon, the seed
    every substream derives from, and the scheduling policy dividing
    capacity between the registered campaigns.
    """

    campaigns: tuple[Campaign, ...]
    #: capacity-division policy (one of :data:`POLICIES`)
    policy: str = "fair-share"
    seed: int = constants.DEFAULT_SEED
    horizon_weeks: float = 40.0
    #: peak host count (None = auto-sized from the total registered work)
    n_hosts_peak: int | None = None
    #: grid share-of-WCG schedule (None = hcmd_share_schedule()); a fixed
    #: host population wants a constant schedule — see
    #: :func:`repro.multi.scenario.constant_share`
    share_schedule: "ShareSchedule | None" = None
    #: WCG fleet growth trend (None = WCGPopulationModel.calibrated())
    population: "WCGPopulationModel | None" = None
    #: volunteer host population model (None = calibrated default)
    host_model: "HostPopulationModel | None" = None
    #: credit accounting mode (None = phase I's UD wall-clock accounting)
    accounting: "AccountingMode | None" = None
    #: grid-level fault injection (host crashes, corruption, sabotage,
    #: server outages — shared infrastructure, so outage windows derived
    #: from the plan hit every campaign's server)
    faults: FaultPlan = field(default_factory=FaultPlan.none)

    def __post_init__(self) -> None:
        if not self.campaigns:
            raise ValueError("a grid needs at least one campaign")
        names = [c.name for c in self.campaigns]
        if len(set(names)) != len(names):
            raise ValueError(f"campaign names must be unique, got {names}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; pick one of {POLICIES}"
            )
        if self.horizon_weeks <= 0:
            raise ValueError("horizon_weeks must be positive")
        for c in self.campaigns:
            if c.submit_week >= self.horizon_weeks:
                raise ValueError(
                    f"campaign {c.name!r} is submitted at week "
                    f"{c.submit_week}, past the {self.horizon_weeks}-week "
                    "horizon"
                )

    def campaign(self, name: str) -> Campaign:
        """The registered campaign called ``name``."""
        for c in self.campaigns:
            if c.name == name:
                return c
        raise KeyError(f"no campaign named {name!r}")

    def with_(self, **overrides: Any) -> "GridConfig":
        """A copy with fields replaced."""
        return replace(self, **overrides)
