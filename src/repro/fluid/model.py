"""Week-by-week fluid integration of a volunteer campaign.

State per week ``w``:

* **supply** — VFTP dedicated to the project: share schedule x WCG trend
  (Figure 6a), consumed CPU = VFTP x week-seconds;
* **efficiency** — useful reference work = consumed / (net speed-down x
  redundancy(w)); redundancy follows the two validation regimes of
  Section 5.1 (quorum comparison early, value-range checks later);
* **drain** — useful work flows through the receptor batches in release
  order (protein after protein, Section 5.1), giving the progression
  snapshots of Figure 7;
* **results** — disclosed results = consumed / mean device time per
  result; useful results = useful work / mean workunit cost (Figure 6b).

The model's self-consistency mirrors the paper's: with the paper's share
schedule and efficiency constants, total consumption over 26 weeks lands at
~8,082 CPU-years = 5.43 x the 1,488-year reference estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants
from ..core.campaign import CampaignPlan, ProgressionSnapshot
from ..core.metrics import CampaignMetrics
from ..grid.population import ShareSchedule, WCGPopulationModel, hcmd_share_schedule
from ..units import SECONDS_PER_WEEK

__all__ = ["FluidCampaign", "FluidResult"]

#: Redundancy of the quorum-comparison regime: two copies per workunit plus
#: a few percent of invalid/late extras.
REDUNDANCY_QUORUM = 2.05

#: Redundancy of the value-range regime: one copy plus invalid results,
#: deadline reissues that both return, and late arrivals.
REDUNDANCY_BOUNDS = 1.12


@dataclass
class FluidResult:
    """Weekly series and aggregates of one fluid campaign run."""

    weeks: np.ndarray  #: week indices (0-based)
    vftp: np.ndarray  #: project VFTP per week (Figure 6a)
    consumed_cpu_s: np.ndarray  #: device CPU consumed per week
    useful_reference_s: np.ndarray  #: validated reference work per week
    results_disclosed: np.ndarray  #: results received per week (Figure 6b)
    results_useful: np.ndarray  #: useful results per week (Figure 6b)
    completion_week: float | None  #: fractional week the work ran out
    total_work: float

    @property
    def cumulative_work_fraction(self) -> np.ndarray:
        return np.minimum(np.cumsum(self.useful_reference_s) / self.total_work, 1.0)

    def metrics(self, first_week: int = 0, last_week: int | None = None) -> CampaignMetrics:
        """Aggregate metrics over ``[first_week, last_week)`` (Table 2)."""
        sl = slice(first_week, last_week)
        n_weeks = len(self.weeks[sl])
        if n_weeks == 0:
            raise ValueError("empty week range")
        return CampaignMetrics(
            span_seconds=n_weeks * SECONDS_PER_WEEK,
            consumed_cpu_s=float(self.consumed_cpu_s[sl].sum()),
            useful_reference_cpu_s=float(self.useful_reference_s[sl].sum()),
            results_disclosed=int(round(self.results_disclosed[sl].sum())),
            results_effective=int(round(self.results_useful[sl].sum())),
        )

    @property
    def overall_redundancy(self) -> float:
        return float(self.results_disclosed.sum() / self.results_useful.sum())

    @property
    def useful_fraction(self) -> float:
        return float(self.results_useful.sum() / self.results_disclosed.sum())


class FluidCampaign:
    """Full-scale analytic campaign integrator."""

    def __init__(
        self,
        campaign: CampaignPlan,
        mean_workunit_reference_s: float,
        share_schedule: ShareSchedule | None = None,
        population: WCGPopulationModel | None = None,
        speed_down_net: float = constants.SPEED_DOWN_NET,
        redundancy_quorum: float = REDUNDANCY_QUORUM,
        redundancy_bounds: float = REDUNDANCY_BOUNDS,
        validation_switch_week: float = 16.0,
        supply_scale: float = 1.0,
        supply: "callable | None" = None,
    ) -> None:
        if mean_workunit_reference_s <= 0:
            raise ValueError("mean workunit cost must be positive")
        self.campaign = campaign
        self.mean_wu_s = mean_workunit_reference_s
        self.share_schedule = (
            share_schedule if share_schedule is not None else hcmd_share_schedule()
        )
        self.population = (
            population if population is not None else WCGPopulationModel.calibrated()
        )
        self.speed_down_net = speed_down_net
        self.redundancy_quorum = redundancy_quorum
        self.redundancy_bounds = redundancy_bounds
        self.validation_switch_week = validation_switch_week
        if supply_scale <= 0:
            raise ValueError("supply_scale must be positive")
        #: scales the VFTP supply; use total_work(scaled)/total_work(full)
        #: to integrate a reduced campaign under a matched supply (the
        #: DES-vs-fluid cross-validation).
        self.supply_scale = supply_scale
        #: optional override: a callable week -> VFTP replacing the
        #: share x population supply (e.g. the constant-VFTP scenarios of
        #: the phase-II projection).
        self._supply_override = supply

    # -- components --------------------------------------------------------

    def supply_vftp(self, week: np.ndarray | float) -> np.ndarray | float:
        """Project VFTP at project week ``week`` (Figure 6a's curve)."""
        week_arr = np.asarray(week, dtype=np.float64)
        if self._supply_override is not None:
            out = self.supply_scale * np.asarray(
                self._supply_override(week_arr), dtype=np.float64
            )
            return out if out.ndim else float(out)
        day = constants.WCG_LAUNCH_TO_HCMD_DAYS + 7.0 * week_arr
        out = (
            self.supply_scale
            * np.asarray(self.share_schedule.share(week_arr))
            * np.asarray(self.population.vftp(day))
        )
        return out if out.ndim else float(out)

    def redundancy(self, week: float) -> float:
        """Redundancy factor of the validation regime active at ``week``."""
        if week < self.validation_switch_week:
            return self.redundancy_quorum
        return self.redundancy_bounds

    @property
    def mean_device_seconds_per_result(self) -> float:
        """Mean device time per result: workunit cost x net speed-down
        (the paper's ~13 h for ~3.3 h workunits)."""
        return self.mean_wu_s * self.speed_down_net

    # -- integration ---------------------------------------------------------

    def run(self, max_weeks: int = 60, substeps: int = 7) -> FluidResult:
        """Integrate until the work drains or ``max_weeks`` elapse."""
        total = self.campaign.total_work
        weeks = np.arange(max_weeks)
        vftp = np.zeros(max_weeks)
        consumed = np.zeros(max_weeks)
        useful = np.zeros(max_weeks)
        done = 0.0
        completion: float | None = None
        dt = SECONDS_PER_WEEK / substeps
        for w in range(max_weeks):
            week_consumed = 0.0
            week_useful = 0.0
            for s in range(substeps):
                if completion is not None:
                    break
                t_week = w + (s + 0.5) / substeps
                supply = float(self.supply_vftp(t_week))
                step_consumed = supply * dt
                rate = self.speed_down_net * self.redundancy(t_week)
                step_useful = step_consumed / rate
                if done + step_useful >= total:
                    # partial final step: only the needed fraction consumed
                    frac = (total - done) / step_useful
                    step_useful = total - done
                    step_consumed *= frac
                    completion = w + (s + frac) / substeps
                done += step_useful
                week_consumed += step_consumed
                week_useful += step_useful
            vftp[w] = week_consumed / SECONDS_PER_WEEK
            consumed[w] = week_consumed
            useful[w] = week_useful
            if completion is not None:
                vftp = vftp[: w + 1]
                consumed = consumed[: w + 1]
                useful = useful[: w + 1]
                weeks = weeks[: w + 1]
                break
        results_disclosed = consumed / self.mean_device_seconds_per_result
        results_useful = useful / self.mean_wu_s
        return FluidResult(
            weeks=weeks,
            vftp=vftp,
            consumed_cpu_s=consumed,
            useful_reference_s=useful,
            results_disclosed=results_disclosed,
            results_useful=results_useful,
            completion_week=completion,
            total_work=total,
        )

    def snapshot_at_week(self, result: FluidResult, week: float) -> ProgressionSnapshot:
        """Figure 7 progression snapshot at fractional project ``week``."""
        if week < 0:
            raise ValueError("week must be non-negative")
        full = int(np.floor(week))
        done = float(result.useful_reference_s[:full].sum())
        if full < len(result.useful_reference_s):
            done += (week - full) * float(result.useful_reference_s[full])
        return self.campaign.snapshot(done)
