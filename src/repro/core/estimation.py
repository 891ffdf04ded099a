"""Total-work estimation and the calibration experiment (Section 4.1).

Before launching on the grid, the total workload is estimated with
formula (1):

    T_total = sum_{p1, p2 in P} Nsep(p1) * 21 * ct_iter(p1, p2)

where ``ct_iter`` comes from a one-day calibration campaign on a dedicated
grid (Grid'5000: 640 Opteron 2 GHz processors, all 168^2 couples sampled,
~73 CPU-days consumed).  This module reproduces both the estimate and the
calibration campaign itself (on the simulated dedicated grid the sampling
plan is executed by :mod:`repro.dedicated`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import constants
from ..maxdo.cost_model import CostModel
from ..maxdo.resultfile import BYTES_PER_LINE
from ..proteins.library import ProteinLibrary
from ..units import SECONDS_PER_DAY, format_bytes, seconds_to_ydhms

__all__ = [
    "EstimateReport",
    "estimate_total_work",
    "CalibrationPlan",
    "calibration_experiment",
]


@dataclass(frozen=True)
class EstimateReport:
    """Everything Section 4.1 derives before packaging."""

    n_proteins: int
    total_reference_cpu_s: float
    max_workunits: int
    result_lines: int
    result_bytes: int

    @property
    def total_ydhms(self) -> str:
        """The paper's headline figure, e.g. ``1,488:237:19:45:54``."""
        return str(seconds_to_ydhms(self.total_reference_cpu_s))

    def rows(self) -> list[list[Any]]:
        """(quantity, value) rows: what ``repro-hcmd estimate`` prints."""
        return [
            ["proteins", self.n_proteins],
            ["total reference CPU (y:d:h:m:s)", self.total_ydhms],
            ["maximum workunits", self.max_workunits],
            ["result dataset", format_bytes(self.result_bytes)],
        ]


def estimate_total_work(
    library: ProteinLibrary, cost_model: CostModel
) -> EstimateReport:
    """Apply formula (1) and derive the campaign-scale quantities."""
    total = cost_model.total_reference_cpu()
    max_wu = library.total_max_workunits
    # One result line per (isep, orientation couple) optimum.
    lines = int(library.nsep.sum()) * len(library) * constants.N_ROT_COUPLES
    return EstimateReport(
        n_proteins=len(library),
        total_reference_cpu_s=total,
        max_workunits=max_wu,
        result_lines=lines,
        result_bytes=lines * BYTES_PER_LINE,
    )


@dataclass(frozen=True)
class CalibrationPlan:
    """The Grid'5000 calibration campaign: one sample per couple.

    ``samples_per_couple`` is the number of orientation-couple evaluations
    measured per couple (at one starting position); the slope of the linear
    model then predicts everything else.  The paper's campaign consumed
    ~73 CPU-days on 640 processors within a one-day reservation.
    """

    n_couples: int
    samples_per_couple: int
    n_processors: int
    cpu_seconds: float
    longest_task_s: float

    @property
    def cpu_days(self) -> float:
        return self.cpu_seconds / SECONDS_PER_DAY

    @property
    def makespan_lower_bound_s(self) -> float:
        """LPT-style bound: max(total/p, longest single task)."""
        return max(self.cpu_seconds / self.n_processors, self.longest_task_s)

    @property
    def fits_in_reservation(self) -> bool:
        """Whether the bound fits the paper's one-day reservation."""
        return self.makespan_lower_bound_s <= SECONDS_PER_DAY


def calibration_experiment(
    cost_model: CostModel,
    n_processors: int = constants.CALIBRATION_PROCESSORS,
    samples_per_couple: int = 7,
) -> tuple[CalibrationPlan, np.ndarray]:
    """Plan and "run" the calibration campaign.

    Returns the plan and the *recovered* ``Mct`` matrix: per-couple measured
    time divided by the sampled fraction — what the packaging layer would
    have used, had it only seen the measurements.  With the default 7
    orientation-couple samples per couple the campaign consumes ~73 CPU-days
    for the phase-1 matrix, matching the paper's figure.
    """
    if samples_per_couple < 1:
        raise ValueError("need at least one sample per couple")
    n = cost_model.n_proteins
    measured = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            measured[i, j] = cost_model.measured_ct(i, j, 1, samples_per_couple)
    recovered = measured * (cost_model.n_couples / samples_per_couple)
    plan = CalibrationPlan(
        n_couples=n * n,
        samples_per_couple=samples_per_couple,
        n_processors=n_processors,
        cpu_seconds=float(measured.sum()),
        longest_task_s=float(measured.max()),
    )
    return plan, recovered
