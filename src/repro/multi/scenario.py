"""Canonical multi-campaign scenarios.

The centerpiece is :func:`three_phase_scenario` — the paper's Section
5.1 prioritization story recast as an explicit scheduling decision.  On
the real World Community Grid, HCMD's three phases were *capacity
shares*: a ~9-week control period at ~7% of the grid, a ~4-week
prioritization ramp, then the full-power phase at 45%.  Here the same
trajectory is an HCMD cross-docking campaign whose fair-share weight
steps through exactly those shares while a background screening
campaign holds the complement — the grid's fleet is **fixed**, and all
throughput movement comes from the scheduler, which is what makes the
phase-II throughput inflection attributable to prioritization alone
(the claim ``tests/test_multicampaign.py`` checks).
"""

from __future__ import annotations

from .. import constants
from ..grid.population import ShareSchedule, WCGPopulationModel
from .campaign import Campaign, GridConfig

__all__ = [
    "constant_share",
    "flat_population",
    "three_phase_weights",
    "three_phase_scenario",
]


def constant_share(share: float = constants.PEAK_PROJECT_SHARE) -> ShareSchedule:
    """A share schedule pinned at ``share`` for all weeks.

    Encoded as a degenerate ramp from ``share`` to ``share`` over one
    week, which the piecewise evaluation renders as exactly ``share``
    everywhere without a zero-length-ramp division.
    """
    return ShareSchedule(
        control_weeks=0.0, ramp_weeks=1.0,
        control_share=share, full_share=share,
    )


def flat_population(vftp: float = 60_000.0) -> WCGPopulationModel:
    """A WCG population model whose trend is constant at ``vftp``.

    The logistic midpoint is pushed far into the past, so the curve sits
    on its ceiling over any simulated horizon — combined with
    :func:`constant_share` this recruits the whole fleet in week 0 and
    holds it fixed, isolating scheduling effects from fleet growth.
    """
    return WCGPopulationModel(
        capacity=vftp, midpoint_day=-10_000.0, timescale_days=1.0
    )


def three_phase_weights(
    control_share: float = 0.07,
    full_share: float = constants.PEAK_PROJECT_SHARE,
    control_weeks: float = float(constants.CONTROL_PERIOD_WEEKS),
    ramp_weeks: float = float(constants.PRIORITIZATION_WEEKS),
) -> tuple[tuple[float, float], ...]:
    """HCMD's Section 5.1 share trajectory as fair-share weight steps.

    Control period at ``control_share``, a mid-ramp step at the ramp's
    mean share, then ``full_share`` — against a background campaign
    holding the complement (:func:`three_phase_scenario`), the weighted
    fair share reproduces the paper's capacity split per phase.
    """
    mid = 0.5 * (control_share + full_share)
    return (
        (0.0, control_share),
        (control_weeks, mid),
        (control_weeks + ramp_weeks, full_share),
    )


def _complement(steps: tuple[tuple[float, float], ...]) -> tuple[tuple[float, float], ...]:
    """The background campaign's weight steps: ``1 - w`` at each step."""
    return tuple((week, 1.0 - w) for week, w in steps)


def three_phase_scenario(
    scale: float = 5.0,
    n_proteins: int = 8,
    n_ligands: int = 10_000,
    seed: int = constants.DEFAULT_SEED,
    horizon_weeks: float = 30.0,
    n_hosts_peak: int = 60,
) -> GridConfig:
    """The paper's three-phase prioritization as a two-campaign grid.

    * ``hcmd`` — a scaled cross-docking campaign whose fair-share weight
      walks the control → prioritization → full-power trajectory;
    * ``background`` — a screening campaign holding the complementary
      weight (the "other WCG projects" HCMD shared the grid with),
      sized to stay hungry for the whole horizon so HCMD's throughput
      is limited by its *share*, never by idle capacity.

    The fleet is fixed (constant share schedule over a flat population),
    so any HCMD throughput inflection at the prioritization boundary is
    the scheduler's doing — the property ``tests/test_multicampaign.py``
    verifies against the paper's phase-II observation.

    The default sizes put HCMD's work just under its 26-week capacity
    entitlement on the 60-host fleet (so it is share-limited, not
    work-limited, through the full-power phase) and keep the background
    database hungry past the horizon.
    """
    weights = three_phase_weights()
    hcmd = Campaign.cross_docking(
        "hcmd",
        scale=scale,
        n_proteins=n_proteins,
        weight_schedule=weights,
    )
    background = Campaign.screening(
        "background",
        n_ligands=n_ligands,
        mean_hours=2.0,
        weight_schedule=_complement(weights),
    )
    return GridConfig(
        campaigns=(hcmd, background),
        policy="fair-share",
        seed=seed,
        horizon_weeks=horizon_weeks,
        n_hosts_peak=n_hosts_peak,
        share_schedule=constant_share(),
        population=flat_population(),
    )
