"""Population oracle: the least-squares fit of the WCG trend.

``WCGPopulationModel.calibrated()`` returns this fit's answer as three
literals; this is the fit that produced them, so a change of scipy (or
of the anchors) that moves the answer is seen by the tests, not by the
goldens.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.grid.population import WCGPopulationModel

__all__ = ["fit_wcg_trend"]


def fit_wcg_trend() -> WCGPopulationModel:
    """Least-squares fit of the logistic to the paper's three anchors.

    1. ~2,000 VFTP at launch (day 0);
    2. average 54,947 VFTP over the HCMD window (days 763..945);
    3. 74,825 VFTP in the week the paper was written (~day 1110).
    """
    from scipy.optimize import least_squares

    project_days = np.arange(
        constants.WCG_LAUNCH_TO_HCMD_DAYS,
        constants.WCG_LAUNCH_TO_HCMD_DAYS + 7 * constants.PROJECT_DURATION_WEEKS,
        dtype=np.float64,
    )

    def residuals(params: np.ndarray) -> np.ndarray:
        model = WCGPopulationModel(
            capacity=params[0],
            midpoint_day=params[1],
            timescale_days=params[2],
        )
        return np.array(
            [
                (model.trend(0.0) - constants.WCG_VFTP_AT_LAUNCH)
                / constants.WCG_VFTP_AT_LAUNCH,
                (
                    float(np.mean(model.trend(project_days)))
                    - constants.WCG_VFTP_DURING_PROJECT
                )
                / constants.WCG_VFTP_DURING_PROJECT,
                (model.trend(1110.0) - constants.WCG_VFTP_DEC_2007)
                / constants.WCG_VFTP_DEC_2007,
            ]
        )

    fit = least_squares(
        residuals,
        x0=np.array([95_000.0, 720.0, 250.0]),
        bounds=([10_000.0, 100.0, 30.0], [500_000.0, 2000.0, 1000.0]),
    )
    capacity, midpoint, timescale = fit.x
    return WCGPopulationModel(
        capacity=float(capacity),
        midpoint_day=float(midpoint),
        timescale_days=float(timescale),
    )
