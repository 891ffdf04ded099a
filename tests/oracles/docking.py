"""Docking oracle: the scalar per-orientation path of ``dock_position``."""

from __future__ import annotations

import numpy as np

from repro.maxdo.energy import EnergyParams, interaction_energy
from repro.maxdo.minimize import minimize_rigid
from repro.maxdo.orientations import rotation_matrix
from repro.proteins.model import ReducedProtein

__all__ = ["dock_position_reference"]


def dock_position_reference(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    position: np.ndarray,
    couples: np.ndarray,
    gammas: np.ndarray,
    minimize: bool = True,
    max_iterations: int = 60,
    energy_params: EnergyParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One scipy call per (couple, gamma): what ``dock_position`` did with
    ``engine="reference"``.  Same return contract as ``dock_position``."""
    n_cpl, n_gam = len(couples), len(gammas)
    position = np.asarray(position, dtype=np.float64)
    e_lj = np.empty((n_cpl, n_gam))
    e_elec = np.empty((n_cpl, n_gam))
    out_pos = np.empty((n_cpl, n_gam, 3))
    out_euler = np.empty((n_cpl, n_gam, 3))
    for c, (alpha, beta) in enumerate(couples):
        for g, gamma in enumerate(gammas):
            euler = np.array([alpha, beta, gamma])
            if minimize:
                res = minimize_rigid(
                    receptor, ligand, position, euler,
                    max_iterations=max_iterations, energy_params=energy_params,
                )
                e_lj[c, g] = res.energy_lj
                e_elec[c, g] = res.energy_elec
                out_pos[c, g] = res.translation
                out_euler[c, g] = res.euler
            else:
                lj, el = interaction_energy(
                    receptor, ligand, rotation_matrix(*euler), position,
                    params=energy_params,
                )
                e_lj[c, g] = lj
                e_elec[c, g] = el
                out_pos[c, g] = position
                out_euler[c, g] = euler
    return e_lj, e_elec, out_pos, out_euler
