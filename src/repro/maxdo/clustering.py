"""Clustering of docking minima into binding modes.

A MAXDo energy map contains thousands of minimized poses; the scientific
reading groups them into distinct *binding modes* — basins whose optima
converged to nearby ligand placements.  The standard greedy leader
algorithm (energy-ordered: the strongest pose founds a mode, later poses
join the first mode within ``radius``) is deterministic and linear-ish,
which matters when post-processing whole receptor batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .docking import DockingResult

__all__ = ["BindingMode", "cluster_minima"]


@dataclass(frozen=True)
class BindingMode:
    """One cluster of docking minima."""

    representative: np.ndarray  #: (3,) mass-center position of the best pose
    best_energy: float  #: kcal/mol of the founding pose
    n_members: int  #: poses assigned to this mode
    member_indices: np.ndarray  #: flat indices into the (pos, cpl, gam) grid


def cluster_minima(
    result: DockingResult,
    radius: float = 5.0,
    energy_cutoff: float | None = None,
    max_modes: int | None = None,
) -> list[BindingMode]:
    """Greedy leader clustering of a docking map's minima.

    Poses are processed by increasing energy; each founds a new mode
    unless its final mass-center position lies within ``radius`` Angstrom
    of an existing mode's representative.  ``energy_cutoff`` drops weak
    poses first (e.g. only attractive minima); ``max_modes`` truncates the
    output to the strongest modes (membership is still counted for all
    processed poses).

    Returns modes sorted by their best energy, strongest first.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    energies = result.e_total.ravel()
    positions = result.positions.reshape(-1, 3)
    keep = np.arange(len(energies))
    if energy_cutoff is not None:
        keep = keep[energies[keep] <= energy_cutoff]
    if keep.size == 0:
        return []
    order = keep[np.argsort(energies[keep], kind="stable")]

    reps: list[np.ndarray] = []
    best: list[float] = []
    members: list[list[int]] = []
    radius_sq = radius * radius
    for idx in order:
        pos = positions[idx]
        assigned = False
        for m, rep in enumerate(reps):
            d = pos - rep
            if float(d @ d) <= radius_sq:
                members[m].append(int(idx))
                assigned = True
                break
        if not assigned:
            reps.append(pos.copy())
            best.append(float(energies[idx]))
            members.append([int(idx)])
    modes = [
        BindingMode(
            representative=reps[m],
            best_energy=best[m],
            n_members=len(members[m]),
            member_indices=np.asarray(members[m], dtype=np.int64),
        )
        for m in range(len(reps))
    ]
    modes.sort(key=lambda mode: mode.best_energy)
    if max_modes is not None:
        if max_modes < 1:
            raise ValueError("max_modes must be at least 1")
        modes = modes[:max_modes]
    return modes
