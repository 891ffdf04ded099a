"""Ablation — vectorized vs per-pair interaction energy.

The HPC guideline behind the MAXDo engine: the pairwise LJ + electrostatic
kernel is evaluated over bead-pair blocks of a precomputed pair table
(``batch_interaction_energy``, the fused C kernel or its numpy twin).
This bench times one pose through it against a naive per-pair Python
loop and checks both agree to near machine precision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.maxdo.energy import (
    COULOMB_CONSTANT,
    DEBYE_LENGTH_A,
    DIELECTRIC,
    SOFTENING_A,
    batch_interaction_energy,
)
from repro.maxdo.pairtable import pair_table
from repro.proteins.model import synthesize_protein
from repro.rng import stream


def _naive_pair_energies(receptor, ligand_coords, ligand):
    """Reference implementation: explicit double loop over bead pairs."""
    e_lj = 0.0
    e_elec = 0.0
    soft2 = SOFTENING_A**2
    for j in range(len(ligand_coords)):
        for i in range(receptor.n_beads):
            d = ligand_coords[j] - receptor.coords[i]
            r2 = float(d @ d) + soft2
            r = np.sqrt(r2)
            sigma = ligand.radii[j] + receptor.radii[i]
            eps = np.sqrt(ligand.epsilons[j] * receptor.epsilons[i])
            s6 = (sigma**2 / r2) ** 3
            e_lj += eps * (s6 * s6 - 2.0 * s6)
            qq = ligand.charges[j] * receptor.charges[i]
            e_elec += COULOMB_CONSTANT / DIELECTRIC * qq * np.exp(-r / DEBYE_LENGTH_A) / r
    return e_lj, e_elec


@pytest.fixture(scope="module")
def pair():
    receptor = synthesize_protein("R", 120, stream(3, "abl-r"))
    ligand = synthesize_protein("L", 90, stream(3, "abl-l"))
    t = np.array([receptor.bounding_radius + ligand.bounding_radius + 4, 0, 0])
    pose = np.array([[*t, 0.0, 0.0, 0.0]])
    return receptor, ligand, ligand.transformed(np.eye(3), t), pose


def _vectorized(receptor, ligand, pose):
    lj, el = batch_interaction_energy(pair_table(receptor, ligand), pose)
    return lj[0], el[0]


def test_vectorized_kernel(pair, benchmark, record_artifact):
    receptor, ligand, coords, pose = pair
    import time

    vec = benchmark(_vectorized, receptor, ligand, pose)
    t0 = time.perf_counter()
    naive = _naive_pair_energies(receptor, coords, ligand)
    naive_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    _vectorized(receptor, ligand, pose)
    vec_s = time.perf_counter() - t0

    record_artifact(
        "ablation_energy_kernel",
        render_table(
            ["kernel", "E_lj", "E_elec", "time (ms)"],
            [
                ["vectorized", f"{vec[0]:.6f}", f"{vec[1]:.6f}", f"{vec_s * 1e3:.2f}"],
                ["naive loop", f"{naive[0]:.6f}", f"{naive[1]:.6f}",
                 f"{naive_s * 1e3:.2f}"],
            ],
        )
        + f"\nspeedup: {naive_s / max(vec_s, 1e-9):.0f}x",
    )

    assert vec[0] == pytest.approx(naive[0], rel=1e-9)
    assert vec[1] == pytest.approx(naive[1], rel=1e-9)
    assert naive_s > 5 * vec_s  # vectorization must pay


def test_naive_kernel_for_scale(pair, benchmark):
    """Time the reference loop so the speedup is visible in the table."""
    receptor, ligand, coords, _ = pair
    benchmark.pedantic(
        _naive_pair_energies, args=(receptor, coords, ligand),
        rounds=1, iterations=1,
    )
