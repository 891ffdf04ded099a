"""Ablation — interaction-energy model variants.

The reduced docking energy has physical knobs (dielectric, implicit-solvent
screening, LJ scaling, soft-core softening).  This bench docks the same
tiny couple under each variant and records how the energy decomposition
responds — the sanity panel for anyone swapping the Zacharias-style
defaults for their own parametrization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.maxdo.docking import dock_couple
from repro.maxdo.energy import EnergyParams
from repro.proteins.model import synthesize_protein
from repro.rng import stream

VARIANTS = {
    "default (eps=15, Debye 8 A)": EnergyParams(),
    "weak electrostatics (eps=60)": EnergyParams(dielectric=60.0),
    "strong screening (Debye 2 A)": EnergyParams(debye_length_a=2.0),
    "LJ halved": EnergyParams(lj_scale=0.5),
    "softer core (3 A)": EnergyParams(softening_a=3.0),
}


def test_energy_model_variants(record_artifact, benchmark):
    receptor = synthesize_protein("R", 45, stream(21, "em-r"))
    ligand = synthesize_protein("L", 35, stream(21, "em-l"))

    def sweep():
        out = {}
        for label, params in VARIANTS.items():
            result = dock_couple(
                receptor, ligand, isep_start=1, nsep=4, total_nsep=30,
                n_couples=4, n_gamma=2, minimize=True, max_iterations=20,
                energy_params=params,
            )
            best = result.best()
            out[label] = (
                float(result.e_total.min()),
                float(result.e_lj[best]),
                float(result.e_elec[best]),
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [label, f"{tot:.2f}", f"{lj:.2f}", f"{el:.2f}"]
        for label, (tot, lj, el) in results.items()
    ]
    record_artifact(
        "ablation_energy_model",
        "same couple, same starting grid, different energy models\n"
        "(best pose of a 4-position x 8-orientation map):\n"
        + render_table(
            ["model", "best E_tot", "E_lj at best", "E_elec at best"], rows
        ),
    )

    default = results["default (eps=15, Debye 8 A)"]
    # Halving LJ weakens the best total binding (minimization included).
    assert results["LJ halved"][0] > default[0]
    # Every variant still finds an attractive optimum.
    for tot, _, _ in results.values():
        assert tot < 0

    # Parameter monotonicity is asserted at a FIXED pose (minimization
    # relocates the optimum, so post-optimization components need not be
    # monotone in the parameters).
    from repro.maxdo.energy import batch_interaction_energy
    from repro.maxdo.pairtable import pair_table

    pose = np.array(
        [[receptor.bounding_radius + ligand.bounding_radius + 2.0, 0, 0, 0, 0, 0]]
    )
    at_pose = {}
    for label, params in VARIANTS.items():
        lj, el = batch_interaction_energy(pair_table(receptor, ligand, params), pose)
        at_pose[label] = (lj[0], el[0])
    base = at_pose["default (eps=15, Debye 8 A)"]
    assert abs(at_pose["weak electrostatics (eps=60)"][1]) < abs(base[1])
    assert abs(at_pose["strong screening (Debye 2 A)"][1]) < abs(base[1])
    assert at_pose["LJ halved"][0] == pytest.approx(0.5 * base[0])
