"""Physics of the simplified interaction energy, on the scalar kernels.

The per-pose kernels are the test oracle (``tests/oracles/docking.py``);
the product's pose-batched kernels are pinned bit-identical to them in
``tests/test_maxdo_batched.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxdo.orientations import rotation_matrix
from repro.proteins.model import synthesize_protein
from repro.rng import stream
from tests.oracles.docking import (
    energy_and_bead_gradient,
    interaction_energy,
    pair_energies,
)


def _sep(receptor, ligand, extra=4.0):
    return receptor.bounding_radius + ligand.bounding_radius + extra


class TestPairEnergies:
    def test_reproducible(self, tiny_receptor, tiny_ligand):
        t = np.array([_sep(tiny_receptor, tiny_ligand), 0.0, 0.0])
        a = interaction_energy(tiny_receptor, tiny_ligand, np.eye(3), t)
        b = interaction_energy(tiny_receptor, tiny_ligand, np.eye(3), t)
        assert a == b  # bit-identical: "reproducible computing time/result"

    def test_far_apart_is_negligible(self, tiny_receptor, tiny_ligand):
        t = np.array([1e4, 0.0, 0.0])
        lj, el = interaction_energy(tiny_receptor, tiny_ligand, np.eye(3), t)
        assert abs(lj) < 1e-6
        assert abs(el) < 1e-6

    def test_finite_at_full_overlap(self, tiny_receptor, tiny_ligand):
        lj, el = interaction_energy(tiny_receptor, tiny_ligand, np.eye(3), np.zeros(3))
        assert np.isfinite(lj) and np.isfinite(el)
        assert lj > 0  # strongly repulsive

    def test_attractive_well_exists(self, tiny_receptor, tiny_ligand):
        # Somewhere between contact and infinity the LJ term must be negative.
        base = _sep(tiny_receptor, tiny_ligand, 0.0)
        seps = np.linspace(base - 2.0, base + 12.0, 40)
        ljs = [
            interaction_energy(
                tiny_receptor, tiny_ligand, np.eye(3), np.array([s, 0.0, 0.0])
            )[0]
            for s in seps
        ]
        assert min(ljs) < 0

    def test_global_rigid_motion_invariance(self, tiny_receptor, tiny_ligand):
        # Rotating BOTH bead sets by the same rigid transform preserves the
        # energy (it only depends on relative geometry).
        t = np.array([_sep(tiny_receptor, tiny_ligand), 1.0, -2.0])
        lig_coords = tiny_ligand.transformed(np.eye(3), t)
        e0 = pair_energies(
            tiny_receptor.coords, tiny_receptor.radii, tiny_receptor.epsilons,
            tiny_receptor.charges, lig_coords, tiny_ligand.radii,
            tiny_ligand.epsilons, tiny_ligand.charges,
        )
        rot = rotation_matrix(0.4, 1.0, -0.7)
        shift = np.array([5.0, 6.0, 7.0])
        e1 = pair_energies(
            tiny_receptor.coords @ rot.T + shift, tiny_receptor.radii,
            tiny_receptor.epsilons, tiny_receptor.charges,
            lig_coords @ rot.T + shift, tiny_ligand.radii,
            tiny_ligand.epsilons, tiny_ligand.charges,
        )
        np.testing.assert_allclose(e0, e1, rtol=1e-9)

    def test_chunking_invariance(self, tiny_receptor):
        # A ligand larger than the chunk size must give the same energy as
        # the direct sum of two half-ligands.
        big = synthesize_protein("BIG", 600, stream(5, "big"))
        t = np.array([tiny_receptor.bounding_radius + big.bounding_radius + 4, 0, 0])
        coords = big.transformed(np.eye(3), t)
        full = pair_energies(
            tiny_receptor.coords, tiny_receptor.radii, tiny_receptor.epsilons,
            tiny_receptor.charges, coords, big.radii, big.epsilons, big.charges,
        )
        half = 300
        parts = [
            pair_energies(
                tiny_receptor.coords, tiny_receptor.radii, tiny_receptor.epsilons,
                tiny_receptor.charges, coords[sl], big.radii[sl],
                big.epsilons[sl], big.charges[sl],
            )
            for sl in (slice(0, half), slice(half, None))
        ]
        np.testing.assert_allclose(
            full, (parts[0][0] + parts[1][0], parts[0][1] + parts[1][1]), rtol=1e-12
        )

    def test_shape_validation(self, tiny_receptor, tiny_ligand):
        with pytest.raises(ValueError):
            pair_energies(
                tiny_receptor.coords[:, :2], tiny_receptor.radii,
                tiny_receptor.epsilons, tiny_receptor.charges,
                tiny_ligand.coords, tiny_ligand.radii,
                tiny_ligand.epsilons, tiny_ligand.charges,
            )


class TestBeadGradient:
    def test_matches_finite_differences(self, tiny_receptor, tiny_ligand):
        t = np.array([_sep(tiny_receptor, tiny_ligand, 1.0), 2.0, -1.0])
        coords = tiny_ligand.transformed(np.eye(3), t)
        energy, grad = energy_and_bead_gradient(tiny_receptor, tiny_ligand, coords)
        h = 1e-6
        for j in (0, tiny_ligand.n_beads // 2, tiny_ligand.n_beads - 1):
            for axis in range(3):
                plus = coords.copy()
                plus[j, axis] += h
                minus = coords.copy()
                minus[j, axis] -= h
                ep = sum(_energy_of(tiny_receptor, tiny_ligand, plus))
                em = sum(_energy_of(tiny_receptor, tiny_ligand, minus))
                num = (ep - em) / (2 * h)
                assert grad[j, axis] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_energy_consistent_with_pair_energies(self, tiny_receptor, tiny_ligand):
        t = np.array([_sep(tiny_receptor, tiny_ligand), 0.0, 0.0])
        coords = tiny_ligand.transformed(np.eye(3), t)
        total, _ = energy_and_bead_gradient(tiny_receptor, tiny_ligand, coords)
        lj, el = _energy_of(tiny_receptor, tiny_ligand, coords)
        assert total == pytest.approx(lj + el, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=-5.0, max_value=15.0))
    def test_gradient_finite_everywhere(self, tiny_receptor, tiny_ligand, offset):
        t = np.array([_sep(tiny_receptor, tiny_ligand, 0.0) + offset, 0.0, 0.0])
        coords = tiny_ligand.transformed(np.eye(3), t)
        energy, grad = energy_and_bead_gradient(tiny_receptor, tiny_ligand, coords)
        assert np.isfinite(energy)
        assert np.isfinite(grad).all()


def _energy_of(receptor, ligand, coords):
    return pair_energies(
        receptor.coords, receptor.radii, receptor.epsilons, receptor.charges,
        coords, ligand.radii, ligand.epsilons, ligand.charges,
    )
