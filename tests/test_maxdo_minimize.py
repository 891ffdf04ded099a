"""Rigid-body 6-DOF minimization, on the per-pose scalar oracle.

``minimize_rigid`` and ``pose_gradient`` live in ``tests/oracles/docking.py``;
the product's ``minimize_rigid_batch`` is pinned bit-identical to them in
``tests/test_maxdo_batched.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.maxdo.orientations import rotation_matrix
from tests.oracles.docking import interaction_energy, minimize_rigid, pose_gradient


def _start(receptor, ligand, extra=5.0):
    return np.array(
        [receptor.bounding_radius + ligand.bounding_radius + extra, 1.0, -1.0]
    )


class TestPoseGradient:
    def test_matches_finite_differences(self, tiny_receptor, tiny_ligand):
        params = np.concatenate([_start(tiny_receptor, tiny_ligand), [0.3, 1.1, -0.4]])
        _, grad = pose_gradient(tiny_receptor, tiny_ligand, params)
        h = 1e-6
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            ep, _ = pose_gradient(tiny_receptor, tiny_ligand, params + d)
            em, _ = pose_gradient(tiny_receptor, tiny_ligand, params - d)
            num = (ep - em) / (2 * h)
            assert grad[k] == pytest.approx(num, rel=1e-4, abs=1e-7)

    def test_energy_matches_interaction_energy(self, tiny_receptor, tiny_ligand):
        params = np.concatenate([_start(tiny_receptor, tiny_ligand), [0.2, 0.9, 1.5]])
        energy, _ = pose_gradient(tiny_receptor, tiny_ligand, params)
        lj, el = interaction_energy(
            tiny_receptor, tiny_ligand, rotation_matrix(*params[3:]), params[:3]
        )
        assert energy == pytest.approx(lj + el, rel=1e-12)


class TestMinimizeRigid:
    def test_never_increases_energy(self, tiny_receptor, tiny_ligand):
        start_t = _start(tiny_receptor, tiny_ligand)
        start_e = np.array([0.3, 1.1, -0.4])
        e0, _ = pose_gradient(
            tiny_receptor, tiny_ligand, np.concatenate([start_t, start_e])
        )
        res = minimize_rigid(tiny_receptor, tiny_ligand, start_t, start_e)
        assert res.energy_total <= e0 + 1e-9

    def test_energy_components_recomputed_at_optimum(self, tiny_receptor, tiny_ligand):
        res = minimize_rigid(
            tiny_receptor, tiny_ligand, _start(tiny_receptor, tiny_ligand),
            np.array([0.0, 0.5, 0.0]),
        )
        lj, el = interaction_energy(
            tiny_receptor, tiny_ligand, rotation_matrix(*res.euler), res.translation
        )
        assert res.energy_lj == pytest.approx(lj, rel=1e-12)
        assert res.energy_elec == pytest.approx(el, rel=1e-12)

    def test_translation_window_respected(self, tiny_receptor, tiny_ligand):
        start_t = _start(tiny_receptor, tiny_ligand)
        res = minimize_rigid(
            tiny_receptor, tiny_ligand, start_t, np.zeros(3), translation_window=2.0
        )
        assert np.abs(res.translation - start_t).max() <= 2.0 + 1e-9

    def test_deterministic(self, tiny_receptor, tiny_ligand):
        args = (tiny_receptor, tiny_ligand, _start(tiny_receptor, tiny_ligand),
                np.array([0.1, 0.7, -0.2]))
        a = minimize_rigid(*args)
        b = minimize_rigid(*args)
        assert a.energy_total == b.energy_total
        np.testing.assert_array_equal(a.translation, b.translation)

    def test_max_iterations_limits_work(self, tiny_receptor, tiny_ligand):
        res = minimize_rigid(
            tiny_receptor, tiny_ligand, _start(tiny_receptor, tiny_ligand),
            np.zeros(3), max_iterations=2,
        )
        # L-BFGS-B spends a handful of evaluations per iteration.
        assert res.n_evaluations < 40

    def test_shape_validation(self, tiny_receptor, tiny_ligand):
        with pytest.raises(ValueError):
            minimize_rigid(tiny_receptor, tiny_ligand, np.zeros(2), np.zeros(3))

    def test_finds_negative_energy_from_repulsive_start(
        self, tiny_receptor, tiny_ligand
    ):
        # Start slightly overlapping (repulsive); the minimizer should back
        # out into the attractive well.
        start_t = _start(tiny_receptor, tiny_ligand, extra=-3.0)
        res = minimize_rigid(tiny_receptor, tiny_ligand, start_t, np.zeros(3))
        assert res.energy_total < 0
