"""Tests for EnergyParams: the tunable interaction-energy variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maxdo.energy import EnergyParams
from tests.oracles.docking import energy_and_bead_gradient, interaction_energy


def _pose(receptor, ligand, extra=4.0):
    return np.eye(3), np.array(
        [receptor.bounding_radius + ligand.bounding_radius + extra, 0.0, 0.0]
    )


class TestEnergyParams:
    def test_defaults_match_module_constants(self, tiny_receptor, tiny_ligand):
        rot, t = _pose(tiny_receptor, tiny_ligand)
        default = interaction_energy(tiny_receptor, tiny_ligand, rot, t)
        explicit = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t, params=EnergyParams()
        )
        assert default == explicit

    def test_dielectric_scales_electrostatics(self, tiny_receptor, tiny_ligand):
        rot, t = _pose(tiny_receptor, tiny_ligand)
        base = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t, params=EnergyParams(dielectric=15.0)
        )
        doubled = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t, params=EnergyParams(dielectric=30.0)
        )
        assert doubled[1] == pytest.approx(base[1] / 2.0)
        assert doubled[0] == pytest.approx(base[0])  # LJ untouched

    def test_lj_scale(self, tiny_receptor, tiny_ligand):
        rot, t = _pose(tiny_receptor, tiny_ligand)
        base = interaction_energy(tiny_receptor, tiny_ligand, rot, t)
        scaled = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t, params=EnergyParams(lj_scale=0.5)
        )
        assert scaled[0] == pytest.approx(0.5 * base[0])
        assert scaled[1] == pytest.approx(base[1])

    def test_stronger_screening_reduces_range(self, tiny_receptor, tiny_ligand):
        rot, t = _pose(tiny_receptor, tiny_ligand, extra=10.0)
        weak = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t,
            params=EnergyParams(debye_length_a=20.0),
        )
        strong = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t,
            params=EnergyParams(debye_length_a=2.0),
        )
        assert abs(strong[1]) < abs(weak[1])

    def test_softening_caps_overlap_energy(self, tiny_receptor, tiny_ligand):
        rot = np.eye(3)
        t = np.zeros(3)  # full overlap
        hard = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t, params=EnergyParams(softening_a=0.5)
        )
        soft = interaction_energy(
            tiny_receptor, tiny_ligand, rot, t, params=EnergyParams(softening_a=3.0)
        )
        assert soft[0] < hard[0]

    def test_gradient_consistent_with_params(self, tiny_receptor, tiny_ligand):
        params = EnergyParams(dielectric=25.0, debye_length_a=5.0, lj_scale=0.8)
        rot, t = _pose(tiny_receptor, tiny_ligand)
        coords = tiny_ligand.transformed(rot, t)
        energy, grad = energy_and_bead_gradient(
            tiny_receptor, tiny_ligand, coords, params=params
        )
        lj, el = interaction_energy(tiny_receptor, tiny_ligand, rot, t, params=params)
        assert energy == pytest.approx(lj + el, rel=1e-12)
        # Spot-check the gradient against finite differences.
        h = 1e-6
        j = 3
        plus = coords.copy()
        plus[j, 0] += h
        minus = coords.copy()
        minus[j, 0] -= h
        ep, _ = energy_and_bead_gradient(tiny_receptor, tiny_ligand, plus, params=params)
        em, _ = energy_and_bead_gradient(tiny_receptor, tiny_ligand, minus, params=params)
        assert grad[j, 0] == pytest.approx((ep - em) / (2 * h), rel=1e-4, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyParams(dielectric=0.0)
        with pytest.raises(ValueError):
            EnergyParams(debye_length_a=-1.0)
        with pytest.raises(ValueError):
            EnergyParams(lj_scale=-0.1)
