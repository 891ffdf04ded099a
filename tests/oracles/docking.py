"""Docking oracle: the per-pose scalar engine.

The scalar interaction-energy kernels, the per-pose Euler chain rule, one
scipy ``minimize(method="L-BFGS-B")`` call per starting pose, and the
scalar per-orientation path of ``dock_position`` built on them.  The
product's pose-batched kernels and lockstep minimiser are pinned
bit-identical to these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maxdo.energy import _CHUNK, COULOMB_CONSTANT, EnergyParams
from repro.maxdo.orientations import rotation_matrix
from repro.proteins.model import ReducedProtein

__all__ = [
    "pair_energies",
    "interaction_energy",
    "energy_and_bead_gradient",
    "pose_gradient",
    "MinimizationResult",
    "minimize_rigid",
    "dock_position_reference",
]


_DEFAULT_PARAMS = EnergyParams()


def _check_pair_inputs(
    coords_a: np.ndarray, coords_b: np.ndarray, *vectors: np.ndarray
) -> None:
    if coords_a.ndim != 2 or coords_a.shape[1] != 3:
        raise ValueError(f"receptor coords must be (n, 3), got {coords_a.shape}")
    if coords_b.ndim != 2 or coords_b.shape[1] != 3:
        raise ValueError(f"ligand coords must be (m, 3), got {coords_b.shape}")
    for v in vectors:
        if v.ndim != 1:
            raise ValueError("per-bead arrays must be one-dimensional")


def pair_energies(
    coords_a: np.ndarray,
    radii_a: np.ndarray,
    eps_a: np.ndarray,
    charges_a: np.ndarray,
    coords_b: np.ndarray,
    radii_b: np.ndarray,
    eps_b: np.ndarray,
    charges_b: np.ndarray,
    params: EnergyParams | None = None,
) -> tuple[float, float]:
    """Return ``(E_lj, E_elec)`` between two bead sets (kcal/mol).

    Group ``a`` is the receptor, ``b`` the ligand (already transformed into
    the receptor frame).  Pure function of the coordinates: calling it twice
    gives bit-identical results, which mirrors the paper's "reproducible
    computing time/result" property.
    """
    p = params if params is not None else _DEFAULT_PARAMS
    coords_a = np.asarray(coords_a, dtype=np.float64)
    coords_b = np.asarray(coords_b, dtype=np.float64)
    _check_pair_inputs(coords_a, coords_b, radii_a, eps_a, charges_a)

    e_lj = 0.0
    e_elec = 0.0
    soft2 = p.softening_a**2
    for start in range(0, coords_b.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        delta = coords_b[sl, None, :] - coords_a[None, :, :]
        r2 = (delta**2).sum(axis=2) + soft2
        r = np.sqrt(r2)

        sigma = radii_b[sl, None] + radii_a[None, :]
        eps = np.sqrt(eps_b[sl, None] * eps_a[None, :])
        s2 = sigma**2 / r2
        s6 = s2 * s2 * s2
        e_lj += p.lj_scale * float((eps * (s6 * s6 - 2.0 * s6)).sum())

        qq = charges_b[sl, None] * charges_a[None, :]
        e_elec += float(
            (
                COULOMB_CONSTANT / p.dielectric * qq
                * np.exp(-r / p.debye_length_a) / r
            ).sum()
        )
    return e_lj, e_elec


def interaction_energy(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    rotation: np.ndarray,
    translation: np.ndarray,
    params: EnergyParams | None = None,
) -> tuple[float, float]:
    """``(E_lj, E_elec)`` with the ligand posed by ``R x + t`` in the
    receptor frame."""
    ligand_coords = ligand.transformed(rotation, translation)
    return pair_energies(
        receptor.coords,
        receptor.radii,
        receptor.epsilons,
        receptor.charges,
        ligand_coords,
        ligand.radii,
        ligand.epsilons,
        ligand.charges,
        params=params,
    )


def energy_and_bead_gradient(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    ligand_coords: np.ndarray,
    params: EnergyParams | None = None,
) -> tuple[float, np.ndarray]:
    """Total energy and its gradient w.r.t. each ligand bead position.

    Returns ``(E_lj + E_elec, grad)`` with ``grad`` of shape (m, 3):
    ``grad[j] = dE / d ligand_coords[j]``.  The rigid-body minimizer chains
    this through the pose parametrization.
    """
    p = params if params is not None else _DEFAULT_PARAMS
    ligand_coords = np.asarray(ligand_coords, dtype=np.float64)
    coords_a = receptor.coords
    _check_pair_inputs(coords_a, ligand_coords, receptor.radii)

    total = 0.0
    grad = np.zeros_like(ligand_coords)
    soft2 = p.softening_a**2
    for start in range(0, ligand_coords.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        delta = ligand_coords[sl, None, :] - coords_a[None, :, :]
        r2 = (delta**2).sum(axis=2) + soft2
        r = np.sqrt(r2)

        sigma = ligand.radii[sl, None] + receptor.radii[None, :]
        eps = p.lj_scale * np.sqrt(
            ligand.epsilons[sl, None] * receptor.epsilons[None, :]
        )
        s2 = sigma**2 / r2
        s6 = s2 * s2 * s2
        e_lj = eps * (s6 * s6 - 2.0 * s6)
        # dE_lj/dr2 = eps * (-6 s12 / r2 + 6 s6 / r2)
        dlj_dr2 = eps * 6.0 * (s6 - s6 * s6) / r2

        qq = ligand.charges[sl, None] * receptor.charges[None, :]
        screen = np.exp(-r / p.debye_length_a)
        e_el = COULOMB_CONSTANT / p.dielectric * qq * screen / r
        # dE_el/dr = -E * (1/r + 1/lambda);  dr/dr2 = 1/(2r)
        del_dr2 = -e_el * (1.0 / r + 1.0 / p.debye_length_a) / (2.0 * r)

        total += float(e_lj.sum() + e_el.sum())
        coeff = 2.0 * (dlj_dr2 + del_dr2)  # dE/dr2 * dr2/ddelta = coeff*delta
        grad[sl] = (coeff[:, :, None] * delta).sum(axis=1)
    return total, grad


def _rz(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _drz(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])


def _dry(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[-s, 0.0, c], [0.0, 0.0, 0.0], [-c, 0.0, -s]])


def pose_gradient(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    params: np.ndarray,
    energy_params: EnergyParams | None = None,
) -> tuple[float, np.ndarray]:
    """Energy and gradient w.r.t. the 6 pose parameters ``(t, euler)``."""
    t = params[:3]
    alpha, beta, gamma = params[3:]
    rz_a, ry_b, rz_g = _rz(alpha), _ry(beta), _rz(gamma)
    rot = rz_a @ ry_b @ rz_g
    coords = ligand.coords @ rot.T + t
    energy, bead_grad = energy_and_bead_gradient(
        receptor, ligand, coords, params=energy_params
    )

    grad = np.empty(6)
    grad[:3] = bead_grad.sum(axis=0)
    for k, drot in enumerate(
        (
            _drz(alpha) @ ry_b @ rz_g,
            rz_a @ _dry(beta) @ rz_g,
            rz_a @ ry_b @ _drz(gamma),
        )
    ):
        # dE/dtheta = sum_j bead_grad[j] . (dR/dtheta x_j)
        grad[3 + k] = float((bead_grad * (ligand.coords @ drot.T)).sum())
    return energy, grad


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one rigid-body minimization."""

    energy_lj: float
    energy_elec: float
    translation: np.ndarray  #: optimal mass-center position (3,)
    euler: np.ndarray  #: optimal ZYZ angles (3,)
    n_evaluations: int  #: objective evaluations spent
    converged: bool

    @property
    def energy_total(self) -> float:
        """Total interaction energy ``E_lj + E_elec`` (kcal/mol)."""
        return self.energy_lj + self.energy_elec


def minimize_rigid(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    start_translation: np.ndarray,
    start_euler: np.ndarray,
    max_iterations: int = 200,
    translation_window: float = 15.0,
    energy_params: EnergyParams | None = None,
) -> MinimizationResult:
    """Minimize the interaction energy from one starting pose.

    ``translation_window`` bounds how far (Angstrom, per axis) the mass
    center may drift from its starting position — each starting position
    explores its own basin, as intended by the regular-array search; without
    the bound every run would escape to infinity whenever the local basin is
    repulsive (net energy ~ 0 at large separation).
    """
    from scipy.optimize import minimize as scipy_minimize

    start_translation = np.asarray(start_translation, dtype=np.float64)
    start_euler = np.asarray(start_euler, dtype=np.float64)
    if start_translation.shape != (3,) or start_euler.shape != (3,):
        raise ValueError("start_translation and start_euler must have shape (3,)")

    x0 = np.concatenate([start_translation, start_euler])
    bounds = [
        (x0[i] - translation_window, x0[i] + translation_window) for i in range(3)
    ] + [(None, None)] * 3

    evaluations = 0

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        return pose_gradient(receptor, ligand, params, energy_params)

    result = scipy_minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": max_iterations},
    )
    rot = rotation_matrix(*result.x[3:])
    e_lj, e_elec = interaction_energy(
        receptor, ligand, rot, result.x[:3], params=energy_params
    )
    return MinimizationResult(
        energy_lj=e_lj,
        energy_elec=e_elec,
        translation=result.x[:3].copy(),
        euler=result.x[3:].copy(),
        n_evaluations=evaluations,
        converged=bool(result.success),
    )


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
