"""Simplified protein-protein interaction energy.

The quality of an interaction is "the sum of two contributions; a
Lennard-Jones term and an electrostatic term" (Section 2.1), evaluated on
the reduced protein model — the more negative, the stronger the binding.

Functional forms (standard for reduced docking models):

* Lennard-Jones with Lorentz-like combination ``sigma_ij = r_i + r_j`` and
  geometric well depths, written so the pair minimum sits at ``r = sigma``
  with depth ``eps``:  ``E = eps * ((sigma/r)^12 - 2 (sigma/r)^6)``;
* screened Coulomb with a constant reduced dielectric and a Debye
  exponential:  ``E = 332.0636 * q_i q_j * exp(-r/lambda) / (eps_r * r)``.

Distances are softened (``r^2 -> r^2 + delta^2``) so that energies and
gradients stay finite for overlapping starting configurations — the
minimizer has to be able to start anywhere on the starting grid.

Every kernel here is pose-batched: it evaluates a ``(B, 6)`` batch of
rigid poses over a couple's :class:`~repro.maxdo.pairtable.PairTable`,
vectorized over poses and bead pairs, with analytic 6-DoF gradients.
They are bit-identical to the per-pose scalar kernels kept as the test
oracle in ``tests/oracles/docking.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..proteins.model import ReducedProtein

if TYPE_CHECKING:  # pairtable imports from this module; annotate lazily.
    from .pairtable import PairTable

__all__ = [
    "COULOMB_CONSTANT",
    "DIELECTRIC",
    "DEBYE_LENGTH_A",
    "SOFTENING_A",
    "EnergyParams",
    "batch_pose_coords",
    "batch_interaction_energy",
    "batch_energy_and_pose_gradient",
]

#: Coulomb constant in kcal*A/(mol*e^2).
COULOMB_CONSTANT = 332.0636

#: Reduced-model relative dielectric constant.
DIELECTRIC = 15.0

#: Debye screening length (Angstrom), implicit-solvent screening.
DEBYE_LENGTH_A = 8.0

#: Distance softening (Angstrom): r_eff^2 = r^2 + SOFTENING_A^2.
SOFTENING_A = 1.0

#: Ligand-bead chunk size for the pairwise kernels; bounds peak memory at
#: roughly ``chunk * n_receptor_beads * 8 bytes * a few arrays``.
_CHUNK = 512

#: Pair entries (pose * ligand bead * receptor bead) per chunk of the
#: batched kernels; bounds the (B_chunk, m, n) intermediates so a chunk's
#: working set streams through cache instead of thrashing it.
_BATCH_PAIR_BUDGET = 1 << 19


@dataclass(frozen=True)
class EnergyParams:
    """Tunable parameters of the reduced interaction energy.

    The module-level constants are the committed defaults; passing a
    different instance to the kernels supports energy-model ablations
    (implicit-solvent screening strength, dielectric, LJ scaling) without
    global state.
    """

    dielectric: float = DIELECTRIC
    debye_length_a: float = DEBYE_LENGTH_A
    softening_a: float = SOFTENING_A
    lj_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.dielectric <= 0 or self.debye_length_a <= 0:
            raise ValueError("dielectric and Debye length must be positive")
        if self.softening_a < 0 or self.lj_scale < 0:
            raise ValueError("softening and LJ scale must be non-negative")


def _check_poses(poses: np.ndarray) -> np.ndarray:
    poses = np.asarray(poses, dtype=np.float64)
    if poses.ndim != 2 or poses.shape[1] != 6:
        raise ValueError(f"poses must be (B, 6), got {poses.shape}")
    return poses


def batch_pose_coords(ligand: ReducedProtein, poses: np.ndarray) -> np.ndarray:
    """Ligand bead coordinates for a ``(B, 6)`` batch of rigid poses.

    A pose is ``(x, y, z, alpha, beta, gamma)``: mass-center translation
    followed by ZYZ Euler angles.  Returns ``(B, m, 3)``.  The rotations
    are composed by the same left-associated matrix products as
    :func:`~repro.maxdo.orientations.rotation_matrix`
    (``Rz(a) @ Ry(b) @ Rz(g)``), keeping coordinates bit-identical to
    :meth:`~repro.proteins.model.ReducedProtein.transformed`.
    """
    from .orientations import _ry_batch, _rz_batch

    poses = _check_poses(poses)
    rot = _rz_batch(poses[:, 3]) @ _ry_batch(poses[:, 4]) @ _rz_batch(poses[:, 5])
    return np.matmul(ligand.coords, rot.transpose(0, 2, 1)) + poses[:, None, :3]


def _batch_chunks(n_poses: int, pairs_per_pose: int):
    """Yield batch slices keeping ``chunk * pairs_per_pose`` bounded."""
    step = max(1, _BATCH_PAIR_BUDGET // max(1, pairs_per_pose))
    for start in range(0, n_poses, step):
        yield slice(start, min(start + step, n_poses))


#: Reusable (A, m, n) scratch buffers for the fused kernels, keyed by
#: ``(m, n)`` and grown to the largest pose-chunk seen.  Reusing them
#: avoids first-touch page faults on multi-MB allocations every minimizer
#: round.  Kernel calls are single-threaded per process (parallelism is
#: process-based), and every element is overwritten before it is read.
_SCRATCH: dict[tuple[int, int], tuple[int, list[np.ndarray]]] = {}


def _scratch_buffers(n_chunk: int, m: int, n: int, count: int) -> list[np.ndarray]:
    key = (m, n)
    entry = _SCRATCH.get(key)
    if entry is None or entry[0] < n_chunk or len(entry[1]) < count:
        _SCRATCH.clear()  # keep at most one couple's worth of scratch
        bufs = [np.empty((n_chunk, m, n)) for _ in range(count)]
        _SCRATCH[key] = (n_chunk, bufs)
        entry = _SCRATCH[key]
    return [buf[:n_chunk] for buf in entry[1][:count]]


def _fused_ready(n_lig: int) -> bool:
    """Fused C kernels apply when compiled and the ligand fits one chunk.

    The numpy path (and the scalar oracle) accumulate per ligand chunk of
    ``_CHUNK`` beads; the fused path has no ligand chunking, so beyond one
    chunk its summation order would no longer mirror them.  Every protein
    in the reduced-model library is far below that bound.
    """
    from . import _fused

    return n_lig <= _CHUNK and _fused.load() is not None


def batch_interaction_energy(
    table: "PairTable", poses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pose ``(E_lj, E_elec)`` for a ``(B, 6)`` pose batch, kcal/mol.

    Evaluated over the precomputed
    :class:`~repro.maxdo.pairtable.PairTable` combination arrays in pose
    chunks of shape ``(B_chunk, m, n)`` — through the fused C kernels when
    available, otherwise a numpy broadcast with the same accumulation
    order.  Both paths are bit-identical to the scalar ``pair_energies``
    oracle (``tests/oracles/docking.py``).  Returns two ``(B,)`` arrays.
    """
    from . import _fused

    poses = _check_poses(poses)
    p = table.params
    coords = batch_pose_coords(table.ligand, poses)
    rec = np.ascontiguousarray(table.receptor.coords)
    n_poses, n_lig = poses.shape[0], coords.shape[1]
    n_rec = rec.shape[0]
    e_lj = np.zeros(n_poses)
    e_elec = np.zeros(n_poses)
    soft2 = p.softening_a**2

    if _fused_ready(n_lig):
        for sl in _batch_chunks(n_poses, table.sigma2.size):
            chunk = np.ascontiguousarray(coords[sl])
            r2, targ, lj_arr, el_arr = _scratch_buffers(
                chunk.shape[0], n_lig, n_rec, 4
            )
            _fused.phase_a(chunk, rec, soft2, p.debye_length_a, r2, targ)
            screen = np.exp(targ, out=targ)
            _fused.phase_energy(
                r2, screen, table.sigma2, table.eps_geom, table.q_coef,
                lj_arr, el_arr,
            )
            e_lj[sl] += p.lj_scale * lj_arr.sum(axis=(1, 2))
            e_elec[sl] += el_arr.sum(axis=(1, 2))
        return e_lj, e_elec

    for sl in _batch_chunks(n_poses, table.sigma2.size):
        for start in range(0, n_lig, _CHUNK):
            ls = slice(start, start + _CHUNK)
            delta = coords[sl, ls, None, :] - rec[None, None, :, :]
            r2 = (delta**2).sum(axis=3) + soft2
            r = np.sqrt(r2)
            s2 = table.sigma2[None, ls, :] / r2
            s6 = s2 * s2 * s2
            e_lj[sl] += p.lj_scale * (
                table.eps_geom[None, ls, :] * (s6 * s6 - 2.0 * s6)
            ).sum(axis=(1, 2))
            e_elec[sl] += (
                table.q_coef[None, ls, :] * np.exp(-r / p.debye_length_a) / r
            ).sum(axis=(1, 2))
    return e_lj, e_elec


def batch_energy_and_pose_gradient(
    table: "PairTable", poses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pose total energy and analytic 6-DoF gradient for a pose batch.

    Returns ``(energy, grad)`` with shapes ``(B,)`` and ``(B, 6)``:
    ``grad[b, :3]`` is ``dE/d translation`` and ``grad[b, 3:]`` the Euler
    chain rule ``dE/dtheta = sum_j bead_grad[j] . (dR/dtheta x_j)``.
    Bit-identical to the scalar oracle's
    ``pose_gradient``/``energy_and_bead_gradient`` composition
    (``tests/oracles/docking.py``): same chunk accumulation order, same
    operation association — which is what lets the batched minimizer
    reproduce the reference trajectories exactly.
    """
    from .orientations import _ry_batch, _rz_batch

    poses = _check_poses(poses)
    p = table.params
    coords = batch_pose_coords(table.ligand, poses)
    rec = table.receptor.coords
    lig_local = table.ligand.coords
    n_poses, n_lig = poses.shape[0], coords.shape[1]
    energy = np.zeros(n_poses)
    grad = np.empty((n_poses, 6))
    soft2 = p.softening_a**2

    # dR/d(alpha,beta,gamma) per pose, composed exactly as the scalar oracle.
    alpha, beta, gamma = poses[:, 3], poses[:, 4], poses[:, 5]
    rz_a, ry_b, rz_g = _rz_batch(alpha), _ry_batch(beta), _rz_batch(gamma)
    drot = (
        _rz_batch(alpha, derivative=True) @ ry_b @ rz_g,
        rz_a @ _ry_batch(beta, derivative=True) @ rz_g,
        rz_a @ ry_b @ _rz_batch(gamma, derivative=True),
    )

    fused = _fused_ready(n_lig)
    n_rec = rec.shape[0]
    if fused:
        rec = np.ascontiguousarray(rec)
    for sl in _batch_chunks(n_poses, table.sigma2.size):
        if fused:
            from . import _fused

            chunk = np.ascontiguousarray(coords[sl])
            r2, targ, lj_arr, el_arr = _scratch_buffers(
                chunk.shape[0], n_lig, n_rec, 4
            )
            _fused.phase_a(chunk, rec, soft2, p.debye_length_a, r2, targ)
            screen = np.exp(targ, out=targ)
            bead_grad = np.empty_like(chunk)
            _fused.phase_grad(
                chunk, rec, r2, screen,
                table.sigma2, table.eps_lj, table.q_coef,
                p.debye_length_a, lj_arr, el_arr, bead_grad,
            )
            energy[sl] += lj_arr.sum(axis=(1, 2)) + el_arr.sum(axis=(1, 2))
        else:
            bead_grad = np.empty_like(coords[sl])
            for start in range(0, n_lig, _CHUNK):
                ls = slice(start, start + _CHUNK)
                delta = coords[sl, ls, None, :] - rec[None, None, :, :]
                r2 = (delta**2).sum(axis=3) + soft2
                r = np.sqrt(r2)
                s2 = table.sigma2[None, ls, :] / r2
                s6 = s2 * s2 * s2
                eps = table.eps_lj[None, ls, :]
                e_lj = eps * (s6 * s6 - 2.0 * s6)
                dlj_dr2 = eps * 6.0 * (s6 - s6 * s6) / r2

                screen = np.exp(-r / p.debye_length_a)
                e_el = table.q_coef[None, ls, :] * screen / r
                del_dr2 = -e_el * (
                    1.0 / r + 1.0 / p.debye_length_a
                ) / (2.0 * r)

                energy[sl] += e_lj.sum(axis=(1, 2)) + e_el.sum(axis=(1, 2))
                coeff = 2.0 * (dlj_dr2 + del_dr2)
                bead_grad[:, ls] = (coeff[:, :, :, None] * delta).sum(axis=2)
        grad[sl, :3] = bead_grad.sum(axis=1)
        for k in range(3):
            rotated = np.matmul(lig_local, drot[k][sl].transpose(0, 2, 1))
            grad[sl, 3 + k] = (bead_grad * rotated).sum(axis=(1, 2))
    return energy, grad
