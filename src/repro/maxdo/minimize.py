"""Rigid-body interaction-energy minimization.

MAXDo searches optimal interaction geometries "using multiple energy
minimizations with a regular array of starting positions and orientations"
(Section 2).  The minimization runs over the six rigid-body degrees of
freedom of the ligand: the mass-center translation ``(x, y, z)`` and the
ZYZ Euler orientation ``(alpha, beta, gamma)``.

The objective gradient is analytic: per-bead energy gradients from
:func:`repro.maxdo.energy.energy_and_bead_gradient` are chained through the
pose parametrization (``d pose / d translation`` is the identity;
``d pose / d angle`` uses the analytic Euler-derivative matrices), then fed
to scipy's L-BFGS-B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..proteins.model import ReducedProtein
from .energy import (
    EnergyParams,
    batch_energy_and_pose_gradient,
    batch_interaction_energy,
    energy_and_bead_gradient,
    interaction_energy,
)
from .orientations import rotation_matrix
from .pairtable import pair_table

__all__ = [
    "MinimizationResult",
    "BatchMinimizationResult",
    "minimize_rigid",
    "minimize_rigid_batch",
    "pose_gradient",
    "scipy_lbfgsb",
]


def scipy_lbfgsb():
    """scipy's L-BFGS-B as ``(minimize, core)``, imported on first call.

    ``core`` is the reverse-communication ``setulb`` module that scipy's
    own driver loop wraps (``None`` if scipy's internals moved).  Only a
    process that minimizes pays for ``scipy.optimize`` (~0.4 s): both
    entry points resolve it once per call, outside every loop, and
    :func:`repro.maxdo.docking.dock_couple` calls this before it forks a
    pool so workers inherit the import instead of each repeating it.
    """
    from scipy.optimize import minimize

    try:
        from scipy.optimize import _lbfgsb as core
    except ImportError:  # pragma: no cover - scipy internals moved
        core = None
    return minimize, core


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
    scipy_minimize, _ = scipy_lbfgsb()
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


@dataclass(frozen=True)
class BatchMinimizationResult:
    """Outcome of a batch of rigid-body minimizations (one pose per row)."""

    energy_lj: np.ndarray  #: (B,) final Lennard-Jones energies
    energy_elec: np.ndarray  #: (B,) final electrostatic energies
    translations: np.ndarray  #: (B, 3) optimal mass-center positions
    eulers: np.ndarray  #: (B, 3) optimal ZYZ angles
    n_iterations: int  #: outer batch iterations performed
    n_evaluations: int  #: pose evaluations spent, summed over the batch
    converged: np.ndarray  #: (B,) bool, per-pose convergence flags

    @property
    def energy_total(self) -> np.ndarray:
        """Total interaction energies ``E_lj + E_elec`` (kcal/mol)."""
        return self.energy_lj + self.energy_elec

    def __len__(self) -> int:
        return self.energy_lj.shape[0]


# scipy's minimize(method="L-BFGS-B") defaults, mirrored so the lockstep
# driver below follows the reference algorithm parameter-for-parameter.
_LBFGS_M = 10
_FACTR = 1e7
_PGTOL = 1e-5
_MAXLS = 20
_MAXFUN = 15000


class _LockstepState:
    """Per-pose ``setulb`` reverse-communication workspace.

    One instance drives one pose through the same L-BFGS-B state machine
    that :func:`minimize_rigid` delegates to scipy — identical algorithm,
    identical defaults — but yields control whenever the routine asks for
    an objective evaluation, so the batch driver can answer every pending
    request with a single fused kernel dispatch.
    """

    __slots__ = (
        "x", "f", "g", "low", "up", "nbd", "wa", "iwa", "task", "ln_task",
        "lsave", "isave", "dsave", "n_iterations", "nfev", "done", "success",
    )

    def __init__(self, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        n = x0.shape[0]
        m = _LBFGS_M
        self.x = np.array(x0, dtype=np.float64)
        self.f = np.array(0.0, dtype=np.float64)
        self.g = np.zeros(n, dtype=np.float64)
        self.low = np.where(np.isfinite(lower), lower, 0.0)
        self.up = np.where(np.isfinite(upper), upper, 0.0)
        nbd = np.zeros(n, dtype=np.int32)
        nbd[np.isfinite(lower) & np.isfinite(upper)] = 2
        nbd[np.isfinite(lower) & ~np.isfinite(upper)] = 1
        nbd[~np.isfinite(lower) & np.isfinite(upper)] = 3
        self.nbd = nbd
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, np.float64)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29, dtype=np.float64)
        self.n_iterations = 0
        self.nfev = 0
        self.done = False
        self.success = False

    def advance(self, setulb, max_iterations: int) -> bool:
        """Run the state machine until it wants ``(f, g)`` or finishes.

        Returns True when the pose is requesting an evaluation at
        ``self.x``; False when it has terminated (``self.done``).  Mirrors
        the reference driver loop in ``scipy.optimize._lbfgsb_py``,
        including the iteration/evaluation stop conditions.  ``setulb`` is
        the core's entry point, resolved by the caller once per batch.
        """
        while True:
            setulb(
                _LBFGS_M, self.x, self.low, self.up, self.nbd, self.f,
                self.g, _FACTR, _PGTOL, self.wa, self.iwa, self.task,
                self.lsave, self.isave, self.dsave, _MAXLS, self.ln_task,
            )
            if self.task[0] == 3:  # FG request
                self.nfev += 1
                return True
            if self.task[0] == 1:  # new iteration
                self.n_iterations += 1
                if self.n_iterations >= max_iterations:
                    self.task[0] = 5
                    self.task[1] = 504
                elif self.nfev > _MAXFUN:
                    self.task[0] = 5
                    self.task[1] = 502
                continue
            self.done = True
            self.success = bool(self.task[0] == 4)
            return False


def minimize_rigid_batch(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    start_translations: np.ndarray,
    start_eulers: np.ndarray,
    max_iterations: int = 200,
    translation_window: float = 15.0,
    energy_params: EnergyParams | None = None,
) -> BatchMinimizationResult:
    """Minimize a batch of rigid poses simultaneously (the batched engine).

    The batched counterpart of :func:`minimize_rigid`: every pose runs the
    *same* L-BFGS-B state machine as the scalar reference (scipy's
    reverse-communication ``setulb`` core with scipy's defaults), but all
    poses advance in lockstep and every round of pending objective requests
    is answered by one fused
    :func:`repro.maxdo.energy.batch_energy_and_pose_gradient` dispatch over
    the couple's cached :class:`~repro.maxdo.pairtable.PairTable`.  Poses
    that converge drop out of the evaluation batch (active-set freezing),
    so late stragglers don't pay for the whole batch.

    One starting position's 210 orientations thus cost a few hundred large
    numpy dispatches instead of ~10^4 tiny ones, while final poses agree
    with the scalar oracle to optimizer tolerance (same algorithm, same
    analytic gradients — see ``tests/test_maxdo_batched.py``).

    ``start_translations`` and ``start_eulers`` are ``(B, 3)`` arrays; the
    per-axis ``translation_window`` box is identical to the scalar path's.
    """
    start_t = np.atleast_2d(np.asarray(start_translations, dtype=np.float64))
    start_e = np.atleast_2d(np.asarray(start_eulers, dtype=np.float64))
    if start_t.shape[1:] != (3,) or start_e.shape[1:] != (3,):
        raise ValueError("start translations and eulers must have shape (B, 3)")
    if start_t.shape[0] != start_e.shape[0]:
        raise ValueError(
            f"batch size mismatch: {start_t.shape[0]} translations vs "
            f"{start_e.shape[0]} orientations"
        )
    n_poses = start_t.shape[0]
    x0 = np.hstack([start_t, start_e])

    _, core = scipy_lbfgsb()
    if core is None:  # pragma: no cover - scipy internals moved
        results = [
            minimize_rigid(
                receptor, ligand, x0[b, :3], x0[b, 3:],
                max_iterations=max_iterations,
                translation_window=translation_window,
                energy_params=energy_params,
            )
            for b in range(n_poses)
        ]
        return BatchMinimizationResult(
            energy_lj=np.array([r.energy_lj for r in results]),
            energy_elec=np.array([r.energy_elec for r in results]),
            translations=np.array([r.translation for r in results]),
            eulers=np.array([r.euler for r in results]),
            n_iterations=max_iterations,
            n_evaluations=sum(r.n_evaluations for r in results),
            converged=np.array([r.converged for r in results]),
        )

    table = pair_table(receptor, ligand, energy_params)
    lower = np.full(6, -np.inf)
    upper = np.full(6, np.inf)
    states = []
    for b in range(n_poses):
        lower[:3] = x0[b, :3] - translation_window
        upper[:3] = x0[b, :3] + translation_window
        states.append(_LockstepState(x0[b], lower, upper))

    rounds = 0
    setulb = core.setulb
    active = [s for s in states if s.advance(setulb, max_iterations)]
    while active:
        rounds += 1
        batch_x = np.stack([s.x for s in active])
        energy, grad = batch_energy_and_pose_gradient(table, batch_x)
        for i, state in enumerate(active):
            state.f = np.float64(energy[i])
            state.g = grad[i].copy()
        active = [s for s in active if s.advance(setulb, max_iterations)]

    x = np.stack([s.x for s in states])
    e_lj, e_elec = batch_interaction_energy(table, x)
    return BatchMinimizationResult(
        energy_lj=e_lj,
        energy_elec=e_elec,
        translations=x[:, :3].copy(),
        eulers=x[:, 3:].copy(),
        n_iterations=rounds,
        n_evaluations=sum(s.nfev for s in states) + n_poses,
        converged=np.array([s.success for s in states], dtype=bool),
    )
