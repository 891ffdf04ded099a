"""Rigid-body interaction-energy minimization.

MAXDo searches optimal interaction geometries "using multiple energy
minimizations with a regular array of starting positions and orientations"
(Section 2).  The minimization runs over the six rigid-body degrees of
freedom of the ligand: the mass-center translation ``(x, y, z)`` and the
ZYZ Euler orientation ``(alpha, beta, gamma)``.

One engine minimizes: :func:`minimize_rigid_batch` drives every pose of
a batch through scipy's L-BFGS-B ``setulb`` core in lockstep.  The
objective gradient is analytic: per-bead energy gradients are chained
through the pose parametrization (``d pose / d translation`` is the
identity; ``d pose / d angle`` uses the analytic Euler-derivative
matrices) by :func:`repro.maxdo.energy.batch_energy_and_pose_gradient`.
The per-pose ``minimize_rigid`` it is bit-identical to is the test oracle
in ``tests/oracles/docking.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..proteins.model import ReducedProtein
from .energy import (
    EnergyParams,
    batch_energy_and_pose_gradient,
    batch_interaction_energy,
)
from .pairtable import pair_table

__all__ = [
    "BatchMinimizationResult",
    "minimize_rigid_batch",
    "scipy_lbfgsb",
]


def scipy_lbfgsb():
    """scipy's reverse-communication L-BFGS-B core, imported on first call.

    The module whose ``setulb`` scipy's own L-BFGS-B loop wraps.  Only a
    process that minimizes pays for ``scipy.optimize`` (~0.4 s):
    :func:`minimize_rigid_batch` resolves it once per call, outside every
    loop, and :func:`repro.maxdo.docking.dock_couple` calls this before it
    forks a pool so workers inherit the import instead of each repeating
    it.
    """
    from scipy.optimize import _lbfgsb

    return _lbfgsb


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
    that scipy's ``minimize(method="L-BFGS-B")`` runs — identical
    algorithm, identical defaults — but yields control whenever the
    routine asks for an objective evaluation, so the batch loop can answer
    every pending request with a single fused kernel dispatch.
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
    """Minimize a batch of rigid poses simultaneously, in lockstep.

    Every pose runs the *same* L-BFGS-B state machine as one scipy
    ``minimize(method="L-BFGS-B")`` call per pose (scipy's
    reverse-communication ``setulb`` core with scipy's defaults), but all
    poses advance in lockstep and every round of pending objective requests
    is answered by one fused
    :func:`repro.maxdo.energy.batch_energy_and_pose_gradient` dispatch over
    the couple's cached :class:`~repro.maxdo.pairtable.PairTable`.  Poses
    that converge drop out of the evaluation batch (active-set freezing),
    so late stragglers don't pay for the whole batch.

    One starting position's 210 orientations thus cost a few hundred large
    numpy dispatches instead of ~10^4 tiny ones, while final poses equal
    those of the per-pose ``minimize_rigid`` oracle in
    ``tests/oracles/docking.py`` bit for bit (same algorithm, same
    analytic gradients — see ``tests/test_maxdo_batched.py``).

    ``start_translations`` and ``start_eulers`` are ``(B, 3)`` arrays.  The
    per-axis ``translation_window`` (Angstrom) box around each start keeps
    every starting position in its own basin, as the regular-array search
    intends; unbounded, a pose in a repulsive basin would escape to
    infinity (net energy ~ 0 at large separation).
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

    setulb = scipy_lbfgsb().setulb
    table = pair_table(receptor, ligand, energy_params)
    lower = np.full(6, -np.inf)
    upper = np.full(6, np.inf)
    states = []
    for b in range(n_poses):
        lower[:3] = x0[b, :3] - translation_window
        upper[:3] = x0[b, :3] + translation_window
        states.append(_LockstepState(x0[b], lower, upper))

    rounds = 0
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
