"""Starting orientations.

The paper fixes the orientation sampling to "21 couples (alpha, beta) for 10
values of gamma" (footnote 1): 210 starting orientations per starting
position, grouped in 21 orientation couples — the unit in which packaging
and the cost matrix count work.

``(alpha, beta)`` are the azimuth/colatitude of the ligand's principal axis
direction (sampled quasi-uniformly on the sphere) and ``gamma`` the spin
about that axis.  Rotations use the ZYZ Euler convention
``R = Rz(alpha) @ Ry(beta) @ Rz(gamma)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..proteins.surface import fibonacci_sphere

__all__ = [
    "N_COUPLES",
    "N_GAMMA",
    "orientation_couples",
    "gamma_values",
    "rotation_matrix",
    "rotation_matrices",
    "euler_from_matrix",
]

#: Paper values (Section 2.1, footnote 1).
N_COUPLES = 21
N_GAMMA = 10


@lru_cache(maxsize=64)
def _orientation_couples_cached(n: int) -> np.ndarray:
    dirs = fibonacci_sphere(n)
    alpha = np.arctan2(dirs[:, 1], dirs[:, 0])
    beta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    couples = np.column_stack((alpha, beta))
    couples.setflags(write=False)
    return couples


def orientation_couples(n: int = N_COUPLES) -> np.ndarray:
    """Return ``n`` (alpha, beta) couples as an (n, 2) array in radians.

    Directions come from the deterministic Fibonacci sphere so the couples
    form a "regular array" as in the paper; alpha in [-pi, pi), beta in
    [0, pi].  The enumeration is pure in ``n``, so results are memoized and
    returned as shared read-only arrays — ``MaxDoRun.run`` and
    ``dock_couple`` stop regenerating the identical grid on every
    call/resume.
    """
    return _orientation_couples_cached(int(n))


@lru_cache(maxsize=64)
def _gamma_values_cached(n: int) -> np.ndarray:
    values = np.linspace(0.0, 2.0 * np.pi, num=n, endpoint=False)
    values.setflags(write=False)
    return values


def gamma_values(n: int = N_GAMMA) -> np.ndarray:
    """Return ``n`` evenly spaced spin angles in [0, 2*pi).

    Memoized (shared read-only array), like :func:`orientation_couples`.
    """
    if n < 1:
        raise ValueError(f"need at least one gamma value, got {n}")
    return _gamma_values_cached(int(n))


def _rz(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """ZYZ Euler rotation ``Rz(alpha) @ Ry(beta) @ Rz(gamma)`` as (3, 3)."""
    return _rz(alpha) @ _ry(beta) @ _rz(gamma)


def rotation_matrices(angles: np.ndarray) -> np.ndarray:
    """Vectorized ZYZ rotations: ``angles`` is (m, 3), result is (m, 3, 3)."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 2 or angles.shape[1] != 3:
        raise ValueError(f"angles must be (m, 3), got {angles.shape}")
    ca, sa = np.cos(angles[:, 0]), np.sin(angles[:, 0])
    cb, sb = np.cos(angles[:, 1]), np.sin(angles[:, 1])
    cg, sg = np.cos(angles[:, 2]), np.sin(angles[:, 2])
    out = np.empty((angles.shape[0], 3, 3))
    out[:, 0, 0] = ca * cb * cg - sa * sg
    out[:, 0, 1] = -ca * cb * sg - sa * cg
    out[:, 0, 2] = ca * sb
    out[:, 1, 0] = sa * cb * cg + ca * sg
    out[:, 1, 1] = -sa * cb * sg + ca * cg
    out[:, 1, 2] = sa * sb
    out[:, 2, 0] = -sb * cg
    out[:, 2, 1] = sb * sg
    out[:, 2, 2] = cb
    return out


def _rz_batch(angles: np.ndarray, derivative: bool = False) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    out = np.zeros(angles.shape + (3, 3))
    if derivative:
        out[:, 0, 0], out[:, 0, 1] = -s, -c
        out[:, 1, 0], out[:, 1, 1] = c, -s
    else:
        out[:, 0, 0], out[:, 0, 1] = c, -s
        out[:, 1, 0], out[:, 1, 1] = s, c
        out[:, 2, 2] = 1.0
    return out


def _ry_batch(angles: np.ndarray, derivative: bool = False) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    out = np.zeros(angles.shape + (3, 3))
    if derivative:
        out[:, 0, 0], out[:, 0, 2] = -s, c
        out[:, 2, 0], out[:, 2, 2] = -c, -s
    else:
        out[:, 0, 0], out[:, 0, 2] = c, s
        out[:, 1, 1] = 1.0
        out[:, 2, 0], out[:, 2, 2] = -s, c
    return out


def euler_from_matrix(rotation: np.ndarray) -> tuple[float, float, float]:
    """Recover ZYZ Euler angles (alpha, beta, gamma) from a rotation matrix.

    Degenerate cases (beta ~ 0 or pi) resolve with gamma = 0 by convention.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise ValueError(f"rotation must be (3, 3), got {rotation.shape}")
    beta = float(np.arccos(np.clip(rotation[2, 2], -1.0, 1.0)))
    if np.sin(beta) > 1e-10:
        alpha = float(np.arctan2(rotation[1, 2], rotation[0, 2]))
        gamma = float(np.arctan2(rotation[2, 1], -rotation[2, 0]))
    else:
        # Rz(alpha) and Rz(gamma) are colinear: fold everything into alpha.
        # For beta ~ 0, R = Rz(alpha + gamma); for beta ~ pi,
        # R = [[-c, -s, 0], [-s, c, 0], [0, 0, -1]] with angle alpha - gamma.
        alpha = float(np.arctan2(rotation[1, 0], rotation[0, 0]))
        if rotation[2, 2] < 0:
            alpha = float((alpha + 2.0 * np.pi) % (2.0 * np.pi) - np.pi)
        gamma = 0.0
    return alpha, beta, gamma
