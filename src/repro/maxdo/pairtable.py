"""Pose-invariant pair tables for the batched docking kernels.

Every term of the reduced interaction energy factors into a part that
depends only on *which* beads interact (the Lorentz combination
``sigma = r_i + r_j``, the geometric well depth ``sqrt(eps_i eps_j)``, the
charge product ``k q_i q_j / eps_r``) and a part that depends on the pose
(the distances).  The per-pose scalar kernels (the test oracle
``tests/oracles/docking.py``) recombine the bead part on every call —
~10^4–10^5 times per workunit, once per minimizer line-search step.
A :class:`PairTable` precomputes those combination arrays once per
``(receptor, ligand, EnergyParams)`` and the batched kernels in
:mod:`repro.maxdo.energy` reuse them across every pose of every starting
position of the couple.

Tables are served through a small identity-keyed LRU cache
(:func:`pair_table`): a couple docked across many positions — or resumed
from a checkpoint — builds its table exactly once.  The cache holds strong
references to the proteins it keys on, so the ``id``-based keys can never
alias a dead object.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..proteins.model import ReducedProtein
from .energy import COULOMB_CONSTANT, EnergyParams

__all__ = ["PairTable", "pair_table", "cache_info", "cache_clear"]

#: Maximum number of cached tables; a workunit touches one couple, the
#: science sweeps a handful at a time.
_CACHE_MAX = 8


@dataclass(frozen=True, eq=False)
class PairTable:
    """Precomputed per-couple combination arrays, ligand-major ``(m, n)``.

    ``sigma2[j, i] = (r_j + r_i)^2``, ``eps_lj = lj_scale * sqrt(e_j e_i)``
    and ``q_coef = k q_j q_i / eps_r`` for ligand bead ``j`` against
    receptor bead ``i`` — everything the pairwise kernels need besides the
    pose-dependent distances.
    """

    receptor: ReducedProtein
    ligand: ReducedProtein
    params: EnergyParams
    sigma2: np.ndarray  #: (m, n) squared Lorentz radii sums
    eps_geom: np.ndarray  #: (m, n) geometric-mean well depths (unscaled)
    eps_lj: np.ndarray  #: (m, n) ``lj_scale``-scaled well depths
    q_coef: np.ndarray  #: (m, n) Coulomb prefactor * charge products

    @classmethod
    def build(
        cls,
        receptor: ReducedProtein,
        ligand: ReducedProtein,
        params: EnergyParams | None = None,
    ) -> "PairTable":
        """Compute the combination arrays for one couple (uncached).

        Operation association mirrors the scalar oracle kernels exactly
        (e.g. ``(k/eps_r) * qq`` with ``qq`` the charge outer product), so
        the batched kernels are bit-identical to them, not merely close —
        the batched minimizer then follows the very same descent
        trajectories.  Both the unscaled well depths (the energy kernel
        applies ``lj_scale`` after summation, as the oracle's
        ``pair_energies`` does) and the pre-scaled ones (the gradient
        kernel applies it per element, as its ``energy_and_bead_gradient``
        does) are kept.
        """
        p = params if params is not None else EnergyParams()
        sigma = ligand.radii[:, None] + receptor.radii[None, :]
        sigma2 = sigma * sigma
        eps_geom = np.sqrt(ligand.epsilons[:, None] * receptor.epsilons[None, :])
        eps_lj = p.lj_scale * eps_geom
        qq = ligand.charges[:, None] * receptor.charges[None, :]
        q_coef = COULOMB_CONSTANT / p.dielectric * qq
        for arr in (sigma2, eps_geom, eps_lj, q_coef):
            arr.setflags(write=False)
        return cls(
            receptor=receptor,
            ligand=ligand,
            params=p,
            sigma2=sigma2,
            eps_geom=eps_geom,
            eps_lj=eps_lj,
            q_coef=q_coef,
        )

    @property
    def shape(self) -> tuple[int, int]:
        """(n_ligand_beads, n_receptor_beads)."""
        return self.sigma2.shape  # type: ignore[return-value]


class CacheInfo(NamedTuple):
    """Hit/miss statistics of the module-level table cache."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


_cache: "OrderedDict[tuple[int, int, EnergyParams], PairTable]" = OrderedDict()
_hits = 0
_misses = 0


def pair_table(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    params: EnergyParams | None = None,
) -> PairTable:
    """Return the (cached) :class:`PairTable` for a couple.

    Keyed on the *identity* of the protein objects plus the (hashable)
    :class:`EnergyParams` — proteins hold numpy arrays and are not
    themselves hashable.  Cached tables keep their proteins alive, so an
    ``id`` collision with a garbage-collected protein is impossible; the
    identity check below makes the key exact rather than probabilistic.
    """
    global _hits, _misses
    p = params if params is not None else EnergyParams()
    key = (id(receptor), id(ligand), p)
    entry = _cache.get(key)
    if entry is not None and entry.receptor is receptor and entry.ligand is ligand:
        _hits += 1
        _cache.move_to_end(key)
        return entry
    _misses += 1
    table = PairTable.build(receptor, ligand, p)
    _cache[key] = table
    _cache.move_to_end(key)
    while len(_cache) > _CACHE_MAX:
        _cache.popitem(last=False)
    return table


def cache_info() -> CacheInfo:
    """Current cache statistics (mirrors ``functools.lru_cache``)."""
    return CacheInfo(_hits, _misses, _CACHE_MAX, len(_cache))


def cache_clear() -> None:
    """Drop all cached tables and reset the statistics."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0
