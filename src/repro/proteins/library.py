"""The calibrated protein set.

Phase I of HCMD targets 168 proteins whose starting-position counts
``Nsep(p)`` were "evaluated by another program for each protein"
(Section 2.1).  The paper gives three population-level facts about them:

* Figure 2 — the ``Nsep`` distribution: most proteins below 3,000 starting
  positions, one above 8,000;
* Section 4.1 — the project can generate at most 49,481,544 workunits,
  i.e. ``sum over ordered couples (p1, p2) of Nsep(p1)`` which pins
  ``sum_p Nsep(p)`` to 294,533;
* the per-couple compute times correlate with protein size (10 proteins
  carry 30% of the time).

This module synthesizes a deterministic library matching those facts.  The
shape of the ``Nsep`` distribution is a stratified lognormal (quantile
sampling, so the shape is exact rather than a lucky draw), scaled so the sum
matches the paper's figure to the unit.  Each protein's residue count is
then chosen so that the *geometric* starting-position model of
:mod:`repro.proteins.surface` reproduces its ``Nsep`` at a single global
spacing — keeping the substrate physically self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .. import constants
from .._cache import stratified
from ..rng import stream, substream
from .model import ReducedProtein, synthesize_protein
from .surface import CLEARANCE_A, SHELL_STEP_A, SHELLS_PER_RADIUS_A
from .model import PACKING_RADIUS_A

__all__ = ["ProteinLibrary", "NSEP_LOGNORMAL_SIGMA"]

#: Lognormal shape parameter of the Nsep distribution.  Chosen so that, for
#: 168 stratified quantiles, most proteins fall below 3,000 positions while
#: the largest exceeds 8,000 once scaled to the paper's total (Figure 2).
NSEP_LOGNORMAL_SIGMA = 0.65

#: Residue count around which the shell spacing is normalized (a typical
#: globular protein).
_REFERENCE_RESIDUES = 250

#: Mean bead van der Waals radius, used by the analytic envelope estimate.
_MEAN_BEAD_RADIUS_A = 2.65

_MIN_RESIDUES = 16
_MAX_RESIDUES = 40_000


def _analytic_shell_area(n_residues: float) -> float:
    """Total shell area (A^2) of the analytic envelope for ``n_residues``.

    Mirrors :func:`repro.proteins.surface.shell_radii` but uses the analytic
    globule radius instead of synthesized beads, so the library can be
    calibrated without building coordinates (bead synthesis is lazy).
    """
    radius = PACKING_RADIUS_A * n_residues ** (1.0 / 3.0) + _MEAN_BEAD_RADIUS_A
    base = radius + CLEARANCE_A
    n_shells = max(1, int(round(radius / SHELLS_PER_RADIUS_A)))
    radii = base + SHELL_STEP_A * np.arange(n_shells)
    return float(4.0 * np.pi * (radii**2).sum())


def _invert_residues(target_area: float) -> int:
    """Smallest residue count whose analytic shell area reaches ``target_area``."""
    lo, hi = _MIN_RESIDUES, _MAX_RESIDUES
    if _analytic_shell_area(lo) >= target_area:
        return lo
    if _analytic_shell_area(hi) < target_area:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _analytic_shell_area(mid) < target_area:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class ProteinLibrary:
    """A calibrated set of proteins with authoritative ``Nsep`` values.

    ``nsep`` is the table the rest of the system consumes (packaging,
    estimation, simulation) — exactly as in the paper, where the ``Nsep``
    table is an input produced by a separate program.  Bead-level structures
    are synthesized lazily on first access to :meth:`protein`.
    """

    names: list[str]
    nsep: np.ndarray  #: (n,) int64 starting positions per protein
    residue_counts: np.ndarray  #: (n,) int64 pseudo-residues per protein
    spacing: float  #: global starting-position spacing (Angstrom)
    seed: int
    _cache: dict[int, ReducedProtein] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.nsep = np.asarray(self.nsep, dtype=np.int64)
        self.residue_counts = np.asarray(self.residue_counts, dtype=np.int64)
        n = len(self.names)
        if self.nsep.shape != (n,) or self.residue_counts.shape != (n,):
            raise ValueError("names, nsep and residue_counts must have equal length")
        if (self.nsep < 1).any():
            raise ValueError("every protein needs at least one starting position")

    # -- construction ------------------------------------------------------

    @classmethod
    def phase1(cls, seed: int = constants.DEFAULT_SEED) -> "ProteinLibrary":
        """The full 168-protein phase-I library calibrated to the paper."""
        return cls.synthetic(
            n_proteins=constants.N_PROTEINS,
            sum_nsep=constants.SUM_NSEP,
            seed=seed,
        )

    @classmethod
    def synthetic(
        cls,
        n_proteins: int,
        sum_nsep: int | None = None,
        seed: int = constants.DEFAULT_SEED,
        sigma: float = NSEP_LOGNORMAL_SIGMA,
    ) -> "ProteinLibrary":
        """Build a calibrated library of ``n_proteins`` proteins.

        ``sum_nsep`` defaults to the paper's total scaled by the protein
        count, so reduced-size libraries keep the same per-protein scale.
        """
        if n_proteins < 1:
            raise ValueError(f"need at least one protein, got {n_proteins}")
        if sum_nsep is None:
            sum_nsep = max(
                n_proteins, round(constants.SUM_NSEP * n_proteins / constants.N_PROTEINS)
            )
        if sum_nsep < n_proteins:
            raise ValueError("sum_nsep must allow at least one position per protein")

        shape = np.exp(sigma * stratified("ndtri", n_proteins))  # unit-median lognormal
        rng = stream(seed, "protein-library")
        shape = shape[rng.permutation(n_proteins)]

        raw = shape * (sum_nsep / shape.sum())
        nsep = np.maximum(1, np.round(raw).astype(np.int64))
        # Largest-remainder style correction so the sum is exact: adjust the
        # biggest proteins, which absorb +-1 without distorting the shape.
        residual = int(sum_nsep - nsep.sum())
        if residual:
            order = np.argsort(nsep)[::-1]
            step = 1 if residual > 0 else -1
            i = 0
            while residual != 0:
                j = order[i % n_proteins]
                if nsep[j] + step >= 1:
                    nsep[j] += step
                    residual -= step
                i += 1

        # Normalize the spacing so a reference-size protein carries the
        # median Nsep, then invert the geometry per protein.
        median_nsep = float(np.median(nsep))
        spacing = float(
            np.sqrt(_analytic_shell_area(_REFERENCE_RESIDUES) / median_nsep)
        )
        target_areas = nsep.astype(np.float64) * spacing**2
        residues = np.array(
            [_invert_residues(a) for a in target_areas], dtype=np.int64
        )

        width = len(str(n_proteins))
        names = [f"P{i + 1:0{width}d}" for i in range(n_proteins)]
        return cls(
            names=names,
            nsep=nsep,
            residue_counts=residues,
            spacing=spacing,
            seed=seed,
        )

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        """Index of the protein called ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no protein named {name!r}") from None

    def protein(self, index: int) -> ReducedProtein:
        """Synthesize (lazily, cached) the bead structure of protein ``index``."""
        if not 0 <= index < len(self):
            raise IndexError(f"protein index {index} out of range 0..{len(self) - 1}")
        cached = self._cache.get(index)
        if cached is None:
            rng = substream(self.seed, "protein-structure", index)
            cached = synthesize_protein(
                self.names[index], int(self.residue_counts[index]), rng
            )
            self._cache[index] = cached
        return cached

    def couples(self) -> Iterator[tuple[int, int]]:
        """All ordered (receptor, ligand) index couples, diagonal included.

        The paper docks all 168 x 168 ordered couples (MAXDo is not
        symmetric and self-docking is part of the cross-docking matrix).
        """
        n = len(self)
        for i in range(n):
            for j in range(n):
                yield (i, j)

    @property
    def n_couples(self) -> int:
        """Number of ordered couples (``n**2``)."""
        return len(self) ** 2

    @property
    def total_max_workunits(self) -> int:
        """Maximum generatable workunits: ``sum over couples of Nsep(p1)``.

        For the phase-1 library this reproduces the paper's 49,481,544.
        """
        return int(self.nsep.sum()) * len(self)

    def size_scale(self) -> np.ndarray:
        """Per-protein size factors (unit mean) used by the cost model.

        Compute time grows with the number of bead pairs, i.e. with the
        product of residue counts; this exposes the per-protein factor.
        """
        sizes = self.residue_counts.astype(np.float64)
        return sizes / sizes.mean()
