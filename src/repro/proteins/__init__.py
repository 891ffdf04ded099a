"""Synthetic reduced-protein substrate.

The paper docks 168 real proteins (selected from the Mintseris docking
benchmark) using the Zacharias reduced protein model.  We cannot ship those
structures, so this subpackage synthesizes deterministic *reduced* proteins —
one bead per pseudo-residue, with van der Waals radii and partial charges —
whose population statistics are calibrated to the paper:

* the number of starting positions ``Nsep(p)`` around each protein follows
  the distribution of Figure 2 (most proteins below 3,000, one above 8,000),
* the sum of ``Nsep`` over all ordered couples equals the paper's maximum
  workunit count (49,481,544).

See :mod:`repro.proteins.model` for single-protein synthesis,
:mod:`repro.proteins.surface` for starting-position geometry and
:mod:`repro.proteins.library` for the calibrated 168-protein set.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".library": ["ProteinLibrary"],
    ".model": ["ReducedProtein", "synthesize_protein"],
    ".surface": ["geometric_nsep", "shell_radii", "starting_positions"],
})
