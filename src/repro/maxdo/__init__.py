"""MAXDo — Molecular Association via Cross-Docking simulations (reproduction).

The original MAXDo program (Sacquin-Mora et al.) systematically docks couples
of rigid reduced proteins: for every starting position ``isep`` of the ligand
around the receptor and every starting orientation ``irot``, it minimizes a
simplified interaction energy (Lennard-Jones + electrostatics) over the six
rigid-body degrees of freedom and records the optimum.

This subpackage reimplements that pipeline on the synthetic substrate of
:mod:`repro.proteins`:

* :mod:`repro.maxdo.orientations` — the 21 (alpha, beta) starting-orientation
  couples x 10 gamma values of the paper (footnote 1);
* :mod:`repro.maxdo.energy` — pose-batched interaction energy and 6-DOF
  gradients (the per-pose scalar kernels they are bit-identical to are
  the test oracle ``tests/oracles/docking.py``);
* :mod:`repro.maxdo.pairtable` — cached pose-invariant per-couple arrays
  feeding the batched kernels;
* :mod:`repro.maxdo.minimize` — rigid-body 6-DOF minimization, every pose
  of a batch in lockstep through scipy's L-BFGS-B core;
* :mod:`repro.maxdo.docking` — the isep x irot energy-map driver (one
  engine: all orientations of a position in lockstep), optional
  process-pool fan-out over starting positions, checkpointing
  (:mod:`repro.maxdo.checkpoint`) and the text result format
  (:mod:`repro.maxdo.resultfile`);
* :mod:`repro.maxdo.cost_model` — the computing-time model of Section 4.1:
  a calibrated 168 x 168 ``Mct`` matrix with the paper's linearity
  properties, which the packaging/scheduling layers consume.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cost_model": ["CostModel"],
    ".docking": ["DockingResult", "MaxDoRun", "dock_couple"],
    ".energy": ["batch_energy_and_pose_gradient", "batch_interaction_energy"],
    ".minimize": ["minimize_rigid_batch"],
    ".orientations": [
        "gamma_values", "orientation_couples", "rotation_matrix",
    ],
    ".pairtable": ["PairTable", "pair_table"],
})
