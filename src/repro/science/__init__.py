"""Scientific post-processing of the cross-docking results.

The point of HCMD phase I is scientific: "screening a database containing
thousands of proteins for functional sites involved in binding to other
protein targets" and the "identification of protein interaction partners
[...] via cross-docking simulations" (Sacquin-Mora et al., the paper's
reference [7]).  The 123 GB of energy maps exist to be turned into a
partner-prediction matrix.

This subpackage implements that downstream analysis:

* :mod:`repro.science.energymatrix` — the 168 x 168 best-interaction-energy
  matrix: computed with the real docking engine for small sets, or
  synthesized with planted complexes at paper scale;
* :mod:`repro.science.partners` — stickiness normalization (double
  centering), partner ranking, and recovery metrics against the planted
  complexes (each library protein "is known to take part in at least one
  identified protein-protein complex", Section 2.1).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".energymatrix": ["CrossDockingMatrix", "plant_complexes"],
    ".partners": [
        "PartnerPrediction", "double_centered", "predict_partners",
        "recovery_rate",
    ],
    ".sitemaps": ["SiteMaps"],
})
