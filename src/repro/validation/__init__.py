"""Result processing and verification (Section 5.2).

When a protein had been docked against all 168 others, WCG shipped the
results to a storage server where they were validated with three checks —
correct number of files, correct number of lines per file, values within
valid ranges — then merged into one file per couple (123 GB of text for
phase I).

* :mod:`repro.validation.checks` — the three checks;
* :mod:`repro.validation.merge` — the per-couple merge rules and the
  dataset volume model.

:mod:`repro.store` runs both over the columnar store.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checks": ["CheckReport", "ValueRanges"],
    ".merge": ["dataset_volume"],
})
