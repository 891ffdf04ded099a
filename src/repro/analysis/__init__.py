"""Analysis and reporting: turning telemetry into the paper's tables/figures.

* :mod:`repro.analysis.timeseries` — CPU-time series to VFTP, weekly
  aggregation, phase segmentation (Figures 1 and 6a);
* :mod:`repro.analysis.distributions` — histogram builders for Figures 2,
  4 and 8;
* :mod:`repro.analysis.progression` — Figure 7 progression rendering and
  anchors;
* :mod:`repro.analysis.comparison` — the Table 2 equivalence;
* :mod:`repro.analysis.report` — plain-text table/histogram rendering and
  paper-vs-measured reports.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".comparison": ["EquivalenceTable"],
    ".distributions": ["histogram", "hour_bins"],
    ".progression": ["progression_anchor", "progression_curve"],
    ".report": ["paper_vs_measured", "render_histogram", "render_table"],
    ".timeseries": ["WeeklySeries", "cpu_days_to_vftp", "segment_phases"],
})
