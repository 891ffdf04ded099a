"""Analytic (fluid) full-scale campaign model.

The discrete-event simulator cannot run phase I at its real size (1.36M
workunits, ~5.4M results).  The fluid model integrates the campaign week by
week as a continuous flow — supply (VFTP from the share schedule and the
WCG growth trend) times efficiency (net speed-down, redundancy regime)
drains the receptor-batch queue — and produces the full-scale series behind
Figures 6a, 6b and 7 and the Table 2 averages.  The DES cross-validates the
fluid model at reduced scale (see ``bench_ablation_des_vs_fluid``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".model": ["FluidCampaign", "FluidResult"],
})
