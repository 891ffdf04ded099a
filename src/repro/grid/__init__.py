"""Grid substrate: discrete-event kernel, host behaviour, population models.

Shared by the volunteer-grid simulator (:mod:`repro.boinc`) and the
dedicated-grid simulator (:mod:`repro.dedicated`):

* :mod:`repro.grid.des` — a minimal deterministic discrete-event kernel;
* :mod:`repro.grid.availability` — volunteer on/off availability traces;
* :mod:`repro.grid.host` — volunteer host specs (speed, duty cycle,
  reliability) calibrated to the paper's speed-down;
* :mod:`repro.grid.population` — the World Community Grid growth model
  behind Figure 1 and the HCMD share schedule of Figure 6a.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".availability": ["AvailabilityTrace"],
    ".des": ["Event", "Simulator"],
    ".host": ["HostPopulationModel", "HostSpec"],
    ".population": ["WCGPopulationModel", "hcmd_share_schedule"],
})
