"""Dedicated-grid (Grid'5000-like) simulator.

The paper uses a dedicated grid twice: to run the one-day calibration
campaign that measures the ``Mct`` matrix (640 Opteron 2 GHz processors,
Section 4.1), and as the comparison point for the volunteer grid
(Section 6, Table 2 — with the caveat that the comparison "supposes the
dedicated grid is optimally used").

:mod:`repro.dedicated.cluster` models homogeneous always-on processors;
:mod:`repro.dedicated.simulator` schedules task lists on them (FCFS list
scheduling, which for identical machines is a 2-approximation of the
optimal makespan — close enough to "optimally used").
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cluster": ["Cluster"],
    ".simulator": ["DedicatedGridSimulation", "DedicatedRunResult"],
})
