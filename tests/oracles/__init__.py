"""Equivalence oracles: the slow, obviously-right twins of product code.

Each module holds an implementation the product used to ship beside its
fast path, moved here verbatim (import lines only) once the fast path
became the only one:

* :mod:`tests.oracles.des` — the original heap-of-dataclasses DES kernel,
  the fire-order oracle for ``repro.grid.des``;
* :mod:`tests.oracles.docking` — the per-pose scalar engine: the
  scalar energy kernels and ``pose_gradient``, oracles for the pose-batched
  ``repro.maxdo.energy`` kernels; ``minimize_rigid`` (one scipy call per
  pose), the oracle for ``minimize_rigid_batch``; and the per-orientation
  loop on them, the oracle for ``repro.maxdo.docking.dock_position``;
* :mod:`tests.oracles.resultfile` — the per-token parser and the per-row
  f-string formatter, oracles for ``read_results`` and
  ``repro.store.render_lines``; and, rebuilt on that parser, the
  text-file check and merge the product shipped until the store became
  the one result path — the verdict and merged-bytes oracles for
  ``repro.store.check_segment`` and ``merge_segments``;
* :mod:`tests.oracles.population` — the ``least_squares`` fit of the WCG
  trend, whose answer ``WCGPopulationModel.calibrated()`` returns frozen;
* :mod:`tests.oracles.agent` — ``SteppedAgent``, which fires an
  ``_interrupt`` and a ``_when_available`` event per availability gap,
  the oracle for ``VolunteerAgent._compute_step``'s walk of the trace;
* :mod:`tests.oracles.merge` — the concatenate-then-``lexsort`` merge
  order, the oracle for ``repro.validation.merge.key_order``, which
  concatenates chunks already in key order without sorting.

Only tests import this package (``tests/test_fleet.py`` pins that).  The
docstrings are frozen with the code and may name files as they were when
the oracle left the product.
"""
