"""Integration tests: the full pipeline wired end to end.

Calibration -> estimation -> packaging -> (volunteer | dedicated | fluid)
execution -> analysis, on reduced-size inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comparison import EquivalenceTable
from repro.analysis.progression import progression_anchor
from repro.boinc.simulator import scaled_phase1
from repro.core.campaign import CampaignPlan
from repro.core.estimation import calibration_experiment, estimate_total_work
from repro.core.packaging import PackagingPolicy, WorkUnitPlan
from repro.dedicated import DedicatedGridSimulation
from repro.fluid import FluidCampaign
from repro.maxdo.cost_model import CostModel
from repro.proteins.library import ProteinLibrary


class TestCalibrationToPackaging:
    """Section 4's pipeline: measure, estimate, slice."""

    def test_recovered_matrix_packages_like_truth(self, small_library):
        truth = CostModel.calibrated(small_library)
        _, recovered = calibration_experiment(truth, samples_per_couple=21)
        approx = CostModel(
            recovered, small_library.nsep.copy(), seed=small_library.seed
        )
        plan_true = WorkUnitPlan(truth, PackagingPolicy(5))
        plan_meas = WorkUnitPlan(approx, PackagingPolicy(5))
        # Measurement noise changes only a tiny fraction of the slicing.
        assert plan_meas.total_workunits() == pytest.approx(
            plan_true.total_workunits(), rel=0.05
        )

    def test_estimation_consistent_with_plan(self, small_library, small_cost_model):
        report = estimate_total_work(small_library, small_cost_model)
        plan = WorkUnitPlan(small_cost_model, PackagingPolicy(5))
        assert plan.total_reference_cpu() == pytest.approx(
            report.total_reference_cpu_s, rel=1e-9
        )


class TestVolunteerVsDedicated:
    """Table 2's content, generated from the two simulators."""

    def test_equivalence_table_from_simulations(self):
        sim = scaled_phase1(scale=250, n_proteins=12)
        volunteer = sim.run()
        metrics = volunteer.metrics()
        # A dedicated cluster sized by the equivalence finishes the same
        # useful work in roughly the same wall-clock.  Scaled campaigns have
        # a fractional equivalent, expressed as 4 slower processors.
        dedicated = DedicatedGridSimulation(
            n_processors=4, speed=metrics.dedicated_equivalent / 4
        ).run_workunits(sim.plan, lpt=True)
        # cpu_seconds are billed at the cluster's own (slower) speed.
        assert dedicated.cpu_seconds == pytest.approx(
            metrics.useful_reference_cpu_s * 4 / metrics.dedicated_equivalent,
            rel=1e-6,
        )
        assert dedicated.makespan_s == pytest.approx(metrics.span_seconds, rel=0.35)
        table = EquivalenceTable.from_metrics(metrics, metrics)
        # The equivalence ratio IS the raw speed-down (unrounded row).
        assert table.whole_period.speed_down == pytest.approx(
            metrics.speed_down_raw, rel=1e-9
        )


class TestFluidVsDES:
    """The fluid model and the DES must agree on scale-free outcomes."""

    def test_completion_and_redundancy_agree(self):
        sim = scaled_phase1(scale=150, n_proteins=16)
        des = sim.run()
        from repro import constants as C

        fluid = FluidCampaign(
            sim.campaign,
            sim.plan.duration_stats()["mean"],
            share_schedule=sim.share_schedule,
            population=sim.population,
            # Match the fluid supply to the reduced workload so both models
            # integrate the same campaign shape.
            supply_scale=sim.campaign.total_work / C.TOTAL_REFERENCE_CPU_S,
        )
        fres = fluid.run()
        assert des.completion_weeks == pytest.approx(
            26.0, abs=7.0
        )  # both land in the right regime
        assert fres.completion_week == pytest.approx(26.0, abs=3.0)
        assert des.metrics().redundancy == pytest.approx(
            fres.overall_redundancy, abs=0.25
        )

    def test_progression_shape_agrees(self):
        sim = scaled_phase1(scale=150, n_proteins=16)
        des = sim.run()
        # DES: at the moment 50% of useful work is done, how many batches
        # are complete?  Compare against the campaign-plan snapshot.
        stats = des.server.stats
        half_work = 0.5 * stats.useful_reference_s
        anchor_protein, _ = progression_anchor(
            CampaignPlan(sim.library, sim.cost_model), 0.5
        )
        order = des.batch_completion_s[np.argsort(des.batch_completion_s)]
        # Batch completions are increasing in release order on average: the
        # fluid prediction of "more proteins than work" holds.
        assert anchor_protein > 0.5


class TestRealDockingThroughPackaging:
    """A real (tiny) workunit computed by the MAXDo engine."""

    def test_workunit_executes_and_validates(self, tmp_path):
        from repro.maxdo.docking import MaxDoRun
        from repro.store import check_segment, segment_from_text

        library = ProteinLibrary.synthetic(n_proteins=2, sum_nsep=24, seed=3)
        cost_model = CostModel.calibrated(library)
        plan = WorkUnitPlan(cost_model, PackagingPolicy(target_hours=10))
        wu = next(plan.iter_workunits([(0, 1)]))
        receptor = library.protein(0)
        ligand = library.protein(1)
        nsep_slice = min(wu.nsep, 2)  # keep the real compute tiny
        run = MaxDoRun(
            receptor, ligand,
            isep_start=wu.isep_start, nsep=nsep_slice,
            total_nsep=int(library.nsep[0]),
            workdir=tmp_path, n_couples=4, n_gamma=2,
            minimize=True, max_iterations=10,
        )
        ck = run.run()
        assert ck.complete
        final = run.finalize()
        assert check_segment(segment_from_text(final)).ok
