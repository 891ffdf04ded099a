"""Equivalence suite for the batched docking engine.

The docking engine (pose-vectorized kernels, lockstep L-BFGS-B, optional
fused C kernels) is contractually *bit-identical* to the scalar
one-scipy-call-per-orientation oracle (``tests/oracles/docking.py``) —
not merely close.  On the rugged LJ landscape a 1e-15 kernel
discrepancy amplifies chaotically through the minimizer into O(1) kcal/mol
final-energy differences, so these tests assert exact equality wherever
the contract promises it, and the looser paper-level tolerances (1e-9
kernels, 1e-6 final energies) on top as the documented guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxdo import energy as energy_mod
from repro.maxdo import pairtable
from repro.maxdo.docking import (
    DockingResult,
    MaxDoRun,
    dock_couple,
    ligand_start_positions,
)
from repro.maxdo.energy import (
    EnergyParams,
    batch_energy_and_pose_gradient,
    batch_interaction_energy,
)
from repro.maxdo.minimize import minimize_rigid_batch
from repro.maxdo.orientations import (
    gamma_values,
    orientation_couples,
    rotation_matrix,
)
from repro.maxdo.pairtable import pair_table
from repro.proteins.surface import starting_positions
from tests.oracles.docking import (
    dock_position_reference,
    interaction_energy,
    minimize_rigid,
    pose_gradient,
)
from tests.oracles.resultfile import format_record


def _oracle_dock_couple(receptor, ligand, nsep, minimize=True, max_iterations=60):
    """``dock_couple`` over ``[1, nsep]`` with the scalar oracle per position."""
    positions = ligand_start_positions(starting_positions(receptor, nsep), ligand)
    maps = [
        dock_position_reference(
            receptor, ligand, pos, orientation_couples(), gamma_values(),
            minimize, max_iterations,
        )
        for pos in positions
    ]
    e_lj, e_elec, fpos, feul = (np.stack(parts) for parts in zip(*maps))
    return DockingResult(
        receptor=receptor.name, ligand=ligand.name, isep_start=1,
        e_lj=e_lj, e_elec=e_elec, positions=fpos, eulers=feul,
    )


#: the defaults, then one departure per ``EnergyParams`` field
PARAM_VARIANTS = (
    EnergyParams(),
    EnergyParams(dielectric=60.0),
    EnergyParams(debye_length_a=2.0),
    EnergyParams(lj_scale=0.5),
    EnergyParams(softening_a=0.0),
)


def _orientation_poses(receptor, ligand, n_positions=1):
    """The paper's 210-orientation pose grid at real starting positions."""
    couples = orientation_couples()
    gammas = gamma_values()
    anchors = ligand_start_positions(
        starting_positions(receptor, max(n_positions, 2)), ligand
    )[:n_positions]
    poses = []
    for pos in anchors:
        for alpha, beta in couples:
            for gamma in gammas:
                poses.append([*pos, alpha, beta, gamma])
    return np.asarray(poses)


def _oracle_lines(result):
    """``DockingResult.to_lines`` as a per-row loop over ``format_record``."""
    lines = []
    n_pos, n_cpl, _ = result.e_lj.shape
    for p in range(n_pos):
        for c in range(n_cpl):
            g = int(np.argmin(result.e_total[p, c]))
            lines.append(
                format_record(
                    result.isep_start + p, c + 1, g + 1,
                    result.positions[p, c, g], result.eulers[p, c, g],
                    float(result.e_lj[p, c, g]), float(result.e_elec[p, c, g]),
                )
            )
    return lines


# --- kernel equivalence -------------------------------------------------


class TestBatchKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        dist=st.floats(0.7, 3.0),
        theta=st.floats(0.0, np.pi),
        phi=st.floats(0.0, 2.0 * np.pi),
        alpha=st.floats(-7.0, 7.0),
        beta=st.floats(-7.0, 7.0),
        gamma=st.floats(-7.0, 7.0),
    )
    def test_energy_matches_scalar(
        self, tiny_receptor, tiny_ligand, dist, theta, phi, alpha, beta, gamma
    ):
        """batch_interaction_energy == interaction_energy, pose by pose."""
        r = dist * (tiny_receptor.bounding_radius + tiny_ligand.bounding_radius)
        t = r * np.array(
            [
                np.sin(theta) * np.cos(phi),
                np.sin(theta) * np.sin(phi),
                np.cos(theta),
            ]
        )
        pose = np.array([[*t, alpha, beta, gamma]])
        table = pair_table(tiny_receptor, tiny_ligand)
        lj_b, el_b = batch_interaction_energy(table, pose)
        lj_s, el_s = interaction_energy(
            tiny_receptor, tiny_ligand, rotation_matrix(alpha, beta, gamma), t
        )
        np.testing.assert_allclose(lj_b[0], lj_s, rtol=1e-9, atol=0)
        np.testing.assert_allclose(el_b[0], el_s, rtol=1e-9, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(
        dist=st.floats(0.7, 3.0),
        theta=st.floats(0.0, np.pi),
        phi=st.floats(0.0, 2.0 * np.pi),
        alpha=st.floats(-7.0, 7.0),
        beta=st.floats(-7.0, 7.0),
        gamma=st.floats(-7.0, 7.0),
    )
    def test_gradient_matches_scalar(
        self, tiny_receptor, tiny_ligand, dist, theta, phi, alpha, beta, gamma
    ):
        """batch_energy_and_pose_gradient == pose_gradient, pose by pose."""
        r = dist * (tiny_receptor.bounding_radius + tiny_ligand.bounding_radius)
        t = r * np.array(
            [
                np.sin(theta) * np.cos(phi),
                np.sin(theta) * np.sin(phi),
                np.cos(theta),
            ]
        )
        pose = np.array([[*t, alpha, beta, gamma]])
        table = pair_table(tiny_receptor, tiny_ligand)
        e_b, g_b = batch_energy_and_pose_gradient(table, pose)
        e_s, g_s = pose_gradient(tiny_receptor, tiny_ligand, pose[0])
        np.testing.assert_allclose(e_b[0], e_s, rtol=1e-9, atol=0)
        np.testing.assert_allclose(g_b[0], g_s, rtol=1e-9, atol=1e-300)

    def test_bit_identical_on_orientation_grid(self, tiny_receptor, tiny_ligand):
        """On the paper's 210-pose grid the kernels are exactly equal under
        the defaults and a departure in each ``EnergyParams`` field — the
        property the trajectory equivalence below rests on, and what ties
        the product to the oracle's physics tests."""
        poses = _orientation_poses(tiny_receptor, tiny_ligand)
        for params in PARAM_VARIANTS:
            table = pair_table(tiny_receptor, tiny_ligand, params)
            lj_b, el_b = batch_interaction_energy(table, poses)
            e_b, g_b = batch_energy_and_pose_gradient(table, poses)
            for i, pose in enumerate(poses):
                lj_s, el_s = interaction_energy(
                    tiny_receptor,
                    tiny_ligand,
                    rotation_matrix(*pose[3:]),
                    pose[:3],
                    params=params,
                )
                e_s, g_s = pose_gradient(tiny_receptor, tiny_ligand, pose, params)
                assert lj_b[i] == lj_s and el_b[i] == el_s, (params, i)
                assert e_b[i] == e_s and (g_b[i] == g_s).all(), (params, i)

    def test_numpy_fallback_is_also_bit_identical(
        self, tiny_receptor, tiny_ligand, monkeypatch
    ):
        """Without the fused C kernels (no compiler on the host) the numpy
        broadcast fallback must preserve the same bit-parity contract."""
        poses = _orientation_poses(tiny_receptor, tiny_ligand)[:40]
        table = pair_table(tiny_receptor, tiny_ligand)
        fused_lj, fused_el = batch_interaction_energy(table, poses)
        fused_e, fused_g = batch_energy_and_pose_gradient(table, poses)
        monkeypatch.setattr(energy_mod, "_fused_ready", lambda n: False)
        lj, el = batch_interaction_energy(table, poses)
        e, g = batch_energy_and_pose_gradient(table, poses)
        assert (lj == fused_lj).all() and (el == fused_el).all()
        assert (e == fused_e).all() and (g == fused_g).all()
        e_s, g_s = pose_gradient(tiny_receptor, tiny_ligand, poses[7])
        assert e[7] == e_s and (g[7] == g_s).all()

    def test_batch_minimize_retraces_scalar_trajectories(
        self, tiny_receptor, tiny_ligand
    ):
        """Lockstep batch minimization lands exactly where the scalar
        minimizer does, pose for pose (not just within tolerance)."""
        poses = _orientation_poses(tiny_receptor, tiny_ligand)[:12]
        batch = minimize_rigid_batch(
            tiny_receptor,
            tiny_ligand,
            poses[:, :3],
            poses[:, 3:],
            max_iterations=40,
        )
        for i, pose in enumerate(poses):
            res = minimize_rigid(
                tiny_receptor, tiny_ligand, pose[:3], pose[3:], max_iterations=40
            )
            assert batch.energy_lj[i] == res.energy_lj
            assert batch.energy_elec[i] == res.energy_elec
            assert (batch.translations[i] == res.translation).all()
            assert (batch.eulers[i] == res.euler).all()
            # the documented guarantee, subsumed by the equality above
            assert abs(batch.energy_lj[i] + batch.energy_elec[i]
                       - res.energy_total) <= 1e-6


# --- pair-table cache ---------------------------------------------------


class TestPairTableCache:
    def test_cache_hit_on_same_couple(self, tiny_receptor, tiny_ligand):
        pairtable.cache_clear()
        t1 = pair_table(tiny_receptor, tiny_ligand)
        before = pairtable.cache_info()
        t2 = pair_table(tiny_receptor, tiny_ligand)
        after = pairtable.cache_info()
        assert t2 is t1
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_distinct_params_miss(self, tiny_receptor, tiny_ligand):
        pairtable.cache_clear()
        t1 = pair_table(tiny_receptor, tiny_ligand)
        t2 = pair_table(
            tiny_receptor, tiny_ligand, EnergyParams(dielectric=30.0)
        )
        assert t2 is not t1
        assert pairtable.cache_info().misses == 2

    def test_table_arrays_read_only(self, tiny_receptor, tiny_ligand):
        t = pair_table(tiny_receptor, tiny_ligand)
        for arr in (t.sigma2, t.eps_geom, t.eps_lj, t.q_coef):
            assert not arr.flags.writeable


# --- engine wiring ------------------------------------------------------


class TestEngineEquivalence:
    def test_dock_couple_engines_bit_identical(self, tiny_receptor, tiny_ligand):
        kw = dict(nsep=2, max_iterations=30)
        batched = dock_couple(tiny_receptor, tiny_ligand, **kw)
        reference = _oracle_dock_couple(tiny_receptor, tiny_ligand, **kw)
        assert (batched.e_lj == reference.e_lj).all()
        assert (batched.e_elec == reference.e_elec).all()
        assert (batched.positions == reference.positions).all()
        assert (batched.eulers == reference.eulers).all()
        assert batched.to_lines() == reference.to_lines()
        # documented guarantee (subsumed by the exact equality above)
        assert np.abs(batched.e_total - reference.e_total).max() <= 1e-6

    def test_dock_couple_engines_agree_without_minimization(
        self, tiny_receptor, tiny_ligand
    ):
        batched = dock_couple(tiny_receptor, tiny_ligand, nsep=2, minimize=False)
        reference = _oracle_dock_couple(
            tiny_receptor, tiny_ligand, nsep=2, minimize=False
        )
        assert (batched.e_lj == reference.e_lj).all()
        assert (batched.e_elec == reference.e_elec).all()
        assert (batched.positions == reference.positions).all()
        assert (batched.eulers == reference.eulers).all()

    def test_batched_is_faster_smoke(self, tiny_receptor, tiny_ligand):
        """Cheap sanity check that batching actually pays off against the
        scalar oracle loop (the absolute figure is ``docking_workunit`` in
        ``benchmarks/e2e``)."""
        import time

        kw = dict(nsep=1, max_iterations=20)
        t0 = time.perf_counter()
        dock_couple(tiny_receptor, tiny_ligand, **kw)
        t_batched = time.perf_counter() - t0
        t0 = time.perf_counter()
        _oracle_dock_couple(tiny_receptor, tiny_ligand, **kw)
        t_reference = time.perf_counter() - t0
        assert t_batched < t_reference


class TestParallelFanOut:
    def test_n_workers_bit_identical(self, tiny_receptor, tiny_ligand):
        kw = dict(nsep=3, max_iterations=20)
        serial = dock_couple(tiny_receptor, tiny_ligand, **kw)
        fanned = dock_couple(tiny_receptor, tiny_ligand, n_workers=2, **kw)
        assert (serial.e_lj == fanned.e_lj).all()
        assert (serial.e_elec == fanned.e_elec).all()
        assert (serial.positions == fanned.positions).all()
        assert (serial.eulers == fanned.eulers).all()
        assert serial.to_lines() == fanned.to_lines()

    def test_invalid_worker_count(self, tiny_receptor, tiny_ligand):
        with pytest.raises(ValueError, match="n_workers"):
            dock_couple(
                tiny_receptor, tiny_ligand, nsep=1, minimize=False, n_workers=0
            )


class TestMaxDoRunBatched:
    def test_checkpoint_resume_with_batched_default(
        self, tiny_receptor, tiny_ligand, tmp_path
    ):
        kw = dict(
            isep_start=1, nsep=2, total_nsep=2, minimize=True, max_iterations=20
        )
        run = MaxDoRun(
            tiny_receptor, tiny_ligand, workdir=tmp_path / "batched", **kw
        )
        ckpt = run.run(max_positions=1)
        assert not ckpt.complete and ckpt.positions_done == 1
        resumed = MaxDoRun(
            tiny_receptor, tiny_ligand, workdir=tmp_path / "batched", **kw
        )
        assert resumed.run().complete
        text = resumed.finalize().read_text(encoding="ascii")
        data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]

        # the finalized file is the best-of-gamma rows of the scalar
        # oracle's energies, formatted row by row
        oracle = _oracle_dock_couple(
            tiny_receptor, tiny_ligand, nsep=2, max_iterations=20
        )
        assert data_lines == _oracle_lines(oracle) == oracle.to_lines()


# --- starting-position regressions -------------------------------------


class TestStartingPositionGuards:
    def test_zero_norm_anchor_raises(self, tiny_ligand):
        anchors = np.array([[12.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm anchor"):
            ligand_start_positions(anchors, tiny_ligand)

    def test_real_anchors_still_offset(self, tiny_receptor, tiny_ligand):
        anchors = starting_positions(tiny_receptor, 5)
        offset = ligand_start_positions(anchors, tiny_ligand)
        norms_in = np.linalg.norm(anchors, axis=1)
        norms_out = np.linalg.norm(offset, axis=1)
        np.testing.assert_allclose(
            norms_out - norms_in, tiny_ligand.bounding_radius, rtol=1e-12
        )

    def test_starting_positions_memoized(self, tiny_receptor):
        a = starting_positions(tiny_receptor, 7)
        b = starting_positions(tiny_receptor, 7)
        assert a is b
        assert not a.flags.writeable
        assert starting_positions(tiny_receptor, 8) is not a
