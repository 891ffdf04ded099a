"""Tests for repro.maxdo.docking: the energy-map driver and MaxDoRun."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.maxdo.docking import MaxDoRun, dock_couple, ligand_start_positions
from repro.maxdo.resultfile import expected_line_count
from repro.obs import Tracer
from repro.proteins.library import ProteinLibrary


def _dock(receptor, ligand, **kw):
    defaults = dict(
        isep_start=1, nsep=2, total_nsep=40, n_couples=3, n_gamma=2, minimize=False
    )
    defaults.update(kw)
    return dock_couple(receptor, ligand, **defaults)


class TestLigandStartPositions:
    def test_pushes_anchors_outward_radially(self, tiny_ligand):
        anchors = np.array([[10.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
        out = ligand_start_positions(anchors, tiny_ligand)
        r = tiny_ligand.bounding_radius
        np.testing.assert_allclose(out[0], [10.0 + r, 0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.0, 20.0 + r, 0.0])

    def test_directions_preserved(self, tiny_ligand):
        anchors = np.array([[3.0, 4.0, 0.0]])
        out = ligand_start_positions(anchors, tiny_ligand)
        np.testing.assert_allclose(
            out[0] / np.linalg.norm(out[0]), anchors[0] / 5.0
        )

    def test_clearance_prevents_deep_overlap(self, tiny_receptor, tiny_ligand):
        # Energies at offset start poses are finite and not astronomically
        # repulsive (the pre-offset bug buried the ligand inside the
        # receptor and produced 1e5-scale energies).
        r = dock_couple(
            tiny_receptor, tiny_ligand, isep_start=1, nsep=4, total_nsep=40,
            n_couples=2, n_gamma=1, minimize=False,
        )
        assert r.e_total.max() < 1e4


class TestDockCouple:
    def test_shapes(self, tiny_receptor, tiny_ligand):
        r = _dock(tiny_receptor, tiny_ligand)
        assert r.e_lj.shape == (2, 3, 2)
        assert r.positions.shape == (2, 3, 2, 3)

    def test_total_energy_is_sum(self, tiny_receptor, tiny_ligand):
        r = _dock(tiny_receptor, tiny_ligand)
        np.testing.assert_allclose(r.e_total, r.e_lj + r.e_elec)

    def test_slices_tile_consistently(self, tiny_receptor, tiny_ligand):
        # Workunit slices evaluate the SAME physical positions as one big
        # run — the invariant that makes per-couple slicing legal.
        full = _dock(tiny_receptor, tiny_ligand, isep_start=1, nsep=4, total_nsep=40)
        part1 = _dock(tiny_receptor, tiny_ligand, isep_start=1, nsep=2, total_nsep=40)
        part2 = _dock(tiny_receptor, tiny_ligand, isep_start=3, nsep=2, total_nsep=40)
        np.testing.assert_allclose(full.e_lj[:2], part1.e_lj)
        np.testing.assert_allclose(full.e_lj[2:], part2.e_lj)

    def test_best_index(self, tiny_receptor, tiny_ligand):
        r = _dock(tiny_receptor, tiny_ligand)
        p, c, g = r.best()
        assert r.e_total[p, c, g] == r.e_total.min()

    def test_minimize_improves_on_start(self, tiny_receptor, tiny_ligand):
        raw = _dock(tiny_receptor, tiny_ligand, nsep=1, n_couples=2, n_gamma=1)
        opt = _dock(
            tiny_receptor, tiny_ligand, nsep=1, n_couples=2, n_gamma=1,
            minimize=True, max_iterations=40,
        )
        assert (opt.e_total <= raw.e_total + 1e-9).all()

    def test_to_lines_one_per_couple(self, tiny_receptor, tiny_ligand):
        r = _dock(tiny_receptor, tiny_ligand)
        lines = r.to_lines()
        assert len(lines) == expected_line_count(2, 3)

    def test_bad_slice_rejected(self, tiny_receptor, tiny_ligand):
        with pytest.raises(ValueError):
            _dock(tiny_receptor, tiny_ligand, isep_start=40, nsep=2, total_nsep=40)
        with pytest.raises(ValueError):
            _dock(tiny_receptor, tiny_ligand, isep_start=0)


class TestMaxDoRun:
    def _run(self, tmp_path, receptor, ligand, **kw):
        defaults = dict(
            isep_start=1, nsep=3, total_nsep=40, workdir=tmp_path,
            n_couples=3, n_gamma=2, minimize=False,
        )
        defaults.update(kw)
        return MaxDoRun(receptor, ligand, **defaults)

    def test_run_to_completion(self, tmp_path, tiny_receptor, tiny_ligand):
        run = self._run(tmp_path, tiny_receptor, tiny_ligand)
        ck = run.run()
        assert ck.complete
        table = run.result_table()
        assert len(table) == expected_line_count(3, 3)

    def test_interrupt_resume_equals_straight_run(
        self, tmp_path, tiny_receptor, tiny_ligand
    ):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        straight = self._run(d1, tiny_receptor, tiny_ligand)
        straight.run()
        interrupted = self._run(d2, tiny_receptor, tiny_ligand)
        interrupted.run(max_positions=1)
        resumed = self._run(d2, tiny_receptor, tiny_ligand)
        resumed.run()
        a = straight.result_table().records
        b = resumed.result_table().records
        np.testing.assert_array_equal(a, b)

    def test_finalize(self, tmp_path, tiny_receptor, tiny_ligand):
        run = self._run(tmp_path, tiny_receptor, tiny_ligand)
        run.run()
        final = run.finalize()
        assert final.exists()
        assert not run.partial_path.exists()
        assert not run.checkpoint_path.exists()

    def test_finalize_incomplete_rejected(self, tmp_path, tiny_receptor, tiny_ligand):
        run = self._run(tmp_path, tiny_receptor, tiny_ligand)
        run.run(max_positions=1)
        with pytest.raises(RuntimeError):
            run.finalize()

    def test_mid_position_kill_rolls_back(self, tmp_path, tiny_receptor, tiny_ligand):
        run = self._run(tmp_path, tiny_receptor, tiny_ligand)
        run.run(max_positions=1)
        # Simulate a kill mid-position: a torn uncommitted segment appears.
        with run.partial_path.open("ab") as fh:
            fh.write(b"SEG1\x00\x01torn")
        resumed = self._run(tmp_path, tiny_receptor, tiny_ligand)
        ck = resumed.run()
        assert ck.complete
        assert len(resumed.result_table()) == expected_line_count(3, 3)


class TestExplicitTracer:
    """A tracer is an argument: what a run is handed is what it records."""

    def test_maxdo_run_records_each_positions_batch(
        self, tmp_path, tiny_receptor, tiny_ligand
    ):
        tracer = Tracer()
        MaxDoRun(
            tiny_receptor, tiny_ligand, 1, 2, 2, tmp_path, n_couples=2,
            n_gamma=2, max_iterations=3, tracer=tracer,
        ).run()
        assert tracer.counts == {
            "docking.engine": 1, "docking.batch": 2, "docking.checkpoint": 2,
        }
        batches = [e for e in tracer.sink if e.etype == "docking.batch"]
        assert [e.fields["n_poses"] for e in batches] == [4, 4]

    def test_dock_couple_records_engine_batch_and_positions(
        self, tiny_receptor, tiny_ligand
    ):
        tracer = Tracer()
        _dock(
            tiny_receptor, tiny_ligand, minimize=True, max_iterations=3,
            tracer=tracer,
        )
        assert tracer.counts == {
            "docking.engine": 1, "docking.batch": 2, "docking.position": 2,
        }


#: sha256 of ``finalize()``'s output for a minimized workunit that was
#: interrupted after one of its three starting positions and resumed.
#: Recorded while text mode still streamed a text partial file, so they
#: also pin that the partial format never changes the final bytes.
FINALIZE_SHA256 = {
    ((2, 3), "text"): "487f1293e88efec97b351da199222092267d64324e997623e80952b498661fb5",
    ((2, 3), "columnar"): "1823fee1da58e0dc399b1a2725de6be344e837a439a9eb4788331245b631725c",
    ((3, 2), "text"): "960a230af1b57ba2f22d309877478c9aec0c117731267db540ada6ef5e35ae78",
    ((3, 2), "columnar"): "142a6c1fb9bf2769200abcdd98250303a99228674f1d516e17be80b79dd7d7ee",
}


@pytest.mark.parametrize(
    "couple, result_format", sorted(FINALIZE_SHA256),
    ids=[f"{i}-{j}-{fmt}" for (i, j), fmt in sorted(FINALIZE_SHA256)],
)
def test_resumed_finalize_bytes_pinned(tmp_path, couple, result_format):
    library = ProteinLibrary.synthetic(4, sum_nsep=40, seed=3)
    receptor, ligand = (library.protein(i) for i in couple)
    kw = dict(
        isep_start=1, nsep=3, total_nsep=int(library.nsep[couple[0]]),
        workdir=tmp_path, n_couples=4, n_gamma=3, result_format=result_format,
    )
    MaxDoRun(receptor, ligand, **kw).run(max_positions=1)
    run = MaxDoRun(receptor, ligand, **kw)
    assert run.run().complete
    digest = hashlib.sha256(run.finalize().read_bytes()).hexdigest()
    assert digest == FINALIZE_SHA256[couple, result_format]


@pytest.mark.parametrize("cut", [0, 100, -1], ids=["zeros", "part", "all-but-one"])
def test_a_kill_inside_a_segment_resumes_to_the_pinned_bytes(tmp_path, cut):
    """A kill (or a power loss) inside a position's frame leaves it partly
    written, then zeros: the resume drops it and redoes the position."""
    library = ProteinLibrary.synthetic(4, sum_nsep=40, seed=3)
    receptor, ligand = library.protein(2), library.protein(3)
    kw = dict(
        isep_start=1, nsep=3, total_nsep=int(library.nsep[2]), n_couples=4,
        n_gamma=3, result_format="columnar",
    )
    ahead = MaxDoRun(receptor, ligand, workdir=tmp_path / "ahead", **kw)
    ahead.run(max_positions=2)
    run = MaxDoRun(receptor, ligand, workdir=tmp_path / "run", **kw)
    run.run(max_positions=1)
    committed, ahead_bytes = run.partial_path.read_bytes(), ahead.partial_path.read_bytes()
    assert ahead_bytes.startswith(committed)
    frame = ahead_bytes[len(committed):]
    cut %= len(frame)
    run.partial_path.write_bytes(committed + frame[:cut] + bytes(len(frame) - cut))
    run = MaxDoRun(receptor, ligand, workdir=tmp_path / "run", **kw)
    assert run.run().complete
    digest = hashlib.sha256(run.finalize().read_bytes()).hexdigest()
    assert digest == FINALIZE_SHA256[(2, 3), "columnar"]
