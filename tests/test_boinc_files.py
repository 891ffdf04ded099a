"""Tests for repro.boinc.files: workunit input bundles."""

from __future__ import annotations

import pytest

from repro import constants as C
from repro.boinc.files import (
    PROGRAM_BYTES,
    pack_workunit,
    run_from_bundle,
    unpack_workunit,
)
from repro.core.workunit import WorkUnit
from repro.maxdo.resultfile import expected_line_count


def _wu(**kw):
    defaults = dict(
        wu_id=7, receptor=0, ligand=1, isep_start=3, nsep=2,
        cost_reference_s=1234.5,
    )
    defaults.update(kw)
    return WorkUnit(**defaults)


class TestPackUnpack:
    def test_roundtrip(self, tmp_path, tiny_receptor, tiny_ligand):
        bundle_dir = pack_workunit(
            tmp_path, _wu(), tiny_receptor, tiny_ligand,
            total_nsep=40, n_couples=4, n_gamma=2,
        )
        bundle = unpack_workunit(bundle_dir)
        assert bundle.workunit.wu_id == 7
        assert bundle.workunit.isep_start == 3
        assert bundle.workunit.nsep == 2
        assert bundle.total_nsep == 40
        assert bundle.receptor.n_beads == tiny_receptor.n_beads
        assert bundle.ligand.name == tiny_ligand.name

    def test_bundle_contains_four_files(self, tmp_path, tiny_receptor, tiny_ligand):
        bundle_dir = pack_workunit(
            tmp_path, _wu(), tiny_receptor, tiny_ligand, total_nsep=40
        )
        names = sorted(f.name for f in bundle_dir.iterdir())
        assert names == ["ligand.rpm", "params.txt", "program.bin", "receptor.rpm"]

    def test_respects_2mb_budget(self, tmp_path, tiny_receptor, tiny_ligand):
        bundle_dir = pack_workunit(
            tmp_path, _wu(), tiny_receptor, tiny_ligand, total_nsep=40
        )
        bundle = unpack_workunit(bundle_dir)
        assert bundle.total_bytes <= C.MAX_WORKUNIT_INPUT_BYTES
        assert bundle.total_bytes > PROGRAM_BYTES  # program dominates

    def test_biggest_phase1_couple_fits(self, tmp_path, phase1_library):
        # The two largest proteins of the library still fit the budget.
        import numpy as np

        order = np.argsort(phase1_library.residue_counts)[::-1]
        big1 = phase1_library.protein(int(order[0]))
        big2 = phase1_library.protein(int(order[1]))
        bundle_dir = pack_workunit(
            tmp_path, _wu(), big1, big2,
            total_nsep=int(phase1_library.nsep[int(order[0])]),
        )
        assert unpack_workunit(bundle_dir).total_bytes <= C.MAX_WORKUNIT_INPUT_BYTES

    def test_oversized_bundle_rejected(self, tmp_path, tiny_receptor, tiny_ligand):
        with pytest.raises(ValueError, match="budget"):
            pack_workunit(
                tmp_path, _wu(), tiny_receptor, tiny_ligand, total_nsep=40,
                program_bytes=3 * 10**6,
            )

    def test_missing_params_field(self, tmp_path, tiny_receptor, tiny_ligand):
        bundle_dir = pack_workunit(
            tmp_path, _wu(), tiny_receptor, tiny_ligand, total_nsep=40
        )
        params = bundle_dir / "params.txt"
        params.write_text(
            "\n".join(
                ln for ln in params.read_text().splitlines()
                if not ln.startswith("NSEP ")
            )
        )
        with pytest.raises(ValueError, match="NSEP"):
            unpack_workunit(bundle_dir)


class TestRunFromBundle:
    def test_executes_and_produces_results(
        self, tmp_path, tiny_receptor, tiny_ligand
    ):
        bundle_dir = pack_workunit(
            tmp_path / "in", _wu(), tiny_receptor, tiny_ligand,
            total_nsep=40, n_couples=3, n_gamma=2,
        )
        bundle = unpack_workunit(bundle_dir)
        run = run_from_bundle(bundle, tmp_path / "out", minimize=False)
        ck = run.run()
        assert ck.complete
        table = run.result_table()
        assert len(table) == expected_line_count(2, 3)

    def test_bundle_run_matches_direct_run(
        self, tmp_path, tiny_receptor, tiny_ligand
    ):
        import numpy as np

        from repro.maxdo.docking import MaxDoRun

        bundle_dir = pack_workunit(
            tmp_path / "in", _wu(), tiny_receptor, tiny_ligand,
            total_nsep=40, n_couples=3, n_gamma=2,
        )
        bundle = unpack_workunit(bundle_dir)
        via_bundle = run_from_bundle(bundle, tmp_path / "a", minimize=False)
        via_bundle.run()
        direct = MaxDoRun(
            tiny_receptor, tiny_ligand, isep_start=3, nsep=2, total_nsep=40,
            workdir=tmp_path / "b", n_couples=3, n_gamma=2, minimize=False,
        )
        direct.run()
        a = via_bundle.result_table().records
        b = direct.result_table().records
        # The fixed-width protein format rounds coordinates to 1e-5 A, so
        # energies agree to formatting precision rather than bit-exactly.
        np.testing.assert_allclose(a["e_tot"], b["e_tot"], rtol=2e-3, atol=2e-3)
