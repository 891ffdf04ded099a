"""Tests for repro.proteins.io: the reduced-protein file format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.proteins.io import (
    protein_file_bytes,
    read_protein,
    write_protein,
)


class TestRoundtrip:
    def test_exact_roundtrip_structure(self, tmp_path, tiny_receptor):
        path = tmp_path / "p.rpm"
        write_protein(path, tiny_receptor)
        back = read_protein(path)
        assert back.name == tiny_receptor.name
        assert back.n_beads == tiny_receptor.n_beads
        np.testing.assert_allclose(back.coords, tiny_receptor.coords, atol=6e-6)
        np.testing.assert_allclose(back.radii, tiny_receptor.radii, atol=6e-5)
        np.testing.assert_allclose(back.charges, tiny_receptor.charges, atol=6e-6)

    def test_roundtrip_preserves_energy(self, tmp_path, tiny_receptor, tiny_ligand):
        # The fixed-width format must carry enough precision that docking
        # energies computed from a round-tripped protein match closely.
        from tests.oracles.docking import interaction_energy

        for p in (tiny_receptor, tiny_ligand):
            write_protein(tmp_path / f"{p.name}.rpm", p)
        rec = read_protein(tmp_path / f"{tiny_receptor.name}.rpm")
        lig = read_protein(tmp_path / f"{tiny_ligand.name}.rpm")
        t = np.array(
            [tiny_receptor.bounding_radius + tiny_ligand.bounding_radius + 4, 0, 0]
        )
        orig = interaction_energy(tiny_receptor, tiny_ligand, np.eye(3), t)
        reread = interaction_energy(rec, lig, np.eye(3), t)
        assert reread[0] == pytest.approx(orig[0], rel=1e-3, abs=1e-5)
        assert reread[1] == pytest.approx(orig[1], rel=1e-3, abs=1e-5)

    def test_reported_size_matches_disk(self, tmp_path, tiny_receptor):
        path = tmp_path / "p.rpm"
        size = write_protein(path, tiny_receptor)
        assert path.stat().st_size == size

    def test_size_projection_close(self, tmp_path, tiny_receptor):
        path = tmp_path / "p.rpm"
        actual = write_protein(path, tiny_receptor)
        projected = protein_file_bytes(tiny_receptor.n_beads)
        assert actual == pytest.approx(projected, rel=0.02)


class TestMalformed:
    def _write_and_mangle(self, tmp_path, protein, mangle):
        path = tmp_path / "p.rpm"
        write_protein(path, protein)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mangle(lines)) + "\n")
        return path

    def test_wrong_magic(self, tmp_path, tiny_receptor):
        path = self._write_and_mangle(
            tmp_path, tiny_receptor, lambda ls: ["garbage"] + ls[1:]
        )
        with pytest.raises(ValueError, match="not a reduced-protein"):
            read_protein(path)

    def test_wrong_version(self, tmp_path, tiny_receptor):
        path = self._write_and_mangle(
            tmp_path, tiny_receptor,
            lambda ls: ["# repro reduced protein v99"] + ls[1:],
        )
        with pytest.raises(ValueError, match="version"):
            read_protein(path)

    def test_bead_count_mismatch(self, tmp_path, tiny_receptor):
        path = self._write_and_mangle(
            tmp_path, tiny_receptor,
            lambda ls: ls[:-2] + ls[-1:],  # drop one BEAD record
        )
        with pytest.raises(ValueError, match="NBEAD"):
            read_protein(path)

    def test_truncated_file(self, tmp_path, tiny_receptor):
        path = self._write_and_mangle(
            tmp_path, tiny_receptor, lambda ls: ls[:-1]  # drop END
        )
        with pytest.raises(ValueError, match="truncated"):
            read_protein(path)

    def test_malformed_bead(self, tmp_path, tiny_receptor):
        def mangle(ls):
            ls[4] = "BEAD 2 not numbers"
            return ls

        path = self._write_and_mangle(tmp_path, tiny_receptor, mangle)
        with pytest.raises(ValueError, match="BEAD"):
            read_protein(path)

    def test_unexpected_line(self, tmp_path, tiny_receptor):
        path = self._write_and_mangle(
            tmp_path, tiny_receptor, lambda ls: ls[:3] + ["WAT 1"] + ls[3:]
        )
        with pytest.raises(ValueError, match="unexpected"):
            read_protein(path)
