"""Tests for repro.maxdo.checkpoint: restart-between-positions semantics."""

from __future__ import annotations

import pytest

from repro.maxdo.checkpoint import Checkpoint, rollback_partial_results
from repro.maxdo.resultfile import ResultHeader, write_results
from tests.oracles.resultfile import format_record
import numpy as np


def _ckpt(positions_done=0, nsep=5, n_couples=3):
    return Checkpoint(
        receptor="A", ligand="B", isep_start=1, nsep=nsep,
        n_couples=n_couples, n_gamma=10, positions_done=positions_done,
    )


def _partial(tmp_path, n_lines, n_couples=3):
    header = ResultHeader("A", "B", 1, 5, n_couples, 10)
    lines = [
        format_record(
            i // n_couples + 1, i % n_couples + 1, 1,
            np.zeros(3), np.zeros(3), -1.0, 0.5,
        )
        for i in range(n_lines)
    ]
    path = tmp_path / "x.partial"
    write_results(path, header, lines)
    return path


class TestCheckpoint:
    def test_lines_committed(self):
        assert _ckpt(positions_done=2, n_couples=3).lines_committed == 6

    def test_complete(self):
        assert not _ckpt(positions_done=4, nsep=5).complete
        assert _ckpt(positions_done=5, nsep=5).complete

    def test_save_load_roundtrip(self, tmp_path):
        ck = _ckpt(positions_done=3)
        path = tmp_path / "c.ckpt"
        ck.save(path)
        assert Checkpoint.load(path) == ck

    def test_load_rejects_corrupt(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _ckpt(positions_done=3).save(path)
        text = path.read_text().replace('"positions_done": 3', '"positions_done": 99')
        path.write_text(text)
        with pytest.raises(ValueError):
            Checkpoint.load(path)

    def test_advanced(self):
        ck = _ckpt(positions_done=1).advanced()
        assert ck.positions_done == 2

    def test_advanced_cannot_exceed_nsep(self):
        with pytest.raises(ValueError):
            _ckpt(positions_done=5, nsep=5).advanced()

    def test_save_is_atomic_replace(self, tmp_path):
        path = tmp_path / "c.ckpt"
        _ckpt(positions_done=1).save(path)
        _ckpt(positions_done=2).save(path)
        assert Checkpoint.load(path).positions_done == 2
        assert not path.with_suffix(".ckpt.tmp").exists()


class TestRollback:
    def test_rollback_drops_uncommitted_tail(self, tmp_path):
        # 2 positions committed (6 lines), 2 extra lines from a mid-position
        # kill: the paper says those must be recomputed.
        path = _partial(tmp_path, n_lines=8)
        dropped = rollback_partial_results(path, _ckpt(positions_done=2))
        assert dropped == 2
        data_lines = [
            ln for ln in path.read_text().splitlines() if not ln.startswith("#")
        ]
        assert len(data_lines) == 6

    def test_rollback_noop_when_consistent(self, tmp_path):
        path = _partial(tmp_path, n_lines=6)
        assert rollback_partial_results(path, _ckpt(positions_done=2)) == 0

    def test_rollback_preserves_header(self, tmp_path):
        path = _partial(tmp_path, n_lines=8)
        rollback_partial_results(path, _ckpt(positions_done=2))
        assert any(ln.startswith("# receptor A") for ln in path.read_text().splitlines())

    def test_rollback_rejects_missing_lines(self, tmp_path):
        path = _partial(tmp_path, n_lines=3)
        with pytest.raises(ValueError):
            rollback_partial_results(path, _ckpt(positions_done=2))
