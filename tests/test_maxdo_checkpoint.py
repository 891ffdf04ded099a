"""Tests for repro.maxdo.checkpoint: restart-between-positions semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maxdo.checkpoint import Checkpoint
from repro.maxdo.resultfile import RESULT_DTYPE, ResultHeader
from repro.store.format import (
    STORE_MAGIC,
    ColumnarSegment,
    StoreWriter,
    read_store,
    rollback_partial_store,
)


def _ckpt(positions_done=0, nsep=5, n_couples=3):
    return Checkpoint(
        receptor="A", ligand="B", isep_start=1, nsep=nsep,
        n_couples=n_couples, n_gamma=10, positions_done=positions_done,
    )


def _partial(tmp_path, n_positions, n_couples=3):
    """A partial store as MaxDoRun streams it: one segment per position."""
    path = tmp_path / "x.partial.rcs"
    with StoreWriter(path) as writer:
        for isep in range(1, n_positions + 1):
            rec = np.zeros(n_couples, dtype=RESULT_DTYPE)
            rec["isep"], rec["irot"], rec["igamma"] = isep, np.arange(1, n_couples + 1), 1
            rec["e_lj"], rec["e_elec"], rec["e_tot"] = -1.0, 0.5, -0.5
            header = ResultHeader("A", "B", isep, 1, n_couples, 10)
            writer.append(ColumnarSegment.from_records(header, rec))
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
        # 2 positions committed (6 rows), a third position appended but
        # killed before its checkpoint: the paper says it is recomputed.
        path = _partial(tmp_path, n_positions=3)
        with path.open("ab") as fh:
            fh.write(b"SEG1\x00\x01torn")  # and a kill mid-append
        dropped = rollback_partial_store(path, _ckpt(positions_done=2).lines_committed)
        assert dropped == 3
        assert read_store(path).n_rows == 6

    def test_rollback_noop_when_consistent(self, tmp_path):
        path = _partial(tmp_path, n_positions=2)
        size = path.stat().st_size
        assert rollback_partial_store(path, _ckpt(positions_done=2).lines_committed) == 0
        assert path.stat().st_size == size

    def test_rollback_preserves_header(self, tmp_path):
        path = _partial(tmp_path, n_positions=3)
        rollback_partial_store(path, _ckpt(positions_done=2).lines_committed)
        assert path.read_bytes()[: len(STORE_MAGIC)] == STORE_MAGIC
        headers = [s.header for s in read_store(path).segments]
        assert [(h.receptor, h.ligand, h.isep_start) for h in headers] == [
            ("A", "B", 1), ("A", "B", 2)
        ]

    def test_rollback_rejects_missing_lines(self, tmp_path):
        path = _partial(tmp_path, n_positions=1)
        with pytest.raises(ValueError, match="checkpoint claims 6"):
            rollback_partial_store(path, _ckpt(positions_done=2).lines_committed)
