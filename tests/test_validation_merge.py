"""At-scale tests of the text merge path and its error reporting.

``merge_couple_results`` is the server-side step that turns a couple's
chunked workunit uploads into the one-file-per-couple dataset; a phase-I
couple arrives in dozens of chunks, so these tests exercise the tiling
validation at that scale and pin the contract that every gap / overlap /
duplicate-chunk failure names the offending upload file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.maxdo.resultfile import (
    RESULT_DTYPE,
    ResultHeader,
    read_results,
    write_results,
)
from repro.rng import stream
from repro.cli import main as cli_main
from repro.store import (
    merge_segments,
    render_lines,
    segment_from_text,
    text_to_store,
)
from repro.validation.merge import merge_couple_results

N_ROT = 4
N_GAMMA = 6


def _chunk_records(rng, isep_start, nsep):
    n = nsep * N_ROT
    rec = np.zeros(n, dtype=RESULT_DTYPE)
    rec["isep"] = np.repeat(np.arange(isep_start, isep_start + nsep), N_ROT)
    rec["irot"] = np.tile(np.arange(1, N_ROT + 1), nsep)
    rec["igamma"] = rng.integers(1, N_GAMMA + 1, size=n)
    for f in ("x", "y", "z"):
        rec[f] = np.round(rng.normal(0.0, 40.0, n), 3)
    for f in ("alpha", "beta", "gamma"):
        rec[f] = np.round(rng.uniform(0.0, 6.2831, n), 4)
    rec["e_lj"] = np.round(rng.normal(-30.0, 12.0, n), 4)
    rec["e_elec"] = np.round(rng.normal(-8.0, 4.0, n), 4)
    rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4)
    return rec


def _write_chunk(
    path, rec, receptor="P001", ligand="P002", n_couples=N_ROT, n_gamma=N_GAMMA
):
    header = ResultHeader(
        receptor=receptor, ligand=ligand,
        isep_start=int(rec["isep"].min()),
        nsep=int(rec["isep"].max() - rec["isep"].min() + 1),
        n_couples=n_couples, n_gamma=n_gamma,
    )
    write_results(path, header, render_lines(rec))
    return path


@pytest.fixture
def chunk_dir(tmp_path):
    """64 chunks of one couple, nsep=3 each, written in shuffled order."""
    rng = stream(21, "merge-scale")
    paths = []
    for k in range(64):
        rec = _chunk_records(rng, isep_start=1 + 3 * k, nsep=3)
        paths.append(_write_chunk(tmp_path / f"chunk_{k:03d}.result", rec))
    shuffled = [paths[i] for i in rng.permutation(len(paths))]
    return tmp_path, paths, shuffled


class TestMergeAtScale:
    def test_merges_64_shuffled_chunks(self, chunk_dir):
        tmp_path, paths, shuffled = chunk_dir
        out = tmp_path / "merged.result"
        n = merge_couple_results(shuffled, out)
        assert n == 64 * 3 * N_ROT
        table = read_results(out)
        assert table.header.isep_start == 1
        assert table.header.nsep == 192
        rec = table.records
        # Globally sorted by (isep, irot, igamma).
        keys = np.lexsort((rec["igamma"], rec["irot"], rec["isep"]))
        assert np.array_equal(keys, np.arange(len(rec)))

    def test_order_independent(self, chunk_dir):
        tmp_path, paths, shuffled = chunk_dir
        a, b = tmp_path / "a.result", tmp_path / "b.result"
        merge_couple_results(paths, a)
        merge_couple_results(shuffled, b)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_columnar_merge(self, chunk_dir):
        tmp_path, paths, shuffled = chunk_dir
        out = tmp_path / "merged.result"
        merge_couple_results(shuffled, out)
        merged = merge_segments([segment_from_text(p) for p in shuffled])
        twin = tmp_path / "twin.result"
        from repro.store import segment_to_text

        segment_to_text(merged, twin)
        assert twin.read_bytes() == out.read_bytes()


class TestMergeErrorsNameTheChunk:
    def test_gap_names_first_chunk_after_the_hole(self, chunk_dir):
        tmp_path, paths, _ = chunk_dir
        missing = paths[:17] + paths[18:]  # drop chunk 17 (isep 52..54)
        with pytest.raises(ValueError) as err:
            merge_couple_results(missing, tmp_path / "out.result")
        assert "gap at 55 (expected 52)" in str(err.value)
        assert "chunk_018.result" in str(err.value)

    def test_overlap_names_the_overlapping_chunk(self, chunk_dir):
        tmp_path, paths, _ = chunk_dir
        rng = stream(22, "merge-overlap")
        # A chunk whose slice starts inside chunk 5's (isep 16..18).
        rec = _chunk_records(rng, isep_start=17, nsep=3)
        bad = _write_chunk(tmp_path / "straddler.result", rec)
        with pytest.raises(ValueError) as err:
            merge_couple_results(paths + [bad], tmp_path / "out.result")
        assert "overlap at 17" in str(err.value)
        assert "straddler.result" in str(err.value)

    def test_duplicate_chunk_named(self, chunk_dir):
        tmp_path, paths, _ = chunk_dir
        dup = tmp_path / "resent_upload.result"
        dup.write_bytes(paths[3].read_bytes())  # chunk 3 uploaded twice
        with pytest.raises(ValueError) as err:
            merge_couple_results(paths + [dup], tmp_path / "out.result")
        # The duplicate slice [10..12] collides; the error carries the
        # colliding file's name (sorted ties break on the name).
        assert "overlap at 10 (expected 13)" in str(err.value)
        assert "resent_upload.result" in str(err.value)

    def test_couple_mismatch_names_both_files(self, chunk_dir):
        tmp_path, paths, _ = chunk_dir
        rng = stream(23, "merge-foreign")
        rec = _chunk_records(rng, isep_start=193, nsep=3)
        foreign = _write_chunk(
            tmp_path / "foreign.result", rec, ligand="P099"
        )
        with pytest.raises(ValueError) as err:
            merge_couple_results(paths + [foreign], tmp_path / "out.result")
        msg = str(err.value)
        assert "P001-P099" in msg and "foreign.result" in msg
        assert "chunk_000.result" in msg

    @pytest.mark.parametrize("entry", ["text", "columnar", "cli"])
    @pytest.mark.parametrize("field", ["n_couples", "n_gamma"])
    def test_orientation_grid_mismatch_names_the_chunk(
        self, tmp_path, capsys, entry, field
    ):
        """Chunks that tile [1..2] but disagree on n_couples / n_gamma would
        merge into a file whose header promises the wrong row count."""
        rng = stream(24, "merge-grid")
        first = _write_chunk(
            tmp_path / "first.result", _chunk_records(rng, 1, 1)
        )
        odd = _write_chunk(
            tmp_path / "odd.result", _chunk_records(rng, 2, 1),
            **{field: 9},
        )
        expected = f"9/{N_GAMMA}" if field == "n_couples" else f"{N_ROT}/9"
        if entry == "cli":
            store = tmp_path / "chunks.rcs"
            text_to_store([first, odd], store)
            out = tmp_path / "merged.rcs"
            assert cli_main(["results", "merge", str(store), str(out)]) == 2
            msg = capsys.readouterr().err
            assert not out.exists()
        else:
            with pytest.raises(ValueError) as err:
                if entry == "text":
                    merge_couple_results([first, odd], tmp_path / "out.result")
                else:
                    merge_segments(
                        [segment_from_text(first), segment_from_text(odd)]
                    )
            msg = str(err.value)
        assert f"n_couples/n_gamma {expected} in odd.result" in msg
        assert f"{N_ROT}/{N_GAMMA} in first.result" in msg

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to merge"):
            merge_couple_results([], tmp_path / "out.result")
