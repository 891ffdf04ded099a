"""Tests for repro.store: the packed columnar result store.

Covers the format layer (pack/unpack exactness, sentinels, the on-disk
segment framing, rollback), the lossless text converters (the pinned
byte-identity contract), the vectorized check -> merge -> matrix pipeline
(verdict and bit parity with the text-file oracles), the
science-layer extraction constructors, and the MaxDoRun columnar
producer path.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pytest

import repro.store.format as store_format
from repro.maxdo.resultfile import (
    RESULT_DTYPE,
    ResultHeader,
    write_results,
)
from repro.rng import stream
from repro.store import (
    PACKED_DTYPE,
    ROW_BYTES,
    STORE_MAGIC,
    ColumnarSegment,
    StoreWriter,
    check_segment,
    check_store,
    energy_matrix,
    iter_segments,
    merge_couple_store,
    merge_segments,
    pack_records,
    position_energy_maps,
    read_store,
    render_lines,
    rollback_partial_store,
    segment_from_text,
    segment_to_text,
    store_to_text,
    text_to_store,
    unpack_records,
    write_store,
)
from tests.oracles.resultfile import (
    check_result_file_reference,
    merge_couple_results_reference,
    read_results_reference,
)

pytestmark = pytest.mark.store


def synth_records(
    n_or_rng, nsep=4, n_rot=3, isep_start=1, seed=5
) -> np.ndarray:
    """Text-representable random records on a (nsep x n_rot) grid."""
    rng = n_or_rng if hasattr(n_or_rng, "normal") else stream(seed, "store-test")
    n = nsep * n_rot
    rec = np.zeros(n, dtype=RESULT_DTYPE)
    rec["isep"] = np.repeat(np.arange(isep_start, isep_start + nsep), n_rot)
    rec["irot"] = np.tile(np.arange(1, n_rot + 1), nsep)
    rec["igamma"] = rng.integers(1, 11, size=n)
    for f in ("x", "y", "z"):
        rec[f] = np.round(rng.normal(0.0, 50.0, n), 3)
    for f in ("alpha", "beta", "gamma"):
        rec[f] = np.round(rng.uniform(-3.1416, 3.1416, n), 4)
    rec["e_lj"] = np.round(rng.normal(-25.0, 10.0, n), 4)
    rec["e_elec"] = np.round(rng.normal(-6.0, 3.0, n), 4)
    rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4)
    return rec


def header_for(rec, receptor="P001", ligand="P002") -> ResultHeader:
    nsep = int(rec["isep"].max() - rec["isep"].min() + 1) if len(rec) else 0
    n_rot = int(rec["irot"].max()) if len(rec) else 0
    return ResultHeader(
        receptor=receptor, ligand=ligand,
        isep_start=int(rec["isep"].min()) if len(rec) else 1,
        nsep=nsep, n_couples=n_rot, n_gamma=10,
    )


def write_text(path, rec, **kw):
    write_results(path, header_for(rec, **kw), render_lines(rec))
    return path


class TestPacking:
    def test_roundtrip_is_bit_identical(self):
        rec = synth_records(None)
        back = unpack_records(pack_records(rec))
        for name in RESULT_DTYPE.names:
            assert np.array_equal(rec[name], back[name]), name

    def test_row_bytes(self):
        # The volume model and the 123-GB comparison hang off this.
        assert ROW_BYTES == PACKED_DTYPE.itemsize == 56

    def test_non_finite_sentinels_roundtrip(self):
        rec = synth_records(None)
        rec["e_lj"][0] = np.nan
        rec["e_elec"][1] = np.inf
        rec["e_tot"][2] = -np.inf
        back = unpack_records(pack_records(rec))
        assert np.isnan(back["e_lj"][0])
        assert back["e_elec"][1] == np.inf
        assert back["e_tot"][2] == -np.inf
        # Everything else still bit-identical.
        assert np.array_equal(rec["e_lj"][1:], back["e_lj"][1:])

    def test_out_of_range_value_rejected(self):
        rec = synth_records(None)
        rec["x"][0] = 3.0e6  # > int32 range at scale 1000
        with pytest.raises(ValueError, match="'x'"):
            pack_records(rec)

    def test_out_of_range_index_rejected(self):
        rec = synth_records(None)
        rec["irot"][0] = 40_000  # > int16
        with pytest.raises(ValueError, match="'irot'"):
            pack_records(rec)

    def test_negative_zero_keeps_its_sign(self):
        # A zero the text format prints as -0.000 / -0.0000 (a negative
        # zero, or a negative value that rounds to zero) must come back
        # printing the same sign.
        rec = synth_records(None, nsep=1, n_rot=1)
        rec["x"] = rec["e_lj"] = -0.0
        rec["e_tot"] = -1e-5
        back = unpack_records(pack_records(rec))
        assert render_lines(back) == render_lines(rec)
        assert "    -0.000" in render_lines(back)[0]
        assert render_lines(back)[0].endswith("      -0.0000")
        for name in ("x", "e_lj", "e_tot"):
            assert back[name][0] == 0.0 and np.signbit(back[name][0]), name

    def test_sentinel_codes_sit_below_the_packable_floor(self):
        # The four reserved codes decode to the specials; the lowest
        # packable value is four codes above the integer minimum, so a
        # store written before -0.0 had a code decodes unchanged.
        lo = np.iinfo(np.int32).min
        packed = np.zeros(5, dtype=PACKED_DTYPE)
        packed["x"] = [lo, lo + 1, lo + 2, lo + 3, lo + 4]
        x = unpack_records(packed)["x"]
        assert np.isnan(x[0]) and x[1] == np.inf and x[2] == -np.inf
        assert x[3] == 0.0 and np.signbit(x[3])
        assert x[4] == (lo + 4) / 1000
        rec = unpack_records(packed[4:])
        assert pack_records(rec).tobytes() == packed[4:].tobytes()
        rec["x"] = (lo + 3) / 1000
        with pytest.raises(ValueError, match="'x'"):
            pack_records(rec)

    def test_quantizes_non_text_values_like_the_formatter(self):
        # A value that never went through text is stored at text precision,
        # with the same rounding the %-format would apply.
        rec = synth_records(None, nsep=1, n_rot=1)
        rec["x"][0] = 1.23456789
        back = unpack_records(pack_records(rec))
        assert back["x"][0] == pytest.approx(1.235, abs=5e-10)


class TestSegment:
    def test_from_records_and_column(self):
        rec = synth_records(None)
        seg = ColumnarSegment.from_records(header_for(rec), rec)
        assert len(seg) == len(rec)
        assert np.array_equal(seg.column("e_tot"), rec["e_tot"])
        assert seg.column("isep").dtype == np.int64
        assert np.array_equal(seg.table().records["x"], rec["x"])

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="PACKED_DTYPE"):
            ColumnarSegment(
                header=header_for(np.zeros(0, RESULT_DTYPE)),
                packed=np.zeros(3, dtype=np.int64),
            )


class TestStoreFile:
    def test_write_read_roundtrip(self, tmp_path):
        rec = synth_records(None)
        segments = [
            ColumnarSegment.from_records(
                header_for(rec, ligand=f"P{k:03d}"), rec, source=f"f{k}.result"
            )
            for k in range(3)
        ]
        path = tmp_path / "s.rcs"
        assert write_store(path, segments) == 3
        store = read_store(path)
        assert len(store) == 3
        assert store.n_rows == 3 * len(rec)
        assert [s.source for s in store.segments] == [
            "f0.result", "f1.result", "f2.result"
        ]
        for orig, loaded in zip(segments, store.segments):
            assert orig.header == loaded.header
            assert np.array_equal(orig.packed, loaded.packed)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rcs"
        path.write_bytes(b"NOTASTORE")
        with pytest.raises(ValueError, match="not a repro result store"):
            read_store(path)

    def test_crc_corruption_detected(self, tmp_path):
        rec = synth_records(None)
        path = tmp_path / "s.rcs"
        write_store(path, [ColumnarSegment.from_records(header_for(rec), rec)])
        blob = bytearray(path.read_bytes())
        blob[-20] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="CRC mismatch"):
            read_store(path)

    def test_truncation_detected(self, tmp_path):
        rec = synth_records(None)
        path = tmp_path / "s.rcs"
        write_store(path, [ColumnarSegment.from_records(header_for(rec), rec)])
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            read_store(path)

    def test_writer_appends_without_rewriting(self, tmp_path):
        rec = synth_records(None)
        path = tmp_path / "s.rcs"
        write_store(path, [ColumnarSegment.from_records(header_for(rec), rec)])
        before = path.read_bytes()
        with StoreWriter(path) as writer:
            writer.append(ColumnarSegment.from_records(header_for(rec), rec))
        after = path.read_bytes()
        assert after[: len(before)] == before
        assert len(read_store(path)) == 2

    def test_writer_resumes_split_and_short_writes(self, tmp_path, monkeypatch):
        """A frame can hold more pieces than one ``writev`` takes, and a
        ``writev`` can write less than it was given: the file comes out
        the same byte for byte."""
        rec = synth_records(None)
        segments = [
            ColumnarSegment.from_records(header_for(rec, ligand=f"P{k:03d}"), rec)
            for k in range(2)
        ]
        write_store(tmp_path / "whole.rcs", segments)
        real, given = os.writev, []

        def short(fd, buffers):  # half of the first piece, at least a byte
            given.append(len(buffers))
            first = bytes(buffers[0])
            return real(fd, [first[: max(1, len(first) // 2)]])

        monkeypatch.setattr(store_format, "_IOV_MAX", 3)
        monkeypatch.setattr(os, "writev", short)
        write_store(tmp_path / "short.rcs", segments)
        monkeypatch.undo()
        assert max(given) == 3
        assert (tmp_path / "short.rcs").read_bytes() == (tmp_path / "whole.rcs").read_bytes()

    def test_couple_grouping(self, tmp_path):
        rec = synth_records(None)
        path = tmp_path / "s.rcs"
        write_store(path, [
            ColumnarSegment.from_records(header_for(rec, ligand="PA"), rec),
            ColumnarSegment.from_records(header_for(rec, ligand="PB"), rec),
            ColumnarSegment.from_records(header_for(rec, ligand="PA"), rec),
        ])
        store = read_store(path)
        assert store.couples() == [("P001", "PA"), ("P001", "PB")]
        groups = dict(store.by_couple())
        assert len(groups[("P001", "PA")]) == 2

    def test_campaign_tag_roundtrips(self, tmp_path):
        rec = synth_records(None)
        path = tmp_path / "s.rcs"
        write_store(path, [
            ColumnarSegment.from_records(
                header_for(rec, ligand="PA"), rec, campaign="hcmd"
            ),
            ColumnarSegment.from_records(header_for(rec, ligand="PB"), rec),
        ])
        store = read_store(path)
        assert [s.campaign for s in store.segments] == ["hcmd", None]

    def test_untagged_segments_keep_the_pre_tag_byte_layout(self, tmp_path):
        """The campaign key is strictly additive: segments without a tag
        encode byte-identically to stores written before it existed."""
        rec = synth_records(None)
        untagged = tmp_path / "untagged.rcs"
        write_store(untagged, [
            ColumnarSegment.from_records(header_for(rec), rec, source="a"),
        ])
        explicit_none = tmp_path / "none.rcs"
        write_store(explicit_none, [
            ColumnarSegment.from_records(
                header_for(rec), rec, source="a", campaign=None
            ),
        ])
        assert untagged.read_bytes() == explicit_none.read_bytes()
        assert b'"campaign"' not in untagged.read_bytes()
        tagged = tmp_path / "tagged.rcs"
        write_store(tagged, [
            ColumnarSegment.from_records(
                header_for(rec), rec, source="a", campaign="hcmd"
            ),
        ])
        assert b'"campaign": "hcmd"' in tagged.read_bytes()


class TestRollback:
    def _chunked_store(self, tmp_path, n_chunks=4, rows_per_chunk=6):
        path = tmp_path / "p.rcs"
        with StoreWriter(path) as writer:
            for k in range(n_chunks):
                rec = synth_records(
                    None, nsep=2, n_rot=3, isep_start=1 + 2 * k, seed=k
                )
                writer.append(
                    ColumnarSegment.from_records(header_for(rec), rec)
                )
        return path

    def test_keeps_exact_prefix(self, tmp_path):
        path = self._chunked_store(tmp_path)
        dropped = rollback_partial_store(path, rows_committed=12)
        assert dropped == 12
        store = read_store(path)
        assert store.n_rows == 12
        assert len(store) == 2

    def test_noop_when_everything_committed(self, tmp_path):
        path = self._chunked_store(tmp_path)
        size = path.stat().st_size
        assert rollback_partial_store(path, rows_committed=24) == 0
        assert path.stat().st_size == size

    def test_drops_torn_trailing_segment(self, tmp_path):
        path = self._chunked_store(tmp_path)
        with path.open("ab") as fh:
            fh.write(b"SEG1\x00\x01garbage")  # a kill mid-append
        rollback_partial_store(path, rows_committed=18)
        assert read_store(path).n_rows == 18

    def test_misaligned_boundary_rejected(self, tmp_path):
        path = self._chunked_store(tmp_path)
        with pytest.raises(ValueError, match="does not align"):
            rollback_partial_store(path, rows_committed=7)

    def test_overclaimed_checkpoint_rejected(self, tmp_path):
        path = self._chunked_store(tmp_path)
        with pytest.raises(ValueError, match="checkpoint claims"):
            rollback_partial_store(path, rows_committed=999)


class TestTextConversion:
    def test_text_to_columnar_to_text_byte_identical(self, tmp_path):
        rec = synth_records(None)
        src = write_text(tmp_path / "a.result", rec)
        seg = segment_from_text(src)
        out = tmp_path / "b.result"
        segment_to_text(seg, out)
        assert out.read_bytes() == src.read_bytes()

    def test_columnar_to_text_to_columnar_byte_identical(self, tmp_path):
        rec = synth_records(None)
        seg = ColumnarSegment.from_records(
            header_for(rec), rec, source="a.result"
        )
        mid = tmp_path / "a.result"
        segment_to_text(seg, mid)
        back = segment_from_text(mid)
        assert np.array_equal(seg.packed, back.packed)
        assert seg.header == back.header

    def test_extreme_but_representable_values(self, tmp_path):
        # The widest values the fixed formats emit without drifting.
        rec = synth_records(None, nsep=1, n_rot=4)
        rec["x"][:] = [-499.999, 499.999, 0.001, -0.001]
        rec["alpha"][:] = [-3.1416, 3.1416, 0.0001, -0.0001]
        rec["e_lj"][:] = [-99999.9999, 99999.9999, 0.0001, -0.0001]
        rec["e_elec"][:] = 0.0
        rec["e_tot"][:] = rec["e_lj"]
        src = write_text(tmp_path / "x.result", rec)
        out = tmp_path / "y.result"
        segment_to_text(segment_from_text(src), out)
        assert out.read_bytes() == src.read_bytes()

    def test_negative_zero_lines_roundtrip(self, tmp_path):
        rec = synth_records(None, nsep=1, n_rot=3)
        rec["y"][0] = rec["beta"][1] = rec["e_elec"][2] = -0.0
        rec["e_tot"][2] = -0.0
        src = write_text(tmp_path / "z.result", rec)
        assert src.read_text().count(" -0.000") == 4
        out = tmp_path / "back.result"
        segment_to_text(segment_from_text(src), out)
        assert out.read_bytes() == src.read_bytes()

    def test_directory_roundtrip_preserves_names(self, tmp_path):
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        paths = []
        for k in range(3):
            rec = synth_records(None, seed=k)
            paths.append(
                write_text(src_dir / f"c{k}.result", rec, ligand=f"L{k}")
            )
        store_path = tmp_path / "all.rcs"
        assert text_to_store(paths, store_path) == 3
        out_dir = tmp_path / "back"
        written = store_to_text(store_path, out_dir)
        assert [p.name for p in written] == ["c0.result", "c1.result", "c2.result"]
        for orig, back in zip(paths, written):
            assert back.read_bytes() == orig.read_bytes()

    @pytest.mark.parametrize("source", ["a.result", None])
    def test_two_segments_on_one_file_are_refused(self, tmp_path, source):
        """Two segments sharing a ``source``, or two sourceless segments of
        one couple and one ``isep_start``, would expand to one file."""
        rec = synth_records(None)
        store_path = tmp_path / "twice.rcs"
        write_store(store_path, [
            ColumnarSegment.from_records(header_for(rec), rec, source=source)
            for _ in range(2)
        ])
        name = source or "P001_P002_1.result"
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}: "):
            store_to_text(store_path, tmp_path / "back")
        assert not (tmp_path / "back").exists()

    def test_failed_expansion_leaves_the_directory_as_it_was(self, tmp_path):
        """A store whose segments are ``a``, ``b``, ``a`` is refused at the
        third; the files written for the first two are not left behind,
        and an ``a.result`` already there stays byte-identical."""
        rec = synth_records(None)
        store_path = tmp_path / "aba.rcs"
        write_store(store_path, [
            ColumnarSegment.from_records(header_for(rec), rec, source=source)
            for source in ("a.result", "b.result", "a.result")
        ])
        out_dir = tmp_path / "back"
        out_dir.mkdir()
        (out_dir / "a.result").write_bytes(b"already here\n")
        with pytest.raises(ValueError, match=r"^a\.result: "):
            store_to_text(store_path, out_dir)
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.result"]
        assert (out_dir / "a.result").read_bytes() == b"already here\n"

    def test_render_lines_matches_format_record(self):
        from tests.oracles.resultfile import format_record

        rec = synth_records(None)
        lines = render_lines(rec)
        for row, line in zip(rec, lines):
            assert line == format_record(
                int(row["isep"]), int(row["irot"]), int(row["igamma"]),
                np.array([row["x"], row["y"], row["z"]]),
                np.array([row["alpha"], row["beta"], row["gamma"]]),
                float(row["e_lj"]), float(row["e_elec"]),
            )


class TestCheckParity:
    """check_segment on a file's segment must reach the verdicts the
    text-file oracle reaches on the file."""

    def _both(self, tmp_path, rec, header=None):
        header = header or header_for(rec)
        path = tmp_path / "a.result"
        write_results(path, header, render_lines(rec))
        text_report = check_result_file_reference(path)
        col_report = check_segment(segment_from_text(path))
        return text_report, col_report

    def _assert_same(self, text_report, col_report):
        assert text_report.ok == col_report.ok
        assert (
            text_report.files_with_bad_line_count
            == col_report.files_with_bad_line_count
        )
        assert (
            text_report.files_with_bad_values == col_report.files_with_bad_values
        )

    def test_clean_file(self, tmp_path):
        t, c = self._both(tmp_path, synth_records(None))
        assert t.ok and c.ok
        self._assert_same(t, c)

    def test_nan_energy(self, tmp_path):
        rec = synth_records(None)
        rec["e_lj"][0] = np.nan
        rec["e_tot"][0] = np.nan
        t, c = self._both(tmp_path, rec)
        assert not c.ok
        self._assert_same(t, c)

    def test_out_of_range_energy(self, tmp_path):
        rec = synth_records(None)
        rec["e_lj"][0] = 5.0e6
        rec["e_tot"][0] = np.round(rec["e_lj"][0] + rec["e_elec"][0], 4)
        t, c = self._both(tmp_path, rec)
        assert not c.ok
        self._assert_same(t, c)

    def test_energy_sum_mismatch(self, tmp_path):
        rec = synth_records(None)
        rec["e_tot"][0] += 1.0
        t, c = self._both(tmp_path, rec)
        assert not c.ok
        assert "energy sum mismatch" in c.files_with_bad_values["a.result"]
        self._assert_same(t, c)

    def test_bad_line_count(self, tmp_path):
        rec = synth_records(None)
        header = header_for(rec)
        short = rec[:-1]
        path = tmp_path / "a.result"
        write_results(path, header, render_lines(short))
        t = check_result_file_reference(path)
        c = check_segment(segment_from_text(path))
        assert not c.ok
        self._assert_same(t, c)

    def test_check_store_counts_segments(self, tmp_path):
        rec = synth_records(None)
        path = tmp_path / "s.rcs"
        write_store(path, [
            ColumnarSegment.from_records(header_for(rec), rec)
        ])
        assert check_store(path, files_expected=1).ok
        report = check_store(path, files_expected=2)
        assert not report.ok and not report.file_count_ok


class TestMergeParity:
    def _chunks(self, n_chunks=3, nsep=4):
        return [
            synth_records(
                None, nsep=nsep, n_rot=3, isep_start=1 + k * nsep, seed=k
            )
            for k in range(n_chunks)
        ]

    def test_merged_bytes_identical_to_text_path(self, tmp_path):
        chunks = self._chunks()
        paths = [
            write_text(tmp_path / f"c{k}.result", rec)
            for k, rec in enumerate(chunks)
        ]
        text_out = tmp_path / "merged.result"
        merge_couple_results_reference(paths, text_out)

        merged = merge_segments([segment_from_text(p) for p in paths])
        col_out = tmp_path / "merged_from_store.result"
        segment_to_text(merged, col_out)
        assert col_out.read_bytes() == text_out.read_bytes()

    def test_merged_energies_bit_identical(self, tmp_path):
        chunks = self._chunks()
        paths = [
            write_text(tmp_path / f"c{k}.result", rec)
            for k, rec in enumerate(chunks)
        ]
        text_out = tmp_path / "merged.result"
        merge_couple_results_reference(paths, text_out)
        text_packed = pack_records(read_results_reference(text_out).records)
        merged = merge_segments([segment_from_text(p) for p in paths])
        assert np.array_equal(merged.packed["e_tot"], text_packed["e_tot"])

    def test_gap_names_offending_segment(self):
        chunks = self._chunks()
        segs = [
            ColumnarSegment.from_records(
                header_for(rec), rec, source=f"c{k}.result"
            )
            for k, rec in enumerate(chunks)
        ]
        with pytest.raises(ValueError, match=r"gap at 9 .* in c2\.result"):
            merge_segments([segs[0], segs[2]])

    def test_duplicate_chunk_named(self):
        chunks = self._chunks()
        segs = [
            ColumnarSegment.from_records(
                header_for(rec), rec, source=f"c{k}.result"
            )
            for k, rec in enumerate(chunks)
        ]
        with pytest.raises(ValueError, match=r"overlap at 1 .* in c0\.result"):
            merge_segments([segs[0], segs[0], segs[1]])

    def test_couple_mismatch_named(self):
        a = synth_records(None)
        b = synth_records(None)
        with pytest.raises(ValueError, match="cannot merge"):
            merge_segments([
                ColumnarSegment.from_records(header_for(a, ligand="PA"), a),
                ColumnarSegment.from_records(header_for(b, ligand="PB"), b),
            ])

    def test_merge_couple_store(self, tmp_path):
        path = tmp_path / "chunks.rcs"
        segments = []
        for ligand in ("PA", "PB"):
            for k, rec in enumerate(self._chunks(n_chunks=2)):
                segments.append(
                    ColumnarSegment.from_records(
                        header_for(rec, ligand=ligand), rec
                    )
                )
        write_store(path, segments)
        out = tmp_path / "merged.rcs"
        n = merge_couple_store(path, out)
        merged = read_store(out)
        assert len(merged) == 2
        assert merged.n_rows == n == sum(len(s) for s in segments)
        for seg in merged.segments:
            assert seg.header.isep_start == 1
            assert seg.header.nsep == 8


class TestExtraction:
    def _store(self, tmp_path):
        path = tmp_path / "m.rcs"
        segments = []
        for i, (receptor, ligand) in enumerate(
            [("A", "B"), ("B", "A"), ("A", "C")]
        ):
            rec = synth_records(None, nsep=3, n_rot=2, seed=i)
            segments.append(
                ColumnarSegment.from_records(
                    header_for(rec, receptor=receptor, ligand=ligand), rec
                )
            )
        write_store(path, segments)
        return path, segments

    def test_energy_matrix_matches_bruteforce(self, tmp_path):
        path, segments = self._store(tmp_path)
        matrix, names = energy_matrix(path, names=["A", "B", "C"])
        index = {n: i for i, n in enumerate(names)}
        for seg in segments:
            i = index[seg.header.receptor]
            j = index[seg.header.ligand]
            assert matrix[i, j] == seg.records["e_tot"].min()
        assert matrix[index["C"], index["A"]] == np.inf

    def test_energy_matrix_propagates_nan(self, tmp_path):
        rec = synth_records(None, nsep=2, n_rot=2)
        rec["e_tot"][0] = np.nan
        path = tmp_path / "n.rcs"
        write_store(path, [ColumnarSegment.from_records(header_for(rec), rec)])
        matrix, _ = energy_matrix(path)
        assert np.isnan(matrix[0, 1])

    def test_position_maps_match_bruteforce(self, tmp_path):
        path, segments = self._store(tmp_path)
        maps, names = position_energy_maps(path, names=["A", "B", "C"])
        assert maps.shape == (3, 3, 3)
        index = {n: i for i, n in enumerate(names)}
        for seg in segments:
            rec = seg.records
            i = index[seg.header.receptor]
            j = index[seg.header.ligand]
            for isep in np.unique(rec["isep"]):
                expected = rec["e_tot"][rec["isep"] == isep].min()
                assert maps[i, j, int(isep) - 1] == expected
        # an out-of-range row is reported against the segment's own index
        path = tmp_path / "late.rcs"
        first = synth_records(None, nsep=2, n_rot=2)
        second = synth_records(None, nsep=1, n_rot=2, isep_start=3)
        write_store(path, [
            ColumnarSegment.from_records(header_for(first, "A", "B"), first),
            ColumnarSegment.from_records(header_for(second, "A", "B"), second),
        ])
        with pytest.raises(ValueError, match=r"in segment\[1\] A-B@3"):
            position_energy_maps(path, n_positions=2)

    def test_names_must_cover_the_store(self, tmp_path):
        from repro.science import CrossDockingMatrix, SiteMaps

        path, _ = self._store(tmp_path)
        for reduce in (
            energy_matrix, position_energy_maps,
            CrossDockingMatrix.from_store, SiteMaps.from_store,
        ):
            with pytest.raises(
                ValueError, match="protein 'B' in the store is not in names"
            ):
                reduce(path, names=["A", "C"])

    def test_cross_docking_matrix_from_store(self, tmp_path):
        from repro.science import CrossDockingMatrix

        path, _ = self._store(tmp_path)
        matrix = CrossDockingMatrix.from_store(path)
        assert matrix.names is not None
        assert matrix.n_proteins == len(matrix.names)

    def test_sitemaps_from_store(self, tmp_path):
        from repro.science import SiteMaps

        path, _ = self._store(tmp_path)
        maps = SiteMaps.from_store(path)
        assert maps.planted_sites is None
        assert maps.directions is None
        # Consensus analysis still works with an explicit site size.
        assert len(maps.predicted_site(0, n_site=2)) == 2
        with pytest.raises(ValueError, match="n_site"):
            maps.predicted_site(0)
        with pytest.raises(ValueError, match="ground truth"):
            maps.site_recovery()


class TestMaxDoRunColumnar:
    """The producer path: one appended segment per committed position."""

    KW = dict(
        isep_start=1, nsep=3, total_nsep=4, n_couples=3, n_gamma=2,
        minimize=False,
    )

    def _run(self, receptor, ligand, workdir, fmt, **kw):
        from repro.maxdo.docking import MaxDoRun

        params = {**self.KW, **kw}
        return MaxDoRun(
            receptor, ligand, workdir=workdir, result_format=fmt, **params
        )

    def test_rejects_unknown_format(self, tiny_receptor, tiny_ligand, tmp_path):
        with pytest.raises(ValueError, match="result_format"):
            self._run(tiny_receptor, tiny_ligand, tmp_path, "parquet")

    def test_columnar_result_is_text_twin(
        self, tiny_receptor, tiny_ligand, tmp_path
    ):
        text_run = self._run(tiny_receptor, tiny_ligand, tmp_path / "t", "text")
        text_run.run()
        text_final = text_run.finalize()

        col_run = self._run(tiny_receptor, tiny_ligand, tmp_path / "c", "columnar")
        col_run.run()
        col_final = col_run.finalize()
        assert col_final.suffix == ".rcs"

        store = read_store(col_final)
        assert len(store) == 1  # finalize compacts the position chunks
        out = tmp_path / "twin.result"
        segment_to_text(store.segments[0], out)
        assert out.read_bytes() == text_final.read_bytes()

    def test_interrupt_resume_and_rollback(
        self, tiny_receptor, tiny_ligand, tmp_path
    ):
        run = self._run(tiny_receptor, tiny_ligand, tmp_path, "columnar")
        ckpt = run.run(max_positions=1)
        assert ckpt.positions_done == 1
        assert len(run.result_table()) == self.KW["n_couples"]
        # Simulate a kill mid-append: torn trailing bytes on the partial.
        with run.partial_path.open("ab") as fh:
            fh.write(b"SEG1torn")
        resumed = self._run(tiny_receptor, tiny_ligand, tmp_path, "columnar")
        ckpt = resumed.run()
        assert ckpt.complete
        final = resumed.finalize()
        assert not resumed.partial_path.exists()
        assert not resumed.checkpoint_path.exists()
        table = read_store(final).segments[0].table()
        assert len(table) == self.KW["nsep"] * self.KW["n_couples"]
        # Resumption is seamless: identical to an uninterrupted run.
        clean = self._run(tiny_receptor, tiny_ligand, tmp_path / "u", "columnar")
        clean.run()
        clean_final = clean.finalize()
        assert (
            read_store(final).segments[0].packed.tobytes()
            == read_store(clean_final).segments[0].packed.tobytes()
        )

    def test_store_file_magic(self, tiny_receptor, tiny_ligand, tmp_path):
        run = self._run(tiny_receptor, tiny_ligand, tmp_path, "columnar")
        run.run(max_positions=1)
        assert run.partial_path.read_bytes()[: len(STORE_MAGIC)] == STORE_MAGIC
