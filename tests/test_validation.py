"""Tests for repro.validation: the three checks and result merging, run
the one way uploads take — converted into the store and checked and
merged there."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maxdo.resultfile import ResultHeader, read_results, write_results
from repro.store import (
    check_segment, check_store, merge_couple_store, merge_segments,
    read_store, segment_from_text, segment_to_text, text_to_store,
)
from repro.validation.checks import ValueRanges
from repro.validation.merge import dataset_volume
from tests.oracles.resultfile import (
    check_result_file_reference,
    format_record,
    merge_couple_results_reference,
)


def _write(path, isep_start=1, nsep=2, n_couples=3, bad_energy=None, drop_lines=0):
    header = ResultHeader("P1", "P2", isep_start, nsep, n_couples, 10)
    lines = []
    for p in range(nsep):
        for c in range(n_couples):
            e = bad_energy if (bad_energy and p == 0 and c == 0) else -12.5
            lines.append(
                format_record(
                    isep_start + p, c + 1, 1,
                    np.array([10.0, 0.0, 0.0]), np.array([0.1, 0.2, 0.3]),
                    e, 1.5,
                )
            )
    if drop_lines:
        lines = lines[:-drop_lines]
    write_results(path, header, lines)
    return path


def _check(path):
    """Checks 2 and 3 on one upload: its segment, named by the file; the
    report equals the text-file oracle's."""
    report = check_segment(segment_from_text(path))
    assert report == check_result_file_reference(path)
    return report


def _merge(paths, out):
    """One couple's uploads merged in the store, written back as text; the
    bytes equal the text-file oracle's."""
    n = segment_to_text(
        merge_segments([segment_from_text(p) for p in paths]), out
    )
    oracle = out.with_name(f"oracle-{out.name}")
    assert merge_couple_results_reference(paths, oracle) == n
    assert oracle.read_bytes() == out.read_bytes()
    return n


class TestCheckResultFile:
    def test_good_file_passes(self, tmp_path):
        report = _check(_write(tmp_path / "a.result"))
        assert report.ok

    def test_wrong_line_count_detected(self, tmp_path):
        report = _check(_write(tmp_path / "a.result", drop_lines=1))
        assert not report.ok
        assert report.files_with_bad_line_count == ["a.result"]

    def test_out_of_range_energy_detected(self, tmp_path):
        report = _check(_write(tmp_path / "a.result", bad_energy=5e6))
        assert not report.ok
        assert "energy out of range" in report.files_with_bad_values["a.result"]

    def test_unreadable_file_detected(self, tmp_path):
        """An upload that does not parse is a conversion error naming the
        file, not a verdict."""
        path = tmp_path / "bad.result"
        path.write_text("garbage\n")
        with pytest.raises(ValueError, match=r"^bad\.result: "):
            segment_from_text(path)


class TestValueRanges:
    def _table(self, tmp_path, **kw):
        return read_results(_write(tmp_path / "x.result", **kw))

    def test_clean_table(self, tmp_path):
        assert ValueRanges().violations(self._table(tmp_path)) == []

    def test_energy_sum_mismatch(self, tmp_path):
        table = self._table(tmp_path)
        table.records["e_tot"] += 1.0
        assert "energy sum mismatch" in ValueRanges().violations(table)

    def test_nan_detected(self, tmp_path):
        table = self._table(tmp_path)
        table.records["x"][0] = np.nan
        assert "non-finite values" in ValueRanges().violations(table)

    def test_coordinate_out_of_range(self, tmp_path):
        table = self._table(tmp_path)
        table.records["x"][0] = 9999.0
        assert "coordinate out of range" in ValueRanges().violations(table)

    def test_bad_indices(self, tmp_path):
        table = self._table(tmp_path)
        table.records["isep"][0] = 0
        assert "non-positive indices" in ValueRanges().violations(table)


class TestCheckBatch:
    def _batch(self, tmp_path, n):
        store = tmp_path / "batch.rcs"
        text_to_store([_write(tmp_path / f"f{i}.result") for i in range(n)], store)
        return store

    def test_counts_files(self, tmp_path):
        report = check_store(self._batch(tmp_path, 3), files_expected=3)
        assert report.ok

    def test_missing_file_detected(self, tmp_path):
        report = check_store(self._batch(tmp_path, 1), files_expected=2)
        assert not report.ok
        assert not report.file_count_ok


class TestMerge:
    def test_merge_two_chunks(self, tmp_path):
        a = _write(tmp_path / "a.result", isep_start=1, nsep=2)
        b = _write(tmp_path / "b.result", isep_start=3, nsep=2)
        chunks, out = tmp_path / "chunks.rcs", tmp_path / "merged.rcs"
        text_to_store([a, b], chunks)
        n = merge_couple_store(chunks, out)
        assert n == 4 * 3
        report = check_store(out, files_expected=1)
        assert report.ok
        assert read_store(out).segments[0].header.nsep == 4

    def test_merge_sorted_by_isep(self, tmp_path):
        a = _write(tmp_path / "a.result", isep_start=3, nsep=2)
        b = _write(tmp_path / "b.result", isep_start=1, nsep=2)
        out = tmp_path / "m.result"
        _merge([a, b], out)
        rec = read_results(out).records
        assert (np.diff(rec["isep"]) >= 0).all()

    def test_merge_is_idempotent(self, tmp_path):
        a = _write(tmp_path / "a.result", isep_start=1, nsep=2)
        b = _write(tmp_path / "b.result", isep_start=3, nsep=2)
        m1 = tmp_path / "m1.result"
        _merge([a, b], m1)
        m2 = tmp_path / "m2.result"
        _merge([m1], m2)
        assert m1.read_text() == m2.read_text()

    def test_merge_rejects_gap(self, tmp_path):
        a = _write(tmp_path / "a.result", isep_start=1, nsep=2)
        b = _write(tmp_path / "b.result", isep_start=4, nsep=2)
        with pytest.raises(ValueError, match="gap"):
            _merge([a, b], tmp_path / "m.result")

    def test_merge_rejects_overlap(self, tmp_path):
        a = _write(tmp_path / "a.result", isep_start=1, nsep=3)
        b = _write(tmp_path / "b.result", isep_start=3, nsep=2)
        with pytest.raises(ValueError, match="overlap"):
            _merge([a, b], tmp_path / "m.result")

    def test_merge_rejects_mixed_couples(self, tmp_path):
        a = _write(tmp_path / "a.result", isep_start=1, nsep=2)
        header = ResultHeader("P9", "P2", 3, 1, 3, 10)
        other = tmp_path / "other.result"
        write_results(other, header, [])
        with pytest.raises(ValueError, match="cannot merge"):
            _merge([a, other], tmp_path / "m.result")

    def test_merge_rejects_empty_list(self, tmp_path):
        with pytest.raises(ValueError):
            _merge([], tmp_path / "m.result")


class TestDatasetVolume:
    def test_phase1_volume(self, phase1_library):
        v = dataset_volume(phase1_library)
        assert v.n_files == 168 * 168
        # Paper: 123 GB raw, 45 GB compressed.
        assert v.raw_bytes == pytest.approx(123e9, rel=0.03)
        assert v.compressed_bytes == pytest.approx(45e9, rel=0.03)

    def test_scales_with_library(self, small_library):
        v = dataset_volume(small_library)
        assert v.n_files == 144
        assert v.raw_bytes < 1e9
