"""The streaming result path: one writer, one couple at a time.

* A segment is its twelve packed columns; read from a store they are
  read-only views over the one payload buffer the CRC was checked on,
  and ``check_store`` decodes only the columns the rules read.
* ``StoreWriter.append`` writes each column straight to the file; the
  bytes are pinned to the format's digest, so the copy-free writer cannot
  drift from the layout every existing store was written in.
* ``write_store`` (and so ``text_to_store`` and ``merge_couple_store``)
  is atomic: a failure leaves the target as it was and no temporary file.
* ``check_store`` and ``energy_matrix`` fold a store *path* one segment at
  a time and agree bit for bit with the same call on a ``ResultStore``.
* ``merge_couple_store`` holds a bounded number of merged couples, not
  the whole campaign.
* ``key_order`` concatenates chunks already in key order and falls
  back to the ``lexsort`` oracle otherwise — bit for bit either way.
"""

from __future__ import annotations

import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.format as store_format
from repro.maxdo import _fused
from repro.maxdo.resultfile import RESULT_DTYPE, ResultHeader, write_results
from repro.store import (
    PACKED_DTYPE,
    ROW_BYTES,
    ColumnarSegment,
    ResultStore,
    StoreWriter,
    check_store,
    energy_matrix,
    merge_couple_store,
    merge_segments,
    position_energy_maps,
    read_store,
    render_lines,
    rollback_partial_store,
    text_to_store,
    write_store,
)
from repro.validation.merge import key_order
from tests.oracles.merge import sorted_rows_reference

pytestmark = pytest.mark.store

#: sha256 of ``pinned_segments()`` as written by the BytesIO encoder the
#: column-at-a-time writer replaced
PINNED_DIGEST = "d051a23750c2807a4bfc12a0e9e0619678bda43f3f38626f93d812adac9528eb"
#: sha256 of ``merge_couple_store`` over ``merge_input()`` as merged by the
#: row-record pipeline the column pipeline replaced
MERGED_DIGEST = "d55b31974706fe1750757c90ed581162595964bef63257ae2b3e1a0143066644"


def pinned_segments() -> list[ColumnarSegment]:
    """A tagged, an empty and a reversed segment, with NaN, inf and -0.0."""
    rec = np.zeros(12, dtype=RESULT_DTYPE)
    rec["isep"] = np.repeat([3, 4], 6)
    rec["irot"] = np.tile(np.arange(1, 7), 2)
    rec["igamma"] = np.arange(12) % 5 + 1
    for k, name in enumerate(("x", "y", "z", "alpha", "beta", "gamma")):
        rec[name] = (np.arange(12) - 6) * (k + 1) / 8
    rec["e_lj"] = -np.arange(12) * 1.25
    rec["e_elec"] = np.arange(12) * 0.0625
    rec["e_tot"] = rec["e_lj"] + rec["e_elec"]
    rec["e_lj"][0] = np.nan
    rec["x"][1] = -0.0
    rec["e_tot"][2] = np.inf
    header = ResultHeader(
        "P001", "P002", isep_start=3, nsep=2, n_couples=6, n_gamma=5
    )
    return [
        ColumnarSegment.from_records(header, rec, source="a.result"),
        ColumnarSegment.from_records(header, rec[:0], campaign="hcmd"),
        ColumnarSegment.from_records(header, rec[::-1].copy()),
    ]


def couple_chunks(
    receptor: str, ligand: str, n_chunks: int, nsep: int, n_rot: int, seed: int
) -> list[ColumnarSegment]:
    """One couple's chunks, each in key order, tiling ``[1..n_chunks*nsep]``."""
    rng = np.random.default_rng(seed)
    chunks = []
    for k in range(n_chunks):
        n = nsep * n_rot
        rec = np.zeros(n, dtype=RESULT_DTYPE)
        rec["isep"] = np.repeat(np.arange(1 + k * nsep, 1 + (k + 1) * nsep), n_rot)
        rec["irot"] = np.tile(np.arange(1, n_rot + 1), nsep)
        rec["igamma"] = rng.integers(1, 11, size=n)
        rec["e_lj"] = np.round(rng.normal(-25.0, 10.0, n), 4)
        rec["e_elec"] = np.round(rng.normal(-6.0, 3.0, n), 4)
        rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4)
        header = ResultHeader(
            receptor, ligand, isep_start=1 + k * nsep, nsep=nsep,
            n_couples=n_rot, n_gamma=10,
        )
        chunks.append(ColumnarSegment.from_records(
            header, rec, source=f"{receptor}_{ligand}_{1 + k * nsep}.result"
        ))
    return chunks


def chunked_store(n_couples: int, n_chunks=3, nsep=4, n_rot=5) -> list:
    """Chunks of ``n_couples`` couples, each couple's in reverse order."""
    segments = []
    for c in range(n_couples):
        chunks = couple_chunks(f"R{c:02d}", f"L{c:02d}", n_chunks, nsep, n_rot, c)
        segments.extend(reversed(chunks))
    return segments


def merge_input() -> list[ColumnarSegment]:
    """Four couples' chunks in reverse order, one with a NaN-coded energy,
    one short a row and one whose rows run backwards (so its couple takes
    the sorting path)."""
    segments = chunked_store(4)
    for k, edit in ((1, "nan"), (4, "short"), (6, "reversed")):
        s = segments[k]
        rec = s.records
        if edit == "nan":
            rec["e_tot"][0] = np.nan
        elif edit == "short":
            rec = rec[:-1]
        else:
            rec = rec[::-1]
        segments[k] = ColumnarSegment.from_records(s.header, rec, source=s.source)
    return segments


class TestColumns:
    def test_read_columns_are_read_only_views_of_one_payload(self, tmp_path):
        path = tmp_path / "s.rcs"
        write_store(path, pinned_segments())
        store = read_store(path)
        for segment in store.segments:
            payload = segment.columns["isep"].base  # what the CRC was checked on
            assert isinstance(payload, np.ndarray) and not payload.flags.writeable
            assert len(payload) == len(segment) * ROW_BYTES
            whole = np.frombuffer(payload, np.uint8)
            for name, column in segment.columns.items():
                assert column.base is payload, name
                assert not column.flags.writeable, name
                assert np.shares_memory(column, whole) == bool(len(segment))
            assert not segment.packed.flags.writeable
        assert [s.packed.tobytes() for s in store.segments] == [
            s.packed.tobytes() for s in pinned_segments()
        ]

    def test_check_decodes_no_record_array(self, tmp_path):
        path = tmp_path / "s.rcs"
        write_store(path, chunked_store(2, n_chunks=2, nsep=40, n_rot=210))
        store = ResultStore(path, segments=list(read_store(path).segments))  # resident
        record_bytes = len(store.segments[0]) * RESULT_DTYPE.itemsize
        tracemalloc.start()
        try:
            report = check_store(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < record_bytes, peak / record_bytes

    def test_columns_must_be_the_packed_columns(self):
        header = pinned_segments()[0].header
        columns = dict(pinned_segments()[0].columns)
        with pytest.raises(TypeError):
            ColumnarSegment(header, np.zeros(1, PACKED_DTYPE), columns=columns)
        with pytest.raises(ValueError, match="'x'"):
            ColumnarSegment(header, columns={**columns, "x": columns["x"][1:]})
        with pytest.raises(ValueError, match="'e_tot'"):
            ColumnarSegment(header, columns={**columns, "e_tot": columns["x"]})
        with pytest.raises(ValueError, match="PACKED_DTYPE"):
            ColumnarSegment(header, packed=np.zeros(3, dtype=RESULT_DTYPE))
        segment = pinned_segments()[0]
        with pytest.raises(TypeError):  # nor can one be swapped in later
            segment.columns["e_tot"] = columns["e_tot"][1:]
        assert len(segment.columns["e_tot"]) == len(segment)


class TestWriter:
    def test_bytes_match_the_pinned_layout(self, tmp_path):
        path = tmp_path / "s.rcs"
        assert write_store(path, pinned_segments()) == 3
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGEST

    def test_append_returns_the_bytes_it_wrote(self, tmp_path):
        path = tmp_path / "s.rcs"
        write_store(path, [])
        with StoreWriter(path) as writer:
            for segment in pinned_segments():
                before = path.stat().st_size
                written = writer.append(segment)
                writer.flush()
                assert path.stat().st_size - before == written

    def test_failed_write_leaves_no_file(self, tmp_path):
        def segments():
            yield from pinned_segments()
            raise RuntimeError("producer died")

        with pytest.raises(RuntimeError, match="producer died"):
            write_store(tmp_path / "s.rcs", segments())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_target(self, tmp_path):
        path = tmp_path / "s.rcs"
        write_store(path, pinned_segments()[:1])
        before = path.read_bytes()

        def segments():
            yield from pinned_segments()
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_store(path, segments())
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_text_conversion_keeps_the_old_target(self, tmp_path):
        good = tmp_path / "a.result"
        segment = pinned_segments()[0]
        write_results(good, segment.header, render_lines(segment.records))
        bad = tmp_path / "b.result"
        bad.write_text("not a result file\n")
        store = tmp_path / "s.rcs"
        assert text_to_store([good, good], store) == 2
        before = store.read_bytes()
        with pytest.raises(ValueError):
            text_to_store([good, bad], store)
        assert store.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.result", "b.result", "s.rcs"
        ]


class TestFrames:
    """The frame CRC is zlib's under either implementation, and a kill
    inside a frame (torn, then zeros) is rolled back."""

    @pytest.mark.parametrize("crc", [0, 0xDEADBEEF])
    def test_the_crc_is_zlibs(self, crc):
        data = np.random.default_rng(crc).integers(0, 256, 4099, dtype=np.uint8)
        for n in [*range(200), 1000, 4099]:
            assert store_format._crc32(data[:n], crc) == zlib.crc32(data[:n], crc)
            assert store_format._crc32(data[:n].tobytes(), crc) == zlib.crc32(data[:n], crc)
        column = data[3:4095].view(np.int32)  # not 16-byte aligned
        assert store_format._crc32(column, crc) == zlib.crc32(column, crc)

    def test_bytes_do_not_depend_on_the_native_crc(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_fused, "load", lambda: None)
        write_store(tmp_path / "s.rcs", pinned_segments())
        assert hashlib.sha256((tmp_path / "s.rcs").read_bytes()).hexdigest() == PINNED_DIGEST
        assert len(read_store(tmp_path / "s.rcs")) == 3
        store = ResultStore(path=tmp_path / "chunks.rcs", segments=merge_input())
        merge_couple_store(store, tmp_path / "merged.rcs")
        assert hashlib.sha256((tmp_path / "merged.rcs").read_bytes()).hexdigest() == MERGED_DIGEST

    @pytest.mark.parametrize("cut", [0, 9, 60, -4, -1])
    def test_a_kill_inside_a_frame_rolls_back(self, tmp_path, cut):
        first, _, second = pinned_segments()
        path = tmp_path / "s.rcs"
        write_store(path, [first])
        committed = path.read_bytes()
        write_store(path, [first, second])
        frame = path.read_bytes()[len(committed):]
        cut %= len(frame)  # the frame's first `cut` bytes, then zeros
        path.write_bytes(committed + frame[:cut] + bytes(len(frame) - cut))
        assert rollback_partial_store(path, len(first)) == 0
        assert path.read_bytes() == committed


class TestStreamingReduce:
    def _store(self, tmp_path):
        segments = chunked_store(4)
        segments[1].columns["e_tot"][0] = np.iinfo(np.int64).min  # the NaN code
        short = segments[4]
        segments[4] = ColumnarSegment(
            short.header, source=short.source,
            columns={name: col[:-1] for name, col in short.columns.items()},
        )
        segments.append(pinned_segments()[1])  # an empty segment
        path = tmp_path / "chunks.rcs"
        write_store(path, segments)
        return path

    def test_path_and_store_agree(self, tmp_path):
        path = self._store(tmp_path)
        store = read_store(path)
        for expected in (None, 17):
            from_path = check_store(path, files_expected=expected)
            assert from_path == check_store(store, files_expected=expected)
            assert not from_path.ok
        for names in (None, ["L03", "R00", "L00", "R01", "L01", "R02",
                             "L02", "R03", "P001", "P002"]):
            m_path, n_path = energy_matrix(path, names)
            m_store, n_store = energy_matrix(store, names)
            assert n_path == n_store
            assert m_path.tobytes() == m_store.tobytes()
            assert np.isnan(m_path).sum() == 1

    @pytest.mark.parametrize("case", ["in order", "out of order", "key ties", "nan and reversed"])
    def test_merged_bytes_are_those_of_merge_segments(self, tmp_path, case):
        segments = {
            "in order": [c for k in range(3) for c in couple_chunks(f"R{k}", "L", 3, 4, 5, k)],
            "out of order": chunked_store(3),
            "key ties": chunked_store(2),
            "nan and reversed": merge_input(),
        }[case]
        if case == "key ties":  # one chunk's irot repeats: the lexsort path
            s = segments[1]
            rec = s.records
            rec["irot"] = 1
            segments[1] = ColumnarSegment.from_records(s.header, rec, source=s.source)
        store = ResultStore(path=tmp_path / "chunks.rcs", segments=segments)
        merge_couple_store(store, tmp_path / "streamed.rcs")
        write_store(
            tmp_path / "merged.rcs", [merge_segments(c) for _, c in store.by_couple()]
        )
        assert (tmp_path / "streamed.rcs").read_bytes() == (tmp_path / "merged.rcs").read_bytes()

    def test_merged_bytes_match_the_pinned_merge(self, tmp_path):
        store = ResultStore(path=tmp_path / "chunks.rcs", segments=merge_input())
        out = tmp_path / "merged.rcs"
        assert merge_couple_store(store, out) == 239
        assert hashlib.sha256(out.read_bytes()).hexdigest() == MERGED_DIGEST

    def test_failed_merge_keeps_the_old_output(self, tmp_path):
        segments = chunked_store(3)
        del segments[-2]  # the last couple now has an isep gap
        store = ResultStore(path=tmp_path / "chunks.rcs", segments=segments)
        out = tmp_path / "merged.rcs"
        out.write_bytes(b"an earlier merge")
        with pytest.raises(ValueError, match="isep gap"):
            merge_couple_store(store, out)
        assert out.read_bytes() == b"an earlier merge"
        assert list(tmp_path.iterdir()) == [out]

    def test_merge_holds_a_few_couples_not_all(self, tmp_path):
        n_couples = 12
        store = ResultStore(
            path=tmp_path / "chunks.rcs",
            segments=chunked_store(n_couples, n_chunks=3, nsep=8, n_rot=210),
        )
        couple_bytes = store.n_rows // n_couples * PACKED_DTYPE.itemsize
        tracemalloc.start()
        try:
            rows = merge_couple_store(store, tmp_path / "merged.rcs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == store.n_rows
        assert peak < 4 * couple_bytes, peak / couple_bytes

    def test_a_store_file_is_reduced_one_couple_at_a_time(self, tmp_path):
        n_couples = 12
        path = tmp_path / "chunks.rcs"
        write_store(path, chunked_store(n_couples, n_chunks=3, nsep=8, n_rot=210))
        tracemalloc.start()
        try:
            for store in (read_store(path), path):  # a path is its store
                assert check_store(store).ok
                rows = merge_couple_store(store, tmp_path / "merged.rcs")
                energy_matrix(store)
                position_energy_maps(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == n_couples * 3 * 8 * 210
        couple_bytes = rows // n_couples * PACKED_DTYPE.itemsize
        assert peak < 4 * couple_bytes, peak / couple_bytes


#: every stage that reads a segment of an indexed store
STAGES = {
    "index": lambda store, out: store.segments[-1],
    "iterate": lambda store, out: list(store.segments),
    "check": lambda store, out: check_store(store),
    "merge": lambda store, out: merge_couple_store(store, out),
    "matrix": lambda store, out: energy_matrix(store),
    "maps": lambda store, out: position_energy_maps(store),
}


class TestIndexedStore:
    """``read_store`` keeps an index, so the file can change under it: a
    stage reading a changed segment refuses it as the scan would have."""

    def _indexed(self, tmp_path, edit):
        path = tmp_path / "chunks.rcs"
        write_store(path, chunked_store(2))
        store = read_store(path)
        path.write_bytes(edit(bytearray(path.read_bytes())))
        # what the index holds needs no payload
        assert (len(store), store.n_rows) == (6, 6 * 20)
        assert store.couples() == [("R00", "L00"), ("R01", "L01")]
        return store

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_payload_flipped_after_indexing_is_refused(self, tmp_path, stage):
        def flip(blob):
            blob[-20] ^= 0xFF  # in the last segment's payload
            return bytes(blob)

        store = self._indexed(tmp_path, flip)
        with pytest.raises(ValueError, match="CRC mismatch"):
            STAGES[stage](store, tmp_path / "merged.rcs")
        assert list(tmp_path.iterdir()) == [store.path]

    @pytest.mark.parametrize("stage", STAGES)
    def test_a_file_truncated_after_indexing_is_refused(self, tmp_path, stage):
        store = self._indexed(tmp_path, lambda blob: bytes(blob[:-10]))
        with pytest.raises(ValueError, match="truncated"):
            STAGES[stage](store, tmp_path / "merged.rcs")
        assert list(tmp_path.iterdir()) == [store.path]


#: keys as floats, so they can be NaN (the result dtypes keep them integer)
FLOAT_KEYS = np.dtype([(k, np.float64) for k in ("isep", "irot", "igamma", "e_tot")])


@st.composite
def merge_inputs(draw):
    """Chunks in any order: key-ordered runs, duplicate keys, NaN keys,
    empty chunks; each row's ``e_tot`` is its identity."""
    dtype = draw(st.sampled_from([RESULT_DTYPE, PACKED_DTYPE, FLOAT_KEYS]))
    rows = np.zeros(draw(st.integers(0, 24)), dtype)
    narrow = draw(st.booleans())  # small key space: duplicates likely
    key = st.tuples(
        st.integers(1, 2 if narrow else 9), st.integers(1, 2 if narrow else 5),
        st.integers(1, 2 if narrow else 4),
    )
    keys = draw(st.lists(key, min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        keys.sort()
    if len(rows):
        rows["isep"], rows["irot"], rows["igamma"] = np.array(keys).T
    rows["e_tot"] = np.arange(len(rows))
    if dtype == FLOAT_KEYS and len(rows):
        for i, name in draw(st.lists(st.tuples(
            st.integers(0, len(rows) - 1), st.sampled_from(["isep", "irot", "igamma"])
        ), max_size=3)):
            rows[name][i] = np.nan
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    return draw(st.permutations(np.split(rows, cuts)))


class TestSortedRows:
    @settings(max_examples=300, deadline=None)
    @given(chunks=merge_inputs())
    def test_matches_the_lexsort_oracle_bit_for_bit(self, chunks):
        order = key_order(chunks)
        merged = order.apply(chunks)
        reference = sorted_rows_reference(chunks)
        assert merged.dtype == reference.dtype
        assert merged.tobytes() == reference.tobytes()
        assert b"".join(p.tobytes() for p in order.pieces(chunks)) == reference.tobytes()

    def test_ordered_chunks_in_any_order_are_not_sorted(self, monkeypatch):
        chunks = [s.packed for s in couple_chunks("R", "L", 4, 3, 5, 0)]
        monkeypatch.setattr(np, "lexsort", None)  # the fallback would fail
        expected = np.concatenate(chunks)
        for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
            ordered = [chunks[k] for k in order]
            merged = key_order(ordered).apply(ordered)
            assert merged.tobytes() == expected.tobytes()
