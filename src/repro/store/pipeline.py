"""The vectorized post-processing pipeline over the columnar store.

Section 5.2's check -> merge -> reduce chain as whole-column array
passes — the one result path: a text upload enters it through
:func:`repro.store.segment_from_text`.

* **checks 2/3** (:func:`check_segment` / :func:`check_store`): line-count
  and value-range validation straight off the codes the rules read
  (:class:`repro.validation.checks.ValueRanges`), without a text parse;
* **merge** (:func:`merge_segments` / :func:`merge_couple_store`):
  slice-tiling validation plus a column-by-column concatenation in key
  order, one couple at a time — no text line is ever materialized;
* **reduction** (:func:`energy_matrix` / :func:`position_energy_maps`):
  the cross-docking matrix and the position-resolved site maps read as
  grouped column minima (`np.minimum.at` over integer keys), feeding
  :class:`repro.science.CrossDockingMatrix` and
  :class:`repro.science.SiteMaps` directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..maxdo.resultfile import ResultHeader
from ..validation.checks import CheckReport, ValueRanges, slice_report
from ..validation.merge import KeyOrder, key_order, merged_header
from .format import (
    _SCALES,
    PACKED_DTYPE,
    ColumnarSegment,
    ResultStore,
    read_store,
    write_store,
)

__all__ = [
    "check_segment",
    "check_store",
    "merge_segments",
    "merge_couple_store",
    "energy_matrix",
    "position_energy_maps",
]


def _store(store: ResultStore | Path | str) -> ResultStore:
    """A store, or the index of the store file at a path (:func:`read_store`)."""
    return store if isinstance(store, ResultStore) else read_store(store)


def _segment_label(segment: ColumnarSegment, index: int) -> str:
    if segment.source:
        return segment.source
    h = segment.header
    return f"segment[{index}] {h.receptor}-{h.ligand}@{h.isep_start}"


#: the columns the range rules read, in maxdo_check_codes' order; six decode
_CHECKED = ("isep", "irot", "igamma", "x", "y", "z", "e_lj", "e_elec", "e_tot")


def check_segment(
    segment: ColumnarSegment,
    ranges: ValueRanges | None = None,
    name: str | None = None,
) -> CheckReport:
    """Checks 2 and 3 (line count, value ranges) on one segment.

    The range rules run as one native pass over the nine packed columns
    they read, reaching ``ValueRanges.violations``' verdicts; without the
    library, that rule runs over the six value columns decoded (as a text
    parse gives them) and the three integer indices as stored.
    """
    from ..maxdo import _fused

    ranges = ranges if ranges is not None else ValueRanges()
    if (lib := _fused.load()) is None:
        rows = {n: segment.column(n) for n in _CHECKED[3:]}
        rows.update((n, segment.columns[n]) for n in _CHECKED[:3])
        problems = ranges.violations(rows)
    else:
        bits = lib.maxdo_check_codes(
            *(segment.columns[n].ctypes.data for n in _CHECKED),
            len(segment), _SCALES["x"], _SCALES["e_lj"],
            ranges.max_abs_coordinate, ranges.max_abs_energy, ranges.energy_sum_tolerance,
        )
        problems = [rule for k, rule in enumerate(ValueRanges.RULES) if bits >> k & 1]
    name = name or _segment_label(segment, 0)
    return slice_report(name, segment.header, len(segment), problems)


def check_store(
    store: ResultStore | Path | str,
    files_expected: int | None = None,
    ranges: ValueRanges | None = None,
) -> CheckReport:
    """All three checks over a whole store (check 1 counts segments), read
    one segment at a time."""
    report = CheckReport(files_expected=0, files_found=0)
    for i, segment in enumerate(_store(store).segments):
        sub = check_segment(segment, ranges, name=_segment_label(segment, i))
        report.files_with_bad_line_count.extend(sub.files_with_bad_line_count)
        report.files_with_bad_values.update(sub.files_with_bad_values)
        report.files_found += 1
    report.files_expected = (
        files_expected if files_expected is not None else report.files_found
    )
    return report


def _merge_order(segments: Sequence[ColumnarSegment]) -> tuple[ResultHeader, KeyOrder]:
    """One couple's merged header (the chunks validated) and their key order."""
    labelled = [(s.header, _segment_label(s, i)) for i, s in enumerate(segments)]
    return merged_header(labelled), key_order([s.columns for s in segments])


def _merged_frame(chunks: Sequence[ColumnarSegment]) -> tuple[ResultHeader, int, Iterator]:
    """:func:`merge_segments` as a :func:`write_store` frame, in-order chunks uncopied."""
    header, order = _merge_order(chunks)
    return header, sum(map(len, chunks)), (
        part for name in PACKED_DTYPE.names
        for part in order.pieces([s.columns[name] for s in chunks])
    )


def merge_segments(segments: Sequence[ColumnarSegment]) -> ColumnarSegment:
    """Merge one couple's workunit segments into a single segment.

    Segments must belong to one couple, agree on the orientation grid and
    tile ``[1..Nsep]`` exactly
    (:func:`~repro.validation.merge.merged_header`); every error names the
    offending chunk.  The merged columns are the chunks' packed columns in
    ``(isep, irot, igamma)`` order (:func:`~repro.validation.merge.key_order`)
    — integer keys, exact, so the merged energies are the chunks' own.
    """
    header, order = _merge_order(segments)
    return ColumnarSegment(header, columns={
        name: order.apply([s.columns[name] for s in segments])
        for name in PACKED_DTYPE.names
    })


def merge_couple_store(
    store: ResultStore | Path | str, out_path: Path | str
) -> int:
    """Merge every couple of a chunked store into a one-segment-per-couple
    store at ``out_path``; returns the total merged row count.  Couples are
    read, merged and written one at a time, atomically (:func:`write_store`),
    as :func:`merge_segments` would; chunks already in key order are not copied."""
    store = _store(store)
    write_store(out_path, (_merged_frame(c) for _, c in store.by_couple()))
    return store.n_rows


def _couple_index(
    couples: Iterable[tuple[str, str]], names: Sequence[str] | None
) -> tuple[list[str], dict[str, int]]:
    """The protein order (``names``, else first-seen) and each protein's
    index; a protein of ``couples`` missing from ``names`` is refused."""
    seen: dict[str, None] = {}
    for r, l in couples:
        seen.setdefault(r, None)
        seen.setdefault(l, None)
    names = list(seen) if names is None else list(names)
    index = {n: i for i, n in enumerate(names)}
    for name in seen:
        if name not in index:
            raise ValueError(f"protein {name!r} in the store is not in names")
    return names, index


def energy_matrix(
    store: ResultStore | Path | str, names: Sequence[str] | None = None
) -> tuple[np.ndarray, list[str]]:
    """The cross-docking energy matrix read straight off the columns.

    ``E[i, j]`` = best (minimum) ``e_tot`` over every row docking ligand
    ``names[j]`` against receptor ``names[i]``; couples with no rows stay
    ``+inf``.  NaN energies propagate into the entry, exactly as a
    ``records["e_tot"].min()`` over the parsed text file would (checks
    reject such files, but the reduction must not silently launder them).
    Returns ``(matrix, names)``.  The store is read one segment at a time.
    """
    minima: dict[tuple[str, str], list] = {}
    for s in _store(store).segments:
        found = minima.setdefault((s.header.receptor, s.header.ligand), [])
        if len(s):
            found.append(s.column("e_tot").min())
    names, index = _couple_index(minima, names)
    n = len(names)
    matrix = np.full((n, n), np.inf)
    for (receptor, ligand), candidates in minima.items():
        i, j = index[receptor], index[ligand]
        if candidates:
            matrix[i, j] = np.minimum(matrix[i, j], np.min(candidates))
    return matrix, names


def position_energy_maps(
    store: ResultStore | Path | str,
    names: Sequence[str] | None = None,
    n_positions: int | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Position-resolved energy maps: best ``e_tot`` per starting position.

    ``maps[i, j, k]`` = minimum energy over the orientation rows of
    position ``k+1`` docking ligand ``j`` at receptor ``i`` — exactly what
    :class:`repro.science.SiteMaps` consumes.  All receptors must share
    one position-grid size (``n_positions``; defaults to the largest
    header ``nsep`` seen, with headerless couples inferred from their
    rows).  Unsampled positions stay ``+inf``.  The store is read one
    segment at a time.
    """
    store = _store(store)
    names, index = _couple_index(store.couples(), names)
    if n_positions is None:
        n_positions = max((h.isep_start + h.nsep - 1 for h, _ in store.headers()), default=0)
    n = len(names)
    maps = np.full((n, n, n_positions), np.inf)
    for k, s in enumerate(store.segments):
        if not len(s):
            continue
        isep = s.column("isep")
        if isep.min() < 1 or isep.max() > n_positions:
            raise ValueError(
                f"isep outside [1, {n_positions}] in {_segment_label(s, k)}"
            )
        target = maps[index[s.header.receptor], index[s.header.ligand]]
        np.minimum.at(target, isep - 1, s.column("e_tot"))
    return maps, names
