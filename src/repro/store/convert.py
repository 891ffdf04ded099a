"""Lossless text <-> columnar conversion.

The conversion contract (pinned by ``tests/test_store.py`` and the
property suite):

* **text -> columnar -> text is byte-identical** for every file written by
  :func:`repro.maxdo.resultfile.write_results` — the text format is
  fixed-point, the packed columns store those fixed-point values exactly,
  and :func:`segment_to_text` re-renders with the text format's own
  :func:`~repro.maxdo.resultfile.render_lines`.
* **columnar -> text -> columnar is byte-identical** for every segment
  whose values are text-representable (which everything converted *from*
  text is by construction).

A store file remembers each segment's original file name (``source``), so
converting a result directory to one store file and back reproduces the
directory exactly — names, headers, bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..maxdo.resultfile import read_results, render_lines, write_results
from .format import ColumnarSegment, iter_segments, pack_records, write_store

__all__ = [
    "segment_from_text",
    "segment_to_text",
    "render_lines",
    "text_to_store",
    "store_to_text",
]


def segment_from_text(path: Path | str) -> ColumnarSegment:
    """Parse one text result file into a packed segment.

    Keeps the file name as the segment ``source`` so a later
    :func:`store_to_text` can reproduce the directory layout.
    """
    path = Path(path)
    table = read_results(path)
    return ColumnarSegment(
        header=table.header,
        packed=pack_records(table.records),
        source=path.name,
    )


def segment_to_text(segment: ColumnarSegment, out_path: Path | str) -> int:
    """Write one segment as a text result file (``write_results`` over
    ``render_lines``); returns the line count."""
    return write_results(out_path, segment.header, render_lines(segment.records))


def text_to_store(
    text_paths: Iterable[Path | str], store_path: Path | str
) -> int:
    """Convert text result files into one columnar store (one segment per
    file, in the given order, parsed one at a time and written atomically
    by :func:`write_store`); returns the segment count."""
    return write_store(store_path, (segment_from_text(p) for p in text_paths))


def store_to_text(store_path: Path | str, out_dir: Path | str) -> list[Path]:
    """Expand a store back into text result files under ``out_dir``.

    Segment ``source`` names are reused; segments without one are named
    ``{receptor}_{ligand}_{isep_start}.result``.  Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for segment in iter_segments(store_path):
        h = segment.header
        name = segment.source or f"{h.receptor}_{h.ligand}_{h.isep_start}.result"
        path = out_dir / name
        segment_to_text(segment, path)
        written.append(path)
    return written
