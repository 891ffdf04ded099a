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

import io
from pathlib import Path
from typing import Iterable

import numpy as np

from ..maxdo.resultfile import (
    RESULT_DTYPE,
    ResultHeader,
    read_results,
    render_lines,
)
from .format import ColumnarSegment, StoreWriter, iter_segments, pack_records

__all__ = [
    "segment_from_text",
    "segment_to_text",
    "render_lines",
    "text_to_store",
    "store_to_text",
    "header_only_segment",
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
    """Write one segment as a text result file; returns the line count.

    Produces exactly the bytes ``write_results`` + ``render_lines`` would
    for the same header and records.
    """
    out_path = Path(out_path)
    lines = render_lines(segment.records)
    buf = io.StringIO()
    for line in segment.header.lines():
        buf.write(line + "\n")
    for line in lines:
        buf.write(line + "\n")
    out_path.write_text(buf.getvalue(), encoding="ascii")
    return len(lines)


def text_to_store(
    text_paths: Iterable[Path | str], store_path: Path | str
) -> int:
    """Convert text result files into one columnar store (one segment per
    file, in the given order); returns the segment count."""
    store_path = Path(store_path)
    if store_path.exists():
        store_path.unlink()
    count = 0
    with StoreWriter(store_path) as writer:
        for path in text_paths:
            writer.append(segment_from_text(path))
            count += 1
    return count


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


def header_only_segment(header: ResultHeader, source: str | None = None) -> ColumnarSegment:
    """An empty segment carrying just an identity (the columnar twin of a
    freshly opened partial result file)."""
    return ColumnarSegment(
        header=header,
        packed=pack_records(np.zeros(0, dtype=RESULT_DTYPE)),
        source=source,
    )
