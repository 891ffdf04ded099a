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
import os
import re
from pathlib import Path
from typing import Iterable

import numpy as np

from ..maxdo.resultfile import (
    BYTES_PER_LINE, LINE_FORMAT, _parse_floats, _parse_header, render_lines, write_results,
)
from .format import (
    _BOUNDS, _COLUMN_DTYPES, _SENTINEL_NAN, _SENTINEL_NINF, _SENTINEL_NZERO,
    _SENTINEL_PINF, ColumnarSegment, iter_segments, write_store,
)

__all__ = [
    "segment_from_text",
    "segment_to_text",
    "render_lines",
    "text_to_store",
    "store_to_text",
]

# Field k of a ``LINE_FORMAT`` line spans columns [_START[k], _END[k]), the
# space (or newline) at _END[k]; a decimal field has its dot at _DOT[k].
_FORMATS = LINE_FORMAT.split()
_END = np.cumsum([len(f % 0) + 1 for f in _FORMATS]) - 1
_START = _END - [len(f % 0) for f in _FORMATS]
_IS_DEC = np.array([f.endswith("f") for f in _FORMATS])
_DEC = np.flatnonzero(_IS_DEC)
_DOT = _END - [len((f % 0).partition(".")[2]) + 1 for f in _FORMATS]
_SKIP = np.where(_IS_DEC, _DOT, -1)  # the native reader's dot columns
#: separators, dots, then digits by high nibble: last in a field, left of a dot
_CHECKED = np.concatenate([_END, _DOT[_DEC], _END - 1, _DOT[_DEC] - 1])
_MASK = np.repeat(np.uint8([0xFF, 0xF0]), len(_CHECKED) // 2)
_LAYOUT = np.frombuffer(b" " * 11 + b"\n" + b"." * 9 + b"0" * 21, np.uint8)
#: a decimal field spelling ``nan`` / ``inf`` / ``-inf`` -> its sentinel
_SPELLED = {(f % v).encode(): code for f in _FORMATS if f.endswith("f") for v, code in (
    (np.nan, _SENTINEL_NAN), (np.inf, _SENTINEL_PINF), (-np.inf, _SENTINEL_NINF))}
#: keeps digits, space, ``-`` and newline; any other byte (``:`` too) fails the parse
_SCRUB = bytes(c if chr(c) in "0123456789 -\n" else ord("x") for c in range(256))


def _read_codes(lines: np.ndarray) -> np.ndarray | None:
    """The ``(n, 12)`` codes of a layout-checked data block, each field an
    integer with its dot dropped; ``None`` if one is not `` *-?[0-9]+``.  The
    native reader if the library loads, else the same rule by ``np.loadtxt``."""
    from ..maxdo import _fused

    n = len(lines)
    if (lib := _fused.load()) is not None:
        codes = np.empty((n, len(_FORMATS)), np.int64)
        bad = lib.maxdo_fixed_codes(lines, *lines.shape, _START, _END, _SKIP, len(_FORMATS), codes)
        return None if bad else codes
    digits = lines.tobytes().translate(_SCRUB, b".")
    try:
        codes = np.loadtxt(io.BytesIO(digits), np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if codes.shape != (n, len(_FORMATS)) or len(digits) != lines.size - len(_DEC) * n:
        return None  # a token split in two, or a dot outside its column
    return codes


def _decode_fixed(data: bytes, source: str | None = None) -> ColumnarSegment | None:
    """The segment of a file whose data block is in ``LINE_FORMAT``'s exact
    layout, read as integers with the dots dropped (the text's decimals are
    the store's scales); ``None`` for any other layout."""
    start = re.match(rb"(?:#[^\n\r]*\n)*", data).end()  # the header lines
    n, tail = divmod(len(data) - start, BYTES_PER_LINE)
    lines = np.frombuffer(data, np.uint8, n * BYTES_PER_LINE, start).reshape(n, BYTES_PER_LINE)
    special = []  # (row, field, sentinel); a spelled special reads as a zero
    if data.find(b"n", start) >= 0 or data.find(b"f", start) >= 0:
        lines = lines.copy()
        for r, k in zip(*np.nonzero(lines[:, _END[_DEC] - 1] > ord("9"))):
            k, zero = _DEC[k], np.frombuffer((_FORMATS[_DEC[k]] % 0).encode(), np.uint8)
            special.append((r, k, _SPELLED.get(lines[r, _END[k] - len(zero):_END[k]].tobytes())))
            lines[r, _END[k] - len(zero):_END[k]] = zero
    off = (lines[:, _CHECKED] & _MASK) != _LAYOUT
    if tail or not n or off.any() or any(code is None for *_, code in special):
        return None
    if (codes := _read_codes(lines)) is None:
        return None
    rows, fields = np.divmod(np.flatnonzero(codes == 0), len(_FORMATS))
    rows, fields = rows[_IS_DEC[fields]], fields[_IS_DEC[fields]]
    sign = lines[rows, _DOT[fields] - 2]
    if not ((sign == ord(" ")) | (sign == ord("-"))).all():  # "00.000" is not canonical
        return None
    special += [(r, k, _SENTINEL_NZERO) for r, k, c in zip(rows, fields, sign) if c == ord("-")]
    for r, k, code in special:  # the sentinels count up from each column's lowest code
        codes[r, k] = list(_BOUNDS.values())[k][0] + code
    columns = {name: codes[:, k].astype(d) for k, (name, d) in enumerate(_COLUMN_DTYPES.items())}
    header = _parse_header(data[:start].decode("ascii").split("\n"))
    return ColumnarSegment(header, source=source, columns=columns)


def segment_from_text(path: Path | str) -> ColumnarSegment:
    """Parse one text result file into a packed segment (straight to the
    codes in the canonical layout), its file name the ``source`` that
    :func:`store_to_text` reuses.  The one way text enters the program; a
    ``ValueError`` names the file, a value the store cannot hold included."""
    path = Path(path)
    try:
        data = path.read_bytes()
        if (segment := _decode_fixed(data, path.name)) is None:
            table = _parse_floats(data)
            return ColumnarSegment.from_records(table.header, table.records, path.name)
        return segment
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from exc


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
    ``{receptor}_{ligand}_{isep_start}.result``.  Returns the written paths;
    a ``ValueError`` names a file two segments would both be written to.
    Atomic, as :func:`~repro.store.format.write_store`: each file is
    written to a temporary name beside its target and all are renamed into
    place at the end, so any failure leaves ``out_dir`` as it was.
    """
    out_dir = Path(out_dir)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: dict[Path, Path] = {}  # target -> temporary, insertion-ordered
    try:
        for segment in iter_segments(store_path):
            h = segment.header
            name = segment.source or f"{h.receptor}_{h.ligand}_{h.isep_start}.result"
            path = out_dir / name
            if path in staged:
                raise ValueError(f"{name}: two segments expand to this file")
            staged[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            segment_to_text(segment, staged[path])
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        if created:
            out_dir.rmdir()
        raise
    for path, tmp in staged.items():
        os.replace(tmp, path)
    return list(staged)
