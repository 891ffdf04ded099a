"""The packed columnar result store: on-disk format and segment model.

The paper's campaign produced "123 Gb of text files (45 Gb compressed) and
there are 168^2 files" (Section 5.2) that every post-processing stage —
check, merge, matrix reduction — had to re-parse line by line.  This module
replaces the text files as the *canonical* result format with a packed
columnar layout that the whole pipeline can read as numpy arrays:

* **fixed-point packed columns.**  The text format is itself fixed-point
  (``%10.3f`` coordinates, ``%8.4f`` angles, ``%13.4f`` energies), so every
  text-representable value is stored *exactly* as a scaled integer:
  coordinates in milli-Angstrom (``int32``), angles and energies in units
  of 1e-4 (``int32`` / ``int64``), indices in ``int32``/``int16``.  One row
  costs :data:`ROW_BYTES` = 56 bytes against the text format's 118 — a
  2.1x reduction *before* general-purpose compression, with O(1) column
  access instead of a parse.
* **per-couple segments.**  A store file is a magic + version header
  followed by self-delimiting segments; each segment carries the same
  identity a text result file's ``#`` header does (receptor, ligand, isep
  slice) plus a CRC32 of its payload.  Appending a segment never rewrites
  earlier bytes, which is what the checkpointed producer
  (:class:`repro.maxdo.docking.MaxDoRun`) needs: one segment per committed
  starting position, rollback = truncate at a segment boundary.
* **lossless text conversion.**  ``decode(encode(v)) == v`` bit-for-bit
  for every value parsed from a result file, so text -> columnar -> text
  reproduces the original bytes (see :mod:`repro.store.convert` and the
  pinned tests).

Non-finite values (corrupted uploads do contain them) are carried through
as reserved sentinel codes so the range checks reach the same verdicts on
either representation.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..maxdo.resultfile import (
    BYTES_PER_LINE,
    RESULT_DTYPE,
    ResultHeader,
    ResultTable,
)
from ..units import format_bytes

__all__ = [
    "PACKED_DTYPE",
    "ROW_BYTES",
    "SEGMENT_OVERHEAD_BYTES",
    "result_bytes",
    "STORE_MAGIC",
    "STORE_VERSION",
    "ColumnarSegment",
    "ResultStore",
    "StoreWriter",
    "pack_records",
    "unpack_records",
    "write_store",
    "iter_segments",
    "read_store",
    "rollback_partial_store",
]

#: magic prefix of every store file (8 bytes)
STORE_MAGIC = b"RPRCOLS\x01"
#: on-disk format version (bump on any layout change)
STORE_VERSION = 1

_SEGMENT_MAGIC = b"SEG1"
_IOV_MAX = os.sysconf("SC_IOV_MAX")  #: the most pieces one ``writev`` takes

#: fixed-point scales matching the text format's precision exactly
_COORD_SCALE = 1_000  # %10.3f
_ANGLE_SCALE = 10_000  # %8.4f
_ENERGY_SCALE = 10_000  # %13.4f

#: packed column layout (little-endian on disk); field order is the
#: canonical column order of the text format
PACKED_DTYPE = np.dtype(
    [
        ("isep", np.int32),
        ("irot", np.int16),
        ("igamma", np.int16),
        ("x", np.int32),
        ("y", np.int32),
        ("z", np.int32),
        ("alpha", np.int32),
        ("beta", np.int32),
        ("gamma", np.int32),
        ("e_lj", np.int64),
        ("e_elec", np.int64),
        ("e_tot", np.int64),
    ]
)

#: bytes per packed row (the text format spends BYTES_PER_LINE = 118)
ROW_BYTES = PACKED_DTYPE.itemsize

#: typical per-segment framing cost (magic + lengths + meta JSON + crc),
#: used by the dataset volume model; actual meta is close to this
SEGMENT_OVERHEAD_BYTES = 256

def result_bytes(rows: int, n_segments: int, result_format: str = "text") -> int:
    """Bytes ``rows`` result rows occupy on the storage server.

    ``"text"`` is the paper's line-oriented files (118 bytes/line);
    ``"columnar"`` the packed store: :data:`ROW_BYTES` per row plus one
    segment frame per file the rows are spread over.
    """
    if result_format == "text":
        return rows * BYTES_PER_LINE
    if result_format == "columnar":
        return rows * ROW_BYTES + n_segments * SEGMENT_OVERHEAD_BYTES
    raise ValueError(
        f"result_format must be 'text' or 'columnar', got {result_format!r}"
    )


_SCALES = {
    "x": _COORD_SCALE,
    "y": _COORD_SCALE,
    "z": _COORD_SCALE,
    "alpha": _ANGLE_SCALE,
    "beta": _ANGLE_SCALE,
    "gamma": _ANGLE_SCALE,
    "e_lj": _ENERGY_SCALE,
    "e_elec": _ENERGY_SCALE,
    "e_tot": _ENERGY_SCALE,
}
_INDEX_FIELDS = ("isep", "irot", "igamma")

# Reserved sentinel codes at the bottom of each integer range carry the
# IEEE specials through the fixed-point packing (corrupted uploads do
# contain NaN; check 3 must see them on either representation) and the
# sign of a zero the text format prints as ``-0.000``.  Code 3 was the
# lowest packable value before negative zeros had a code.
_SENTINEL_NAN, _SENTINEL_PINF, _SENTINEL_NINF, _SENTINEL_NZERO = range(4)
_N_SENTINELS = 4


#: each packed column's dtype (on disk and in memory) and integer range
_COLUMN_DTYPES = {n: PACKED_DTYPE[n].newbyteorder("<") for n in PACKED_DTYPE.names}
_BOUNDS = {n: (np.iinfo(d).min, np.iinfo(d).max) for n, d in _COLUMN_DTYPES.items()}
_fused = None  #: :mod:`repro.maxdo._fused`, imported by the first :func:`_crc32`


def _round_scaled(values: np.ndarray, scale: int) -> np.ndarray:
    """``values * scale`` rounded half to even as the exact decimal value,
    as ``%.Nf`` prints it.  The binary product is within ``|product| *
    2**-53`` of the exact one, so it rounds the same way unless it lies
    that close to a half; those few round from the exact product."""
    from fractions import Fraction  # 4 ms to import: kept off start-up

    product = values * scale
    scaled = np.round(product)
    slack = np.abs(product - scaled)  # 0.5 minus the distance to a half
    slack += np.abs(product) * 2.0**-52
    for i in np.flatnonzero(slack >= 0.5):
        scaled[i] = np.copysign(round(Fraction(values[i]) * scale), values[i])
    return scaled


def _pack_columns(records: np.ndarray) -> dict[str, np.ndarray]:
    """Encode a float64 record array as the twelve packed columns."""
    records = np.asarray(records)
    columns = {}
    for name in _INDEX_FIELDS:
        lo, hi = _BOUNDS[name]
        col = records[name]
        if len(col) and (col.min() < lo or col.max() > hi):
            raise ValueError(f"column {name!r} does not fit {PACKED_DTYPE[name]}")
        columns[name] = col.astype(_COLUMN_DTYPES[name])
    for name, scale in _SCALES.items():
        col = np.asarray(records[name], dtype=np.float64)
        out = np.empty(len(col), dtype=np.int64)
        finite = np.isfinite(col)
        scaled = _round_scaled(col[finite], scale)
        lo, hi = _BOUNDS[name]
        floor = lo + _N_SENTINELS  # sentinel codes live below the floor
        if len(scaled) and (scaled.min() < floor or scaled.max() > hi):
            raise ValueError(
                f"column {name!r} has values outside the packed range "
                f"[{floor / scale:g}, {hi / scale:g}]"
            )
        out[finite] = scaled.astype(np.int64)
        # sentinels: the non-finite values, and the negative values that
        # round to zero (the text format prints them as ``-0.000``)
        special = ~finite
        special[finite] = (scaled == 0) & np.signbit(scaled)
        if special.any():
            bad = col[special]
            out[special] = lo + np.select(
                [np.isnan(bad), bad == np.inf, bad == -np.inf],
                [_SENTINEL_NAN, _SENTINEL_PINF, _SENTINEL_NINF], _SENTINEL_NZERO,
            )
        columns[name] = out.astype(_COLUMN_DTYPES[name], copy=False)
    return columns


def pack_records(records: np.ndarray) -> np.ndarray:
    """Encode a float64 record array (:data:`RESULT_DTYPE`) as packed rows.

    Exact for every text-representable value; values that came from
    anywhere else are quantized to the text format's precision with the
    rounding ``render_lines`` applies, ties and near-ties included, so
    ``render_lines(unpack_records(pack_records(r))) == render_lines(r)``
    wherever the codes stay below 2**53.  Raises ``ValueError`` when a
    finite value does not fit the packed column's range — such a value
    could not appear on a well-formed text line either.
    """
    return _rows(_pack_columns(records))


def _rows(columns: dict[str, np.ndarray]) -> np.ndarray:
    """Interleave packed columns into :data:`PACKED_DTYPE` rows."""
    rows = np.empty(len(columns["isep"]), dtype=PACKED_DTYPE)
    for name, col in columns.items():
        rows[name] = col
    return rows


def _decode_column(raw: np.ndarray, name: str) -> np.ndarray:
    """Decode one packed fixed-point column to float64."""
    lo = _BOUNDS[name][0]
    col = raw / _SCALES[name]
    special = raw < lo + _N_SENTINELS
    if special.any():
        code = raw[special].astype(np.int64) - lo
        values = np.full(len(code), np.nan)
        values[code == _SENTINEL_PINF] = np.inf
        values[code == _SENTINEL_NINF] = -np.inf
        values[code == _SENTINEL_NZERO] = -0.0
        col[special] = values
    return col


def _crc32(data: bytes | np.ndarray, crc: int = 0) -> int:
    """``zlib.crc32(data, crc)`` of contiguous bytes: by the native library's
    carry-less fold where it loads with one (``maxdo/_fused.c``), else zlib's."""
    global _fused
    if _fused is None:
        from ..maxdo import _fused as module
        _fused = module
    fold = getattr(_fused.load(), "maxdo_crc32", None)
    if type(data) is bytes:
        return zlib.crc32(data, crc) if fold is None else fold(data, len(data), crc)
    if fold is None or not data.flags.c_contiguous:
        return zlib.crc32(data, crc)  # which refuses a strided array
    return fold(data.ctypes.data, data.nbytes, crc)


def unpack_records(packed) -> np.ndarray:
    """Decode packed rows, or a segment's columns by name, to the float64
    :data:`RESULT_DTYPE`.

    The inverse of :func:`pack_records` on its image: bit-identical float64
    values for everything that round-tripped through text.
    """
    records = np.empty(len(packed["isep"]), dtype=RESULT_DTYPE)
    for name in _INDEX_FIELDS:
        records[name] = packed[name]
    for name in _SCALES:
        records[name] = _decode_column(packed[name], name)
    return records


class ColumnarSegment:
    """One result slice in packed columnar form.

    The columnar twin of a text result file: the same
    :class:`~repro.maxdo.resultfile.ResultHeader` identity plus the twelve
    packed columns, ``columns[name]``, each contiguous, little-endian and
    of its :data:`PACKED_DTYPE` field type, in the order they sit on disk.
    ``columns`` is a read-only mapping, and columns read from a store are
    read-only views over the segment's payload bytes.  ``source``
    remembers the file name the segment was converted from (or should
    convert back to), so a store round-trips a whole result directory
    without renaming anything.  ``campaign``
    optionally names the producing campaign on a multi-campaign grid
    (:mod:`repro.multi`); untagged segments encode byte-identically to
    the pre-tag format, so single-campaign stores are unchanged.

    Build one from ``columns=``, from ``packed=`` rows of
    :data:`PACKED_DTYPE` (split into columns), or :meth:`from_records`.
    """

    def __init__(
        self, header: ResultHeader, packed: np.ndarray | None = None,
        source: str | None = None, campaign: str | None = None,
        *, columns: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        if (packed is None) == (columns is None):
            raise TypeError("give a segment either packed rows or columns")
        if packed is not None:
            columns = np.asarray(packed)  # rows read by field name, like columns
            if columns.dtype != PACKED_DTYPE:
                raise ValueError(
                    f"segment rows must use PACKED_DTYPE, got {columns.dtype}"
                )
        n_rows = len(columns["isep"])
        checked = {}
        for name, dtype in _COLUMN_DTYPES.items():
            col = np.asarray(columns[name])
            if col.shape != (n_rows,) or col.dtype.newbyteorder("<") != dtype:
                raise ValueError(f"column {name!r} must be {n_rows} {dtype} codes")
            checked[name] = np.ascontiguousarray(col, dtype)
        # read-only mapping: a column cannot be swapped past the checks
        # above, so the writer can send the columns to disk as they are
        self.columns: Mapping[str, np.ndarray] = MappingProxyType(checked)
        self.header, self.source, self.campaign = header, source, campaign

    def __len__(self) -> int:
        return len(self.columns["isep"])

    @property
    def packed(self) -> np.ndarray:
        """The rows as one read-only :data:`PACKED_DTYPE` array (built on
        access)."""
        rows = _rows(self.columns)
        rows.flags.writeable = False
        return rows

    @property
    def records(self) -> np.ndarray:
        """The decoded float64 record array (computed on access)."""
        return unpack_records(self.columns)

    def column(self, name: str) -> np.ndarray:
        """One decoded column as float64 (indices as int64), without
        materializing the other eleven."""
        if name in _INDEX_FIELDS:
            return self.columns[name].astype(np.int64)
        return _decode_column(self.columns[name], name)

    def table(self) -> ResultTable:
        """View as the parsed-text interface :func:`read_results` returns."""
        return ResultTable(header=self.header, records=self.records)

    @classmethod
    def from_records(
        cls,
        header: ResultHeader,
        records: np.ndarray,
        source: str | None = None,
        campaign: str | None = None,
    ) -> "ColumnarSegment":
        """Pack a float64 record array under ``header``."""
        return cls(header, None, source, campaign, columns=_pack_columns(records))


def _segment_meta(h: ResultHeader, source: str | None, campaign: str | None) -> dict:
    meta = {
        "receptor": h.receptor,
        "ligand": h.ligand,
        "isep_start": h.isep_start,
        "nsep": h.nsep,
        "n_couples": h.n_couples,
        "n_gamma": h.n_gamma,
        "source": source,
    }
    # Additive: the key is only present when set, so untagged segments
    # keep the exact pre-tag byte layout (tested).
    if campaign is not None:
        meta["campaign"] = campaign
    return meta


def _header_from_meta(meta: dict) -> ResultHeader:
    return ResultHeader(
        receptor=meta["receptor"],
        ligand=meta["ligand"],
        isep_start=int(meta["isep_start"]),
        nsep=int(meta["nsep"]),
        n_couples=int(meta["n_couples"]),
        n_gamma=int(meta["n_gamma"]),
    )


class _Frame(NamedTuple):
    """A segment's entry in a store file's index: its frame, no payload."""

    header: ResultHeader
    source: str | None
    campaign: str | None
    offset: int  #: of the payload, from the start of the file
    n_rows: int
    crc: int


def _frames(fh, path: Path) -> Iterator[tuple[_Frame, bytes]]:
    """Each frame's index entry and CRC-checked payload, from an open store."""
    import json

    while magic := fh.read(4):
        if magic != _SEGMENT_MAGIC:
            raise ValueError(f"{path.name}: corrupt segment magic {magic!r}")
        meta_len = int.from_bytes(_read_exact(fh, path, 4), "little")
        meta = json.loads(_read_exact(fh, path, meta_len).decode("ascii"))
        n_rows = int.from_bytes(_read_exact(fh, path, 8), "little")
        offset = fh.tell()
        payload = _read_exact(fh, path, n_rows * ROW_BYTES)
        crc = int.from_bytes(_read_exact(fh, path, 4), "little")
        if _crc32(payload) != crc:
            raise ValueError(f"{path.name}: segment payload CRC mismatch")
        yield _Frame(_header_from_meta(meta), meta.get("source"), meta.get("campaign"),
                     offset, n_rows, crc), payload


def _segment(frame: _Frame, buffer: bytes | np.ndarray, at: int = 0) -> ColumnarSegment:
    """The segment ``frame`` indexes, viewing its payload at ``at`` in ``buffer``."""
    columns = {}
    for name, dtype in _COLUMN_DTYPES.items():  # views: the bytes stay put
        columns[name] = np.frombuffer(buffer, dtype, frame.n_rows, at)
        at += dtype.itemsize * frame.n_rows
    return ColumnarSegment(frame.header, source=frame.source, campaign=frame.campaign,
                           columns=columns)


def _read_exact(fh, path: Path, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"{path.name}: truncated store file")
    return data


def _write_all(fd: int, parts: list) -> None:
    """Write ``parts`` in order, up to IOV_MAX of them per ``writev``: one
    system call a frame, not one a column piece."""
    views = [memoryview(part).cast("B") for part in parts]
    while views:
        n = os.writev(fd, views[:_IOV_MAX])
        while views and n >= len(views[0]):
            n -= len(views.pop(0))
        if n:  # a short write: resume inside this part
            views[0] = views[0][n:]


class StoreWriter:
    """Append-friendly store writer.

    Opens (or creates) a store file and appends whole segments; existing
    bytes are never rewritten, so a crash can at worst leave one trailing
    partial segment (detected by the CRC/length framing on read).  Usable
    as a context manager.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        exists = self.path.exists() and self.path.stat().st_size > 0
        self._fh = self.path.open("ab", buffering=0)
        if not exists:
            _write_all(self._fh.fileno(), [STORE_MAGIC + STORE_VERSION.to_bytes(4, "little")])
        self.n_segments_written = 0

    def append(self, segment: ColumnarSegment) -> int:
        """Append one segment; returns the bytes written.  The columns go
        to the file as they are, under a running CRC: no payload copy."""
        return self.append_frame(segment.header, len(segment), segment.columns.values(),
                                 segment.source, segment.campaign)

    def append_frame(self, header: ResultHeader, n_rows: int, parts: Iterable[np.ndarray],
                     source: str | None = None, campaign: str | None = None) -> int:
        """Append the segment whose payload is ``parts``: its columns in
        :data:`PACKED_DTYPE` order, each whole or in consecutive pieces."""
        import json

        meta = json.dumps(_segment_meta(header, source, campaign), sort_keys=True).encode("ascii")
        parts = list(parts)
        crc = 0
        for part in parts:
            crc = _crc32(part, crc)
        head = [_SEGMENT_MAGIC, len(meta).to_bytes(4, "little"), meta,
                n_rows.to_bytes(8, "little")]
        _write_all(self._fh.fileno(), [*head, *parts, crc.to_bytes(4, "little")])
        self.n_segments_written += 1
        return 20 + len(meta) + n_rows * ROW_BYTES  # 20: magic, 2 lengths, CRC

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_store(path: Path | str, segments: Iterable[ColumnarSegment | tuple]) -> int:
    """Write a store file from scratch, one segment (or ``(header, n_rows,
    parts)`` frame, :meth:`StoreWriter.append_frame`) at a time; returns the
    segment count.  Atomic: a temporary file beside ``path`` replaces it
    once all is written, and any failure leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.unlink(missing_ok=True)  # left by a killed writer that had our pid
    try:
        with StoreWriter(tmp) as writer:
            for segment in segments:
                if isinstance(segment, ColumnarSegment):
                    writer.append(segment)
                else:
                    writer.append_frame(*segment)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return writer.n_segments_written


@contextmanager
def _opened(path: Path) -> Iterator:
    """A store file open for reading, past its magic and version."""
    with path.open("rb") as fh:
        if fh.read(len(STORE_MAGIC)) != STORE_MAGIC:
            raise ValueError(f"{path.name}: not a repro result store")
        version = int.from_bytes(_read_exact(fh, path, 4), "little")
        if version != STORE_VERSION:
            raise ValueError(
                f"{path.name}: store version {version} unsupported "
                f"(expected {STORE_VERSION})"
            )
        yield fh


def iter_segments(path: Path | str) -> Iterator[ColumnarSegment]:
    """Stream the segments of a store file in on-disk order."""
    path = Path(path)
    with _opened(path) as fh:
        for frame, payload in _frames(fh, path):
            yield _segment(frame, payload)


class _StoreFile(Sequence[ColumnarSegment]):
    """A store file's segments, read by offset when indexed or iterated, each
    CRC checked again: the file may have changed since it was indexed."""

    def __init__(self, path: Path, frames: list[_Frame]) -> None:
        self.path, self.frames = path, frames

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i: int) -> ColumnarSegment:
        return self.read([range(len(self))[i]])[0]

    def __iter__(self) -> Iterator[ColumnarSegment]:
        with self.path.open("rb") as fh:
            for frame in self.frames:
                yield from self._read(fh, [frame])

    def read(self, positions: Iterable[int]) -> list[ColumnarSegment]:
        """The segments at ``positions``, read into one buffer."""
        with self.path.open("rb") as fh:
            return self._read(fh, [self.frames[k] for k in positions])

    def _read(self, fh, frames: list[_Frame]) -> list[ColumnarSegment]:
        buffer = np.empty(sum(f.n_rows for f in frames) * ROW_BYTES, np.uint8)
        starts, at = [], 0
        for frame in frames:
            payload = buffer[at:at + frame.n_rows * ROW_BYTES]
            fh.seek(frame.offset)
            if fh.readinto(payload) != len(payload):
                raise ValueError(f"{self.path.name}: truncated store file")
            if _crc32(payload) != frame.crc:
                raise ValueError(f"{self.path.name}: segment payload CRC mismatch")
            starts.append(at)
            at += len(payload)
        buffer.flags.writeable = False
        return [_segment(f, buffer, a) for f, a in zip(frames, starts)]


@dataclass
class ResultStore:
    """A store's segments, with couple-level grouping: read from the file
    when indexed or iterated (:func:`read_store`), or held in memory."""

    path: Path
    segments: Sequence[ColumnarSegment] = field(default_factory=list)

    def headers(self) -> Iterator[tuple[ResultHeader, int]]:
        """Each segment's header and row count, in order, no payload read."""
        if isinstance(self.segments, _StoreFile):
            return ((f.header, f.n_rows) for f in self.segments.frames)
        return ((s.header, len(s)) for s in self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def n_rows(self) -> int:
        return sum(n for _, n in self.headers())

    def size_rows(self) -> list[list[Any]]:
        """Rows, couples and bytes in both result formats (``repro-hcmd
        results stats``); the text side counts what
        :func:`~repro.store.store_to_text` writes, headers included."""
        store_bytes = self.path.stat().st_size
        text_bytes = result_bytes(self.n_rows, len(self)) + sum(
            len("\n".join(h.lines())) + 1 for h, _ in self.headers()
        )
        return [
            ["segments", len(self)],
            ["couples", len(self.couples())],
            ["rows", f"{self.n_rows:,}"],
            ["store bytes", format_bytes(store_bytes)],
            ["text-equivalent bytes", format_bytes(text_bytes)],
            ["text / columnar ratio", f"{text_bytes / store_bytes:.2f}x"],
        ]

    def couples(self) -> list[tuple[str, str]]:
        """Distinct (receptor, ligand) couples, in first-seen order."""
        return list(self._positions())

    def _positions(self) -> dict[tuple[str, str], list[int]]:
        groups: dict[tuple[str, str], list[int]] = {}
        for k, (h, _) in enumerate(self.headers()):
            groups.setdefault((h.receptor, h.ligand), []).append(k)
        return groups

    def by_couple(self) -> Iterator[tuple[tuple[str, str], list[ColumnarSegment]]]:
        """Each (receptor, ligand) couple and its segments, in on-disk order,
        one couple at a time: a file's are read into one buffer in turn."""
        for couple, positions in self._positions().items():
            if isinstance(self.segments, _StoreFile):
                yield couple, self.segments.read(positions)
            else:
                yield couple, [self.segments[k] for k in positions]


def read_store(path: Path | str) -> ResultStore:
    """Index a store file: one pass checks every payload's CRC, keeps none."""
    path = Path(path)
    with _opened(path) as fh:
        frames = [frame for frame, _ in _frames(fh, path)]
    return ResultStore(path=path, segments=_StoreFile(path, frames))


def rollback_partial_store(path: Path | str, rows_committed: int) -> int:
    """Truncate a partial store to the last checkpointed row boundary.

    The producer (:class:`repro.maxdo.docking.MaxDoRun`) appends one
    segment per committed starting position, so a kill can only leave
    whole uncommitted segments (or one torn trailing segment) past the
    boundary.  Keeps the longest clean segment prefix holding
    exactly ``rows_committed`` rows and truncates there; returns the
    number of rows dropped.
    """
    path = Path(path)
    kept_rows = dropped = 0
    offset = len(STORE_MAGIC) + 4
    with _opened(path) as fh:
        try:
            for frame, _ in _frames(fh, path):
                if kept_rows < rows_committed:
                    kept_rows += frame.n_rows
                    offset = fh.tell()
                else:
                    dropped += frame.n_rows
        except ValueError:  # a torn trailing segment: no rows to drop
            pass
    if kept_rows < rows_committed:
        raise ValueError(
            f"partial store has {kept_rows} committed rows, "
            f"checkpoint claims {rows_committed}"
        )
    if kept_rows != rows_committed:
        raise ValueError(
            f"checkpoint boundary {rows_committed} does not align with "
            f"a segment boundary (reached {kept_rows})"
        )
    if path.stat().st_size != offset:
        with path.open("r+b") as fh:
            fh.truncate(offset)
    return dropped
