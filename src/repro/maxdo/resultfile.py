"""MAXDo result-file format.

"The output of the MAXDo program is a simple text file that contains on each
line the coordinate of the ligand and its orientation, and then the
interaction energies values" (Section 5.2).

We reproduce that shape: a small ``#``-prefixed header identifying the
couple and the isep range, then **one line per (isep, irot couple)** — the
optimum over the 10 gamma spins of that orientation couple::

    isep irot igamma x y z alpha beta gamma E_lj E_elec E_tot

where ``igamma`` is the index of the winning spin and the pose/energies are
the minimization optimum.  One line per orientation *couple* (not per
gamma) is what the paper's dataset volume implies: 294,533 positions x 168
ligands x 21 couples x ~118 bytes/line = 122 GB ~ the paper's 123 GB.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "ResultHeader",
    "ResultTable",
    "LINE_FORMAT",
    "render_lines",
    "write_results",
    "read_results",
    "expected_line_count",
    "BYTES_PER_LINE",
    "RESULT_DTYPE",
]

#: Size of one formatted data line in bytes (the fixed formats below,
#: including the newline).  Used by the volume model.
BYTES_PER_LINE = 118

_HEADER_FIELDS = ("receptor", "ligand", "isep_start", "nsep", "n_couples", "n_gamma")

_DTYPE = np.dtype(
    [
        ("isep", np.int64),
        ("irot", np.int64),
        ("igamma", np.int64),
        ("x", np.float64),
        ("y", np.float64),
        ("z", np.float64),
        ("alpha", np.float64),
        ("beta", np.float64),
        ("gamma", np.float64),
        ("e_lj", np.float64),
        ("e_elec", np.float64),
        ("e_tot", np.float64),
    ]
)

#: public name of the result-record dtype (the columnar store and the
#: vectorized pipeline build on the same field layout)
RESULT_DTYPE = _DTYPE


@dataclass(frozen=True)
class ResultHeader:
    """Identity of a result file: which couple, which isep slice."""

    receptor: str
    ligand: str
    isep_start: int
    nsep: int
    n_couples: int
    n_gamma: int

    def lines(self) -> list[str]:
        return [
            "# MAXDo result file (repro)",
            f"# receptor {self.receptor}",
            f"# ligand {self.ligand}",
            f"# isep_start {self.isep_start}",
            f"# nsep {self.nsep}",
            f"# n_couples {self.n_couples}",
            f"# n_gamma {self.n_gamma}",
        ]


@dataclass
class ResultTable:
    """A parsed result file: header plus a structured record array."""

    header: ResultHeader
    records: np.ndarray  #: structured array with :data:`_DTYPE` fields

    def __len__(self) -> int:
        return len(self.records)


def expected_line_count(nsep: int, n_couples: int) -> int:
    """Data lines a complete result file must contain (one line per
    starting position and orientation couple)."""
    return nsep * n_couples


#: printf formats of one data line
LINE_FORMAT = (
    "%7d %3d %3d %10.3f %10.3f %10.3f "
    "%8.4f %8.4f %8.4f %13.4f %13.4f %13.4f"
)


def render_lines(records: np.ndarray) -> list[str]:
    """Format records as result-file data lines (no newlines).

    One pass over a plain float matrix; byte-identical to an f-string per
    row with the same field formats (``tests/oracles/resultfile.py``).
    """
    records = np.asarray(records)
    n = len(records)
    if n == 0:
        return []
    rows = np.empty((n, len(_DTYPE.names)), dtype=np.float64)
    for k, name in enumerate(_DTYPE.names):
        rows[:, k] = records[name]
    # ``%d`` truncates floats toward zero; the index columns hold exact
    # integers, so they print as the integers they are.
    return [LINE_FORMAT % tuple(r) for r in rows]


def write_results(
    path: Path | str, header: ResultHeader, lines: Iterable[str]
) -> int:
    """Write a complete result file; returns the number of data lines."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="ascii") as fh:
        for line in header.lines():
            fh.write(line + "\n")
        for line in lines:
            fh.write(line + "\n")
            count += 1
    return count


def _parse_header(lines: list[str]) -> ResultHeader:
    values: dict[str, str] = {}
    for line in lines:
        parts = line[1:].split()
        if len(parts) == 2 and parts[0] in _HEADER_FIELDS:
            values[parts[0]] = parts[1]
    missing = [f for f in _HEADER_FIELDS if f not in values]
    if missing:
        raise ValueError(f"result header missing fields: {missing}")
    return ResultHeader(
        receptor=values["receptor"],
        ligand=values["ligand"],
        isep_start=int(values["isep_start"]),
        nsep=int(values["nsep"]),
        n_couples=int(values["n_couples"]),
        n_gamma=int(values["n_gamma"]),
    )


def _records_from_columns(raw: np.ndarray) -> np.ndarray:
    """(n, 12) float matrix -> structured :data:`RESULT_DTYPE` array."""
    records = np.zeros(raw.shape[0], dtype=_DTYPE)
    for k, name in enumerate(_DTYPE.names):
        records[name] = raw[:, k]
    return records


def read_results(path: Path | str) -> ResultTable:
    """Parse a result file written by :func:`write_results`.

    The table of :func:`repro.store.segment_from_text`, the one text
    reader: a data block in ``LINE_FORMAT``'s exact layout is read as the
    store's codes, any other by the float parser and packed, so the values
    are what the store keeps (rounded to the printed precision).

    Raises ``ValueError`` naming the file (``"<name>: ..."``) on malformed
    headers or data lines (not 12 columns, a ragged block, a token that is
    not a number, ``#`` inside a data line included) and on a value the
    store cannot hold.
    """
    from ..store.convert import segment_from_text  # the store imports this module

    return segment_from_text(path).table()


def _parse_floats(data: bytes) -> ResultTable:
    """The float parser, for a file ``_decode_fixed`` turned down (called
    by :func:`repro.store.convert.segment_from_text` after its one decode
    attempt): one ``np.loadtxt`` over the lines."""
    lines = data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header = _parse_header([ln for ln in lines if ln[:1] == "#"])
    data_lines = [ln for ln in lines if ln and ln[0] != "#" and not ln.isspace()]
    if not data_lines:
        return ResultTable(header=header, records=np.zeros(0, dtype=_DTYPE))
    n_cols = len(_DTYPE.names)
    try:
        raw = np.loadtxt(data_lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        widths = [len(ln.split()) for ln in data_lines]
        row = next((i for i, w in enumerate(widths) if w != n_cols), None)
        if row is None:
            raise ValueError(f"unparseable data line: {exc}") from exc
        ragged = f"ragged data block: data line {row + 1}: " if row else ""
        raise ValueError(f"{ragged}expected {n_cols} columns, got {widths[row]}") from exc
    if raw.shape[1] != n_cols:
        raise ValueError(f"expected {n_cols} columns, got {raw.shape[1]}")
    return ResultTable(header=header, records=_records_from_columns(raw))
