"""Result-file oracles: the per-row formatter, the per-token parser and
the text check and merge built on that parser."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.maxdo.resultfile import (
    RESULT_DTYPE as _DTYPE,
    ResultTable,
    _parse_header,
    _records_from_columns,
    render_lines,
    write_results,
)
from repro.validation.checks import CheckReport, ValueRanges, check_table
from repro.validation.merge import merged_header

from .merge import sorted_rows_reference

__all__ = [
    "check_result_file_reference",
    "format_record",
    "merge_couple_results_reference",
    "read_results_reference",
]


def format_record(
    isep: int,
    irot: int,
    igamma: int,
    position: np.ndarray,
    euler: np.ndarray,
    e_lj: float,
    e_elec: float,
) -> str:
    """Format one evaluation as a result-file data line (no newline)."""
    x, y, z = position
    a, b, g = euler
    return (
        f"{isep:7d} {irot:3d} {igamma:3d} "
        f"{x:10.3f} {y:10.3f} {z:10.3f} "
        f"{a:8.4f} {b:8.4f} {g:8.4f} "
        f"{e_lj:13.4f} {e_elec:13.4f} {e_lj + e_elec:13.4f}"
    )


def read_results_reference(path: Path | str) -> ResultTable:
    """Parse a result file one line and one token at a time.

    The equivalence oracle for :func:`read_results`, sharing none of its
    parsing: each token goes through Python's own correctly rounded
    ``float()``, one line at a time.  Same header rule (``#`` lines are
    the header, blank lines are skipped); any line that is not exactly
    twelve numbers raises ``ValueError``.
    """
    n_cols = len(_DTYPE.names)
    header_lines: list[str] = []
    rows: list[list[float]] = []
    with Path(path).open("r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                header_lines.append(line.rstrip("\n"))
            elif line.strip():
                tokens = line.split()
                if len(tokens) != n_cols:
                    raise ValueError(
                        f"expected {n_cols} columns, got {len(tokens)}"
                    )
                rows.append([float(tok) for tok in tokens])
    header = _parse_header(header_lines)
    raw = np.array(rows, dtype=np.float64).reshape(-1, n_cols)
    return ResultTable(header=header, records=_records_from_columns(raw))


def check_result_file_reference(
    path: Path | str, ranges: ValueRanges | None = None
) -> CheckReport:
    """Checks 2 and 3 (line count, value ranges) on one text file, over
    :func:`read_results_reference`'s records: the verdict oracle for
    ``repro.store.check_segment`` on the file's segment.  A file the parser
    rejects raises its ``ValueError``."""
    path = Path(path)
    table = read_results_reference(path)
    return check_table(path.name, table.header, table.records, ranges)


def merge_couple_results_reference(
    chunk_paths: list[Path | str], out_path: Path | str
) -> int:
    """Merge one couple's text files into one text file: each parsed by
    :func:`read_results_reference`, tiled by ``merged_header`` (errors name
    the file), rows in :func:`sorted_rows_reference` order.  The oracle for
    ``repro.store.merge_segments`` over the files' segments; returns the
    merged line count."""
    chunk_paths = [Path(p) for p in chunk_paths]
    tables = [read_results_reference(p) for p in chunk_paths]
    header = merged_header(
        [(t.header, p.name) for t, p in zip(tables, chunk_paths)]
    )
    records = sorted_rows_reference([t.records for t in tables])
    return write_results(out_path, header, render_lines(records))
