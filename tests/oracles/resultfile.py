"""Result-file oracles: the per-row formatter and the per-token parser."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.maxdo.resultfile import (
    RESULT_DTYPE as _DTYPE,
    ResultTable,
    _parse_header,
    _records_from_columns,
)

__all__ = ["format_record", "read_results_reference"]


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
